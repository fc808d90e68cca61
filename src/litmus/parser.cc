#include "parser.hh"

#include <cctype>
#include <fstream>
#include <sstream>
#include <vector>

#include "relation/error.hh"

namespace mixedproxy::litmus {

namespace {

std::string
trim(const std::string &s)
{
    auto b = s.find_first_not_of(" \t\r");
    auto e = s.find_last_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    return s.substr(b, e - b + 1);
}

std::string
stripComment(const std::string &line)
{
    std::string out = line;
    auto hash = out.find('#');
    if (hash != std::string::npos)
        out = out.substr(0, hash);
    auto slashes = out.find("//");
    if (slashes != std::string::npos)
        out = out.substr(0, slashes);
    return out;
}

std::vector<std::string>
words(const std::string &line)
{
    std::istringstream ss(line);
    std::vector<std::string> out;
    std::string word;
    while (ss >> word)
        out.push_back(word);
    return out;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

} // namespace

LitmusTest
parseTest(const std::string &text)
{
    LitmusTest test;
    Thread current;
    bool in_thread = false;
    bool have_name = false;
    std::size_t thread_count = 0;
    std::size_t line_no = 0;

    auto finish_thread = [&]() {
        if (!in_thread)
            return;
        if (current.instructions.empty()) {
            fatal("line ", line_no, ": thread '", current.name,
                  "' has no instructions");
        }
        test.addThread(current);
        current = Thread{};
        in_thread = false;
    };

    std::istringstream stream(text);
    std::string raw_line;
    while (std::getline(stream, raw_line)) {
        line_no++;
        std::string line = trim(stripComment(raw_line));
        if (line.empty())
            continue;

        try {
            if (startsWith(line, "name:")) {
                finish_thread();
                test.setName(trim(line.substr(5)));
                have_name = true;
            } else if (startsWith(line, "alias ")) {
                finish_thread();
                auto w = words(line);
                if (w.size() != 3)
                    fatal("alias needs two addresses: 'alias va canon'");
                test.addAlias(w[1], w[2]);
            } else if (startsWith(line, "init ")) {
                finish_thread();
                auto w = words(line);
                if (w.size() != 3)
                    fatal("init needs an address and a value");
                std::size_t used = 0;
                std::uint64_t value = 0;
                try {
                    value = std::stoull(w[2], &used, 0);
                } catch (const std::exception &) {
                    fatal("bad init value '", w[2], "'");
                }
                if (used != w[2].size())
                    fatal("bad init value '", w[2], "'");
                test.setInit(w[1], value);
            } else if (startsWith(line, "thread ")) {
                finish_thread();
                if (line.back() != ':')
                    fatal("thread header must end with ':'");
                auto w = words(line.substr(0, line.size() - 1));
                if (w.size() < 2)
                    fatal("thread header needs a name");
                current.name = w[1];
                current.cta = static_cast<int>(thread_count);
                current.gpu = 0;
                if ((w.size() - 2) % 2 != 0)
                    fatal("malformed thread header '", line, "'");
                for (std::size_t i = 2; i + 1 < w.size(); i += 2) {
                    std::size_t used = 0;
                    int value = 0;
                    try {
                        value = std::stoi(w[i + 1], &used);
                    } catch (const std::exception &) {
                        fatal("bad ", w[i], " id '", w[i + 1], "'");
                    }
                    if (used != w[i + 1].size())
                        fatal("bad ", w[i], " id '", w[i + 1], "'");
                    if (w[i] == "cta") {
                        current.cta = value;
                    } else if (w[i] == "gpu") {
                        current.gpu = value;
                    } else {
                        fatal("unknown thread attribute '", w[i], "'");
                    }
                }
                in_thread = true;
                thread_count++;
            } else if (startsWith(line, "require:")) {
                finish_thread();
                test.addAssertion(AssertKind::Require,
                                  trim(line.substr(8)));
            } else if (startsWith(line, "permit:")) {
                finish_thread();
                test.addAssertion(AssertKind::Permit,
                                  trim(line.substr(7)));
            } else if (startsWith(line, "forbid:")) {
                finish_thread();
                test.addAssertion(AssertKind::Forbid,
                                  trim(line.substr(7)));
            } else {
                if (!in_thread) {
                    fatal("instruction outside a thread block: '", line,
                          "'");
                }
                Instruction instr = decode(line);
                instr.sourceLine = static_cast<int>(line_no);
                current.instructions.push_back(std::move(instr));
            }
        } catch (const FatalError &err) {
            // Re-raise with position information if not yet present.
            std::string what = err.what();
            if (startsWith(what, "line "))
                throw;
            fatal("line ", line_no, ": ", what);
        }
    }
    finish_thread();

    if (!have_name)
        fatal("litmus test is missing a 'name:' line");
    test.validate();
    return test;
}

std::string
readSource(std::istream &in)
{
    std::string text;
    char buffer[1 << 16];
    while (in.read(buffer, sizeof buffer) || in.gcount() > 0) {
        text.append(buffer, static_cast<std::size_t>(in.gcount()));
        if (text.size() > kMaxSourceBytes)
            fatal("litmus input longer than ", kMaxSourceBytes, " bytes");
    }
    return text;
}

LitmusTest
parseTestFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open litmus file '", path, "'");
    return parseTest(readSource(in));
}

} // namespace mixedproxy::litmus
