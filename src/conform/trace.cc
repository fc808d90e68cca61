#include "trace.hh"

#include <charconv>
#include <ostream>
#include <string_view>
#include <utility>

#include "json/reader.hh"

namespace mixedproxy::conform {

namespace {

void
appendUint(std::string &line, std::uint64_t value)
{
    char digits[24];
    auto [end, ec] =
        std::to_chars(digits, digits + sizeof(digits), value);
    line.append(digits, end);
}

void
appendField(std::string &line, const char *key, std::uint64_t value)
{
    line += ",\"";
    line += key;
    line += "\":";
    appendUint(line, value);
}

void
appendField(std::string &line, const char *key, const std::string &value)
{
    line += ",\"";
    line += key;
    line += "\":\"";
    line += value;
    line += '"';
}

/** Start an event line: {"seq":N,"ev":"op". */
void
beginEvent(std::string &line, std::uint64_t seq, const char *op)
{
    line.clear();
    line += "{\"seq\":";
    appendUint(line, seq);
    line += ",\"ev\":\"";
    line += op;
    line += '"';
}

void
appendAccess(std::string &line, std::size_t thread, std::size_t location,
             std::uint64_t value, litmus::Semantics sem,
             litmus::Scope scope, litmus::ProxyKind proxy)
{
    appendField(line, "t", thread);
    appendField(line, "loc", location);
    appendField(line, "val", value);
    // Weak/unscoped/generic are the reader's defaults; omitting them
    // keeps weak-op lines (the common case in big traces) short.
    if (sem != litmus::Semantics::Weak)
        appendField(line, "sem", litmus::toString(sem));
    if (scope != litmus::Scope::None)
        appendField(line, "scope", litmus::toString(scope));
    if (proxy != litmus::ProxyKind::Generic)
        appendField(line, "proxy", litmus::toString(proxy));
}

/** The value @p token names in @p table, if any. */
template <typename T, std::size_t N>
std::optional<T>
lookup(const std::pair<std::string_view, T> (&table)[N],
       std::string_view token)
{
    for (const auto &[name, value] : table) {
        if (name == token)
            return value;
    }
    return std::nullopt;
}

constexpr std::pair<std::string_view, litmus::ProxyKind> kProxyKinds[] = {
    {"generic", litmus::ProxyKind::Generic},
    {"texture", litmus::ProxyKind::Texture},
    {"constant", litmus::ProxyKind::Constant},
    {"surface", litmus::ProxyKind::Surface},
    {"async", litmus::ProxyKind::Async},
};

constexpr std::pair<std::string_view, TraceOp> kTraceOps[] = {
    {"st", TraceOp::Store},   {"commit", TraceOp::Commit},
    {"ld", TraceOp::Load},    {"atom", TraceOp::Rmw},
    {"fence", TraceOp::Fence}, {"fence_proxy", TraceOp::FenceProxy},
    {"bar", TraceOp::Barrier},
};

} // namespace

void
TraceWriter::header(const TraceHeader &hdr)
{
    std::string line;
    line += "{\"schema\":\"";
    line += kTraceSchema;
    line += "\",\"test\":\"";
    line += hdr.test;
    line += "\",\"threads\":[";
    for (std::size_t i = 0; i < hdr.threads.size(); i++) {
        line += i ? ",{\"name\":\"" : "{\"name\":\"";
        line += hdr.threads[i].name;
        line += '"';
        appendField(line, "cta", (std::uint64_t)hdr.threads[i].cta);
        appendField(line, "gpu", (std::uint64_t)hdr.threads[i].gpu);
        line += '}';
    }
    line += "],\"locations\":[";
    for (std::size_t i = 0; i < hdr.locations.size(); i++) {
        line += i ? ",{\"name\":\"" : "{\"name\":\"";
        line += hdr.locations[i].name;
        line += '"';
        appendField(line, "init", hdr.locations[i].init);
        line += '}';
    }
    line += "]}\n";
    *out << line;
    // Init writes own uids [0, locations); real writes follow.
    _nextUid = hdr.locations.size();
}

std::uint64_t
TraceWriter::store(std::size_t thread, std::size_t location,
                   std::uint64_t value, litmus::Semantics sem,
                   litmus::Scope scope, litmus::ProxyKind proxy)
{
    const std::uint64_t uid = _nextUid++;
    std::string line;
    beginEvent(line, _seq++, "st");
    appendAccess(line, thread, location, value, sem, scope, proxy);
    appendField(line, "uid", uid);
    line += "}\n";
    *out << line;
    return uid;
}

void
TraceWriter::commit(std::uint64_t uid)
{
    std::string line;
    beginEvent(line, _seq++, "commit");
    appendField(line, "uid", uid);
    line += "}\n";
    *out << line;
}

void
TraceWriter::load(std::size_t thread, std::size_t location,
                  std::uint64_t value, std::uint64_t rf,
                  litmus::Semantics sem, litmus::Scope scope,
                  litmus::ProxyKind proxy, const std::string &destReg)
{
    std::string line;
    beginEvent(line, _seq++, "ld");
    appendAccess(line, thread, location, value, sem, scope, proxy);
    appendField(line, "rf", rf);
    if (!destReg.empty())
        appendField(line, "rd", destReg);
    line += "}\n";
    *out << line;
}

std::uint64_t
TraceWriter::rmw(std::size_t thread, std::size_t location,
                 std::uint64_t value, std::uint64_t oldValue,
                 std::uint64_t rf, litmus::Semantics sem,
                 litmus::Scope scope, const std::string &destReg,
                 bool commitNow)
{
    const std::uint64_t uid = _nextUid++;
    std::string line;
    beginEvent(line, _seq++, "atom");
    appendAccess(line, thread, location, value, sem, scope,
                 litmus::ProxyKind::Generic);
    appendField(line, "old", oldValue);
    appendField(line, "rf", rf);
    appendField(line, "uid", uid);
    if (!destReg.empty())
        appendField(line, "rd", destReg);
    line += "}\n";
    *out << line;
    if (commitNow)
        commit(uid);
    return uid;
}

void
TraceWriter::fence(std::size_t thread, litmus::Semantics sem,
                   litmus::Scope scope)
{
    std::string line;
    beginEvent(line, _seq++, "fence");
    appendField(line, "t", thread);
    appendField(line, "sem", litmus::toString(sem));
    appendField(line, "scope", litmus::toString(scope));
    line += "}\n";
    *out << line;
}

void
TraceWriter::proxyFence(std::size_t thread, litmus::ProxyFenceKind kind,
                        litmus::Scope scope)
{
    std::string line;
    beginEvent(line, _seq++, "fence_proxy");
    appendField(line, "t", thread);
    appendField(line, "kind", litmus::toString(kind));
    appendField(line, "scope", litmus::toString(scope));
    line += "}\n";
    *out << line;
}

void
TraceWriter::barrier(std::size_t thread, unsigned id)
{
    std::string line;
    beginEvent(line, _seq++, "bar");
    appendField(line, "t", thread);
    appendField(line, "bar", id);
    line += "}\n";
    *out << line;
}

void
TraceWriter::finish(const litmus::Outcome &outcome)
{
    std::string line = "{\"ev\":\"finish\"";
    for (const auto &[field, values] :
         {std::pair{",\"registers\":{", &outcome.registers},
          {"},\"memory\":{", &outcome.memory}}) {
        line += field;
        for (const auto &[name, value] : *values) {
            if (line.back() != '{')
                line += ',';
            line += '"';
            line += name;
            line += "\":";
            appendUint(line, value);
        }
    }
    line += "}}\n";
    *out << line;
}

namespace {

/** Read a header list: [{"name":"x","cta":0,...},...]. */
bool
readHeaderList(json::Reader &in, bool threads, TraceHeader &hdr)
{
    if (!in.beginArray())
        return false;
    while (in.nextElement()) {
        TraceThread thread;
        TraceLocation location;
        std::string_view key;
        if (!in.beginObject())
            return false;
        while (in.nextMember(key)) {
            std::string_view name;
            std::uint64_t num = 0;
            bool ok = true;
            if (key == "name") {
                ok = in.readString(name);
                (threads ? thread.name : location.name) = name;
            } else if (key == "cta" && threads) {
                ok = in.readUint(num);
                thread.cta = (int)num;
            } else if (key == "gpu" && threads) {
                ok = in.readUint(num);
                thread.gpu = (int)num;
            } else if (key == "init" && !threads) {
                ok = in.readUint(location.init);
            } else {
                ok = in.skipValue();
            }
            if (!ok)
                return false;
        }
        if (in.failed())
            return false;
        if (threads)
            hdr.threads.push_back(std::move(thread));
        else
            hdr.locations.push_back(std::move(location));
    }
    return !in.failed();
}

/** Read a footer map: {"key":uint,...}. */
bool
readValueMap(json::Reader &in, std::map<std::string, std::uint64_t> &map)
{
    if (!in.beginObject())
        return false;
    std::string_view key;
    while (in.nextMember(key)) {
        std::uint64_t value = 0;
        if (!in.readUint(value))
            return false;
        map.emplace(std::string(key), value);
    }
    return !in.failed();
}

} // namespace

bool
parseTraceLine(std::string_view text, TraceLine &line, std::string &error)
{
    line = TraceLine{};
    json::Reader in(text);
    auto syntaxError = [&] {
        error = in.error();
        return false;
    };
    auto reject = [&](std::string message) {
        error = std::move(message);
        return false;
    };

    // Accumulate fields; classify once the line is fully read. Event
    // keys come first in the dispatch: they are nearly every line.
    bool sawSchema = false;
    std::string ev;
    TraceHeader &hdr = line.header;
    TraceEvent &event = line.event;
    std::string_view key;
    if (!in.beginObject())
        return syntaxError();
    while (in.nextMember(key)) {
        std::string_view sv;
        std::uint64_t num = 0;
        bool ok = true;
        if (key == "seq") {
            ok = in.readUint(event.seq);
        } else if (key == "ev") {
            ok = in.readString(sv);
            ev = sv;
        } else if (key == "t") {
            ok = in.readUint(num);
            event.thread = (std::size_t)num;
        } else if (key == "loc") {
            ok = in.readUint(num);
            event.location = (std::size_t)num;
        } else if (key == "val") {
            ok = in.readUint(event.value);
        } else if (key == "old") {
            ok = in.readUint(event.oldValue);
        } else if (key == "uid") {
            ok = in.readUint(event.uid);
        } else if (key == "rf") {
            ok = in.readUint(event.rf);
        } else if (key == "bar") {
            ok = in.readUint(num);
            event.barrier = (unsigned)num;
        } else if (key == "rd") {
            ok = in.readString(sv);
            event.destReg = sv;
        } else if (key == "sem") {
            if (!in.readString(sv))
                return syntaxError();
            auto sem = litmus::semanticsFromToken(std::string(sv));
            if (!sem)
                return reject("unknown semantics \"" + std::string(sv) + '"');
            event.sem = *sem;
        } else if (key == "scope") {
            if (!in.readString(sv))
                return syntaxError();
            auto scope = sv == "none"
                             ? std::optional(litmus::Scope::None)
                             : litmus::scopeFromToken(std::string(sv));
            if (!scope)
                return reject("unknown scope \"" + std::string(sv) + '"');
            event.scope = *scope;
        } else if (key == "proxy") {
            if (!in.readString(sv))
                return syntaxError();
            auto proxy = lookup(kProxyKinds, sv);
            if (!proxy)
                return reject("unknown proxy \"" + std::string(sv) + '"');
            event.proxy = *proxy;
        } else if (key == "kind") {
            if (!in.readString(sv))
                return syntaxError();
            auto kind = litmus::proxyFenceKindFromToken(std::string(sv));
            if (!kind) {
                return reject("unknown proxy fence kind \"" +
                              std::string(sv) + '"');
            }
            event.proxyFence = *kind;
        } else if (key == "schema") {
            if (!in.readString(sv))
                return syntaxError();
            if (sv != kTraceSchema) {
                return reject("unsupported trace schema \"" +
                              std::string(sv) + '"');
            }
            sawSchema = true;
        } else if (key == "test") {
            ok = in.readString(sv);
            hdr.test = sv;
        } else if (key == "threads" || key == "locations") {
            ok = readHeaderList(in, key == "threads", hdr);
        } else if (key == "registers") {
            ok = readValueMap(in, line.footer.registers);
        } else if (key == "memory") {
            ok = readValueMap(in, line.footer.memory);
        } else {
            ok = in.skipValue();
        }
        if (!ok)
            return syntaxError();
    }
    if (in.failed())
        return syntaxError();
    if (!in.atEnd())
        return reject("trailing content after line object");

    if (sawSchema) {
        line.kind = TraceLine::Kind::Header;
        return true;
    }
    if (ev == "finish") {
        line.kind = TraceLine::Kind::Footer;
        return true;
    }
    auto op = lookup(kTraceOps, ev);
    if (!op) {
        return reject(ev.empty() ? "event line missing \"ev\""
                                 : "unknown event \"" + ev + '"');
    }
    line.kind = TraceLine::Kind::Event;
    event.op = *op;
    return true;
}

TraceReader::Status
TraceReader::next(TraceLine &line)
{
    // Skip blank lines; EOF is only reported when no content remains.
    json::LineStatus status;
    do {
        _line++;
        status = json::readLine(*in, buf);
        if (status == json::LineStatus::Eof)
            return Status::Eof;
    } while (status == json::LineStatus::Line &&
             buf.find_first_not_of(" \t\r") == std::string::npos);

    _error.clear();
    if (status == json::LineStatus::TooLong) {
        _error = "line longer than " +
                 std::to_string(json::kMaxLineBytes) + " bytes";
        return Status::Error;
    }
    return parseTraceLine(buf, line, _error) ? Status::Ok : Status::Error;
}

} // namespace mixedproxy::conform
