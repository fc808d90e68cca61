/**
 * @file
 * The benchmark's traced run: replays the generated inputs in-process
 * through the public entry points of each layer and records its own
 * spans (name, start, end, parent, op id) around those calls. Nothing
 * inside the libraries is instrumented; a layer's time is the time of
 * the call the tracer makes into it.
 *
 * Every mode makes two passes over the same ops:
 *
 *  - pass A, untraced: the production entry point (the daemon's
 *    engine::handleRequestLine, synth::Synthesizer::run,
 *    conform::checkTraceFile), timed once per op;
 *  - pass B, traced: the same work decomposed into per-layer calls,
 *    each wrapped in a span. Its results are compared with pass A's so
 *    the decomposition cannot drift from what the daemon does.
 *
 * The passes alternate op by op, so both see the same machine state.
 *
 * usage:
 *   tracer check   --requests FILE --count N --out DIR
 *   tracer synth   --n N --seconds S --out DIR
 *   tracer conform --requests FILE --seconds S --out DIR
 *
 * DIR receives spans.jsonl (every span of pass B), responses.jsonl
 * (pass A's output per op, for the benchmark's oracles) and
 * result.json (pass timings, mismatches and counters).
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "conform/checker.hh"
#include "conform/trace.hh"
#include "engine/cache.hh"
#include "engine/canonical.hh"
#include "engine/engine.hh"
#include "engine/json.hh"
#include "engine/service.hh"
#include "litmus/parser.hh"
#include "model/checker.hh"
#include "obs/obs.hh"
#include "relation/error.hh"
#include "synth/generator.hh"

using namespace mixedproxy;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** In-memory span recorder: spans nest by scope (RAII guards). */
class Spans
{
  public:
    struct Record
    {
        std::uint64_t id;
        std::uint64_t parent; ///< 0 = root
        std::uint64_t op;
        const char *name;
        std::int64_t start;
        std::int64_t end;
    };

    class Guard
    {
      public:
        Guard(Spans *owner, std::size_t index)
            : owner(owner), index(index)
        {}
        Guard(const Guard &) = delete;
        Guard &operator=(const Guard &) = delete;
        ~Guard() { owner->close(index); }

      private:
        Spans *owner;
        std::size_t index;
    };

    std::uint64_t op = 0;

    Guard
    open(const char *name)
    {
        const std::uint64_t parent =
            stack.empty() ? 0 : records[stack.back()].id;
        records.push_back({records.size() + 1, parent, op, name,
                           nowNs(), 0});
        stack.push_back(records.size() - 1);
        return Guard(this, records.size() - 1);
    }

    void
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            fatal("cannot write ", path);
        for (const Record &r : records) {
            std::fprintf(f,
                         "{\"id\":%llu,\"parent\":%llu,\"op\":%llu,"
                         "\"name\":\"%s\",\"start_ns\":%lld,"
                         "\"end_ns\":%lld}\n",
                         (unsigned long long)r.id,
                         (unsigned long long)r.parent,
                         (unsigned long long)r.op, r.name,
                         (long long)r.start, (long long)r.end);
        }
        std::fclose(f);
    }

  private:
    void
    close(std::size_t index)
    {
        records[index].end = nowNs();
        stack.pop_back();
    }

    std::vector<Record> records;
    std::vector<std::size_t> stack;
};

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read ", path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty())
            lines.push_back(line);
    }
    return lines;
}

void
writeText(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write ", path);
    out << text;
}

std::string
jsonCounters(const obs::MetricsRegistry &metrics)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, value] : metrics.counters()) {
        out += first ? "\"" : ",\"";
        out += name + "\":" + std::to_string(value);
        first = false;
    }
    return out + "}";
}

double
msSince(std::int64_t start)
{
    return static_cast<double>(nowNs() - start) / 1e6;
}

/**
 * One daemon check request, decomposed into the calls the engine makes
 * (json parse, litmus parse, canonicalize, cache lookup with the model
 * check on a miss, assertion re-evaluation, render), mirroring
 * engine::handleRequestLine for a `litmus` request with default knobs.
 * Returns the response line the daemon would have written.
 */
std::string
decomposedCheck(engine::VerdictCache &cache, const std::string &line,
                Spans &spans)
{
    auto opSpan = spans.open("op");
    std::unique_ptr<engine::json::Value> doc;
    {
        auto s = spans.open("engine.json");
        doc = engine::json::parse(line);
    }
    if (!doc || !doc->isObject() || !doc->find("litmus"))
        fatal("tracer: not a litmus check request");

    engine::Request request;
    {
        auto s = spans.open("litmus.parse");
        request.test = litmus::parseTest(doc->find("litmus")->string);
    }
    const engine::CheckBlock &block = request.check;
    model::CheckOptions opts = block;

    engine::CanonicalForm form;
    {
        auto s = spans.open("engine.canonical");
        form = engine::canonicalize(request.test);
    }
    const std::string key = engine::VerdictCache::fingerprint(
        form.key, block.mode, block.staticFastPath, block.maxExecutions,
        block.presolve, block.enumCore);

    engine::Verdict verdict;
    engine::CachedVerdict cached;
    {
        auto s = spans.open("engine.cache");
        cached = cache.lookupOrCompute(
            key,
            [&]() {
                auto c = spans.open("model.check");
                model::CheckResult result =
                    model::Checker(opts).check(request.test);
                engine::CachedVerdict fresh;
                fresh.budgetExceeded = result.budgetExceeded;
                fresh.stats = result.stats;
                for (const litmus::Outcome &outcome : result.outcomes)
                    fresh.outcomes.insert(form.toCanonical(outcome));
                return fresh;
            },
            &verdict.cacheHit);
    }
    model::CheckResult &result = verdict.check;
    result.testName = request.test.name();
    result.mode = block.mode;
    result.budgetExceeded = cached.budgetExceeded;
    result.stats = cached.stats;
    {
        auto s = spans.open("engine.reconstruct");
        for (const litmus::Outcome &outcome : cached.outcomes)
            result.outcomes.insert(form.fromCanonical(outcome));
    }
    {
        auto s = spans.open("model.assertions");
        model::evaluateAssertions(request.test, result);
    }

    std::string report;
    {
        auto s = spans.open("engine.render");
        report = engine::renderReport(request, verdict);
    }
    engine::json::Value response = engine::json::Value::makeObject();
    if (const engine::json::Value *id = doc->find("id"))
        response.object["id"] = *id;
    response.object["ok"] = engine::json::Value::makeBool(true);
    response.object["passed"] =
        engine::json::Value::makeBool(verdict.passed());
    response.object["cache_hit"] =
        engine::json::Value::makeBool(verdict.cacheHit);
    response.object["report"] =
        engine::json::Value::makeString(std::move(report));
    auto s = spans.open("service.encode");
    return response.dump();
}

int
runCheck(const std::string &requestsPath, std::size_t count,
         const std::string &outDir)
{
    std::vector<std::string> lines = readLines(requestsPath);
    if (count > lines.size())
        fatal("tracer: --count exceeds the request file");
    lines.resize(count);

    // Op by op: pass A, the daemon's request handler (on an Engine),
    // then pass B, the decomposed pipeline with spans (on a separate
    // cache, so it sees the same hit/miss sequence). Each request runs
    // under its own enabled observability session, as in the daemon.
    engine::Engine engine;
    engine::VerdictCache cache;
    Spans spans;
    std::vector<std::string> responsesA;
    std::size_t mismatches = 0;
    double untraced = 0.0, traced = 0.0;
    for (std::size_t i = 0; i < lines.size(); i++) {
        {
            obs::Session session;
            session.enable();
            obs::ScopedSession bind(&session);
            const std::int64_t start = nowNs();
            responsesA.push_back(
                engine::handleRequestLine(engine, lines[i]));
            untraced += msSince(start);
        }
        obs::Session session;
        session.enable();
        obs::ScopedSession bind(&session);
        spans.op = i + 1;
        const std::int64_t start = nowNs();
        std::string response;
        try {
            response = decomposedCheck(cache, lines[i], spans);
        } catch (const FatalError &e) {
            response = std::string("error: ") + e.what();
        }
        traced += msSince(start);
        if (response != responsesA[i])
            mismatches++;
    }

    std::string all;
    for (const std::string &r : responsesA)
        all += r + "\n";
    writeText(outDir + "/responses.jsonl", all);
    spans.write(outDir + "/spans.jsonl");
    writeText(outDir + "/result.json",
              "{\"ops\":" + std::to_string(lines.size()) +
                  ",\"untraced_ms\":" + std::to_string(untraced) +
                  ",\"traced_ms\":" + std::to_string(traced) +
                  ",\"mismatches\":" + std::to_string(mismatches) +
                  "}\n");
    return 0;
}

synth::SynthOptions
synthOptions(std::size_t n)
{
    // The options `nvlitmus --synth=N --jobs 1` runs with.
    engine::Request request = engine::Request::forSynth(n);
    request.synth.classifyFenceMinimal = n <= 3;
    request.synth.jobs = 1;
    return request.synth;
}

std::string
synthStatsJson(const synth::SynthStats &s)
{
    return "{\"enumerated\":" + std::to_string(s.programsEnumerated) +
           ",\"after_pruning\":" + std::to_string(s.afterPruning) +
           ",\"unique\":" + std::to_string(s.uniquePrograms) +
           ",\"weak\":" + std::to_string(s.weak) +
           ",\"proxy_sensitive\":" + std::to_string(s.proxySensitive) +
           ",\"pruned_ptx60\":" +
           std::to_string(s.presolvePrunedPtx60) + "}";
}

int
runSynth(std::size_t n, double seconds, const std::string &outDir)
{
    // Alternate pass A (plain Synthesizer::run, as the CLI runs it)
    // and pass B (the same run inside a span, with an enabled session
    // collecting the checker.* and synth.* counters) until the time is
    // spent.
    std::string responses;
    std::vector<double> runMs;
    Spans spans;
    obs::MetricsRegistry counters;
    std::size_t mismatches = 0;
    double untraced = 0.0, traced = 0.0;
    std::string lastStats;
    const std::int64_t begin = nowNs();
    while (runMs.empty() || msSince(begin) < seconds * 1e3) {
        std::int64_t start = nowNs();
        synth::SynthReport plain =
            synth::Synthesizer(synthOptions(n)).run();
        runMs.push_back(msSince(start));
        untraced += runMs.back();
        responses += synthStatsJson(plain.stats) + "\n";

        obs::Session session;
        session.enable();
        synth::SynthOptions opts = synthOptions(n);
        opts.session = &session;
        spans.op = runMs.size();
        start = nowNs();
        synth::SynthReport report;
        {
            auto op = spans.open("op");
            auto s = spans.open("synth.run");
            report = synth::Synthesizer(opts).run();
        }
        traced += msSince(start);
        session.disable();
        counters.mergeFrom(session.metrics);
        lastStats = synthStatsJson(report.stats);
        if (lastStats != synthStatsJson(plain.stats))
            mismatches++;
    }

    writeText(outDir + "/responses.jsonl", responses);
    spans.write(outDir + "/spans.jsonl");
    writeText(outDir + "/result.json",
              "{\"ops\":" + std::to_string(runMs.size()) +
                  ",\"untraced_ms\":" + std::to_string(untraced) +
                  ",\"traced_ms\":" + std::to_string(traced) +
                  ",\"mismatches\":" + std::to_string(mismatches) +
                  ",\"synth\":" + lastStats +
                  ",\"counters\":" + jsonCounters(counters) + "}\n");
    return 0;
}

std::string
conformJson(const conform::ConformReport &report)
{
    const conform::ConformStats &s = report.stats;
    std::string kinds = "{";
    for (std::size_t k = 0; k < conform::kViolationKinds; k++) {
        if (s.byKind[k] == 0)
            continue;
        if (kinds.size() > 1)
            kinds += ",";
        kinds += "\"" +
                 conform::toString(static_cast<conform::ViolationKind>(k)) +
                 "\":" + std::to_string(s.byKind[k]);
    }
    kinds += "}";
    return "{\"conformant\":" +
           std::string(report.conformant() ? "true" : "false") +
           ",\"events\":" + std::to_string(s.events) +
           ",\"violations_by_kind\":" + kinds +
           ",\"fences\":" + std::to_string(s.fences) +
           ",\"window_peak\":" + std::to_string(s.peakWindow) +
           ",\"retired\":" +
           std::to_string(s.retiredWrites + s.retiredFences) +
           ",\"rf_unknown\":" + std::to_string(s.rfUnknown) + "}";
}

/**
 * conform::checkTrace split into its two layers: every
 * TraceReader::next call first (conform.parse), then every
 * StreamChecker call (conform.check), so each layer is one contiguous
 * span. Same calls, same order per layer, as the streaming loop.
 */
conform::ConformReport
decomposedConform(const std::string &path, Spans &spans)
{
    auto opSpan = spans.open("op");
    struct Item
    {
        conform::TraceLine::Kind kind;
        std::size_t index; ///< into events, or the malformed list
        bool malformed;
    };
    std::vector<conform::TraceEvent> events;
    std::vector<std::pair<std::uint64_t, std::string>> malformed;
    conform::TraceHeader header;
    conform::TraceFooter footer;
    std::vector<Item> items;
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file ", path);
    {
        auto s = spans.open("conform.parse");
        conform::TraceReader reader(in);
        conform::TraceLine line;
        for (;;) {
            const auto status = reader.next(line);
            if (status == conform::TraceReader::Status::Eof)
                break;
            if (status == conform::TraceReader::Status::Error) {
                items.push_back({line.kind, malformed.size(), true});
                malformed.emplace_back(reader.lineNumber(),
                                       reader.error());
                continue;
            }
            items.push_back({line.kind, events.size(), false});
            if (line.kind == conform::TraceLine::Kind::Event)
                events.push_back(line.event);
            else if (line.kind == conform::TraceLine::Kind::Header)
                header = line.header;
            else
                footer = line.footer;
        }
    }
    auto s = spans.open("conform.check");
    conform::StreamChecker checker{conform::ConformOptions{}};
    for (const Item &item : items) {
        if (item.malformed) {
            checker.malformedLine(malformed[item.index].first,
                                  malformed[item.index].second);
        } else if (item.kind == conform::TraceLine::Kind::Header) {
            checker.begin(header);
        } else if (item.kind == conform::TraceLine::Kind::Event) {
            checker.event(events[item.index]);
        } else {
            checker.footer(footer);
        }
    }
    return checker.finish();
}

int
runConform(const std::string &pathsFile, double seconds,
           const std::string &outDir)
{
    const std::vector<std::string> paths = readLines(pathsFile);

    // Op by op: pass A, conform::checkTraceFile (the daemon op's
    // call), then pass B, the decomposed replay with spans, until the
    // time is spent.
    std::vector<std::string> responsesA;
    Spans spans;
    std::size_t mismatches = 0;
    double untraced = 0.0, traced = 0.0;
    const std::int64_t begin = nowNs();
    while (responsesA.size() < paths.size() &&
           (responsesA.empty() || msSince(begin) < seconds * 1e3)) {
        const std::string &path = paths[responsesA.size()];
        std::int64_t start = nowNs();
        conform::ConformReport plain = conform::checkTraceFile(path);
        untraced += msSince(start);
        responsesA.push_back(conformJson(plain));

        spans.op = responsesA.size();
        start = nowNs();
        conform::ConformReport report = decomposedConform(path, spans);
        traced += msSince(start);
        if (conformJson(report) != responsesA.back())
            mismatches++;
    }

    std::string all;
    for (const std::string &r : responsesA)
        all += r + "\n";
    writeText(outDir + "/responses.jsonl", all);
    spans.write(outDir + "/spans.jsonl");
    writeText(outDir + "/result.json",
              "{\"ops\":" + std::to_string(responsesA.size()) +
                  ",\"untraced_ms\":" + std::to_string(untraced) +
                  ",\"traced_ms\":" + std::to_string(traced) +
                  ",\"mismatches\":" + std::to_string(mismatches) +
                  "}\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: tracer check|synth|conform [options]\n";
        return 2;
    }
    const std::string mode = argv[1];
    std::map<std::string, std::string> args;
    for (int i = 2; i + 1 < argc; i += 2)
        args[argv[i]] = argv[i + 1];
    auto arg = [&](const char *name) {
        auto it = args.find(name);
        if (it == args.end()) {
            std::cerr << "tracer: missing " << name << "\n";
            std::exit(2);
        }
        return it->second;
    };
    try {
        if (mode == "check")
            return runCheck(arg("--requests"), std::stoul(arg("--count")),
                            arg("--out"));
        if (mode == "synth")
            return runSynth(std::stoul(arg("--n")),
                            std::stod(arg("--seconds")), arg("--out"));
        if (mode == "conform")
            return runConform(arg("--requests"),
                              std::stod(arg("--seconds")), arg("--out"));
    } catch (const std::exception &e) {
        std::cerr << "tracer: " << e.what() << "\n";
        return 1;
    }
    std::cerr << "tracer: unknown mode '" << mode << "'\n";
    return 2;
}
