#include "statsdiff.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

namespace mixedproxy::engine {

namespace {

bool
endsWith(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

/** Collect name -> milliseconds series from one stats document. */
std::vector<std::pair<std::string, double>>
collectSeries(const json::Value &doc, std::vector<std::string> &notes,
              const char *label)
{
    std::vector<std::pair<std::string, double>> series;
    const json::Value *timers = doc.find("timers");
    if (timers && timers->isObject()) {
        for (const auto &[name, summary] : timers->object) {
            const json::Value *total = summary.find("total_ms");
            if (total && total->kind == json::Value::Kind::Number)
                series.emplace_back("timer:" + name, total->number);
        }
    } else {
        notes.push_back(std::string(label) + ": no \"timers\" section");
    }
    const json::Value *gauges = doc.find("gauges");
    if (gauges && gauges->isObject()) {
        for (const auto &[name, value] : gauges->object) {
            if (!endsWith(name, "_ms") ||
                value.kind != json::Value::Kind::Number) {
                continue;
            }
            series.emplace_back("gauge:" + name, value.number);
        }
    }
    return series;
}

} // namespace

bool
StatsDiffReport::hasRegression() const
{
    return std::any_of(
        entries.begin(), entries.end(),
        [](const StatsDiffEntry &e) { return e.regression; });
}

std::string
StatsDiffReport::render() const
{
    std::ostringstream os;
    char line[192];
    std::snprintf(line, sizeof(line), "%-44s %12s %12s %9s\n", "series",
                  "base ms", "current ms", "delta");
    os << line << std::string(80, '-') << "\n";
    for (const StatsDiffEntry &e : entries) {
        std::snprintf(line, sizeof(line),
                      "%-44s %12.3f %12.3f %+8.1f%%%s\n",
                      e.name.c_str(), e.baselineMs, e.currentMs,
                      e.deltaPct, e.regression ? "  REGRESSION" : "");
        os << line;
    }
    if (entries.empty())
        os << "(no comparable series)\n";
    for (const std::string &note : notes)
        os << "note: " << note << "\n";
    return os.str();
}

StatsDiffReport
diffStats(const json::Value &baseline, const json::Value &current,
          const StatsDiffOptions &options)
{
    StatsDiffReport report;

    const std::string baseSchema = baseline.stringOr("schema", "");
    const std::string currSchema = current.stringOr("schema", "");
    if (baseSchema != currSchema) {
        report.notes.push_back("schema mismatch: baseline \"" +
                               baseSchema + "\" vs current \"" +
                               currSchema + "\"");
    }

    auto base = collectSeries(baseline, report.notes, "baseline");
    auto curr = collectSeries(current, report.notes, "current");

    for (const auto &[name, baseMs] : base) {
        auto it = std::find_if(
            curr.begin(), curr.end(),
            [&name = name](const auto &entry) {
                return entry.first == name;
            });
        if (it == curr.end()) {
            report.notes.push_back("missing from current: " + name);
            continue;
        }
        StatsDiffEntry entry;
        entry.name = name;
        entry.baselineMs = baseMs;
        entry.currentMs = it->second;
        const double delta = entry.currentMs - entry.baselineMs;
        entry.deltaPct =
            baseMs > 0.0 ? delta / baseMs * 100.0
                         : (entry.currentMs > 0.0 ? 100.0 : 0.0);
        entry.regression = entry.deltaPct > options.thresholdPct &&
                           delta > options.minAbsMs;
        report.entries.push_back(std::move(entry));
    }
    for (const auto &[name, ms] : curr) {
        (void)ms;
        if (std::none_of(base.begin(), base.end(),
                         [&name = name](const auto &entry) {
                             return entry.first == name;
                         })) {
            report.notes.push_back("new in current: " + name);
        }
    }
    return report;
}

namespace {

std::unique_ptr<json::Value>
parseFile(const std::string &path, std::ostream &err)
{
    std::ifstream in(path);
    if (!in) {
        err << "perfcmp: cannot read " << path << "\n";
        return nullptr;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    std::unique_ptr<json::Value> doc = json::parse(text.str(), &error);
    if (!doc)
        err << "perfcmp: " << path << ": " << error << "\n";
    return doc;
}

/** Strict "--flag=VALUE" double parse; false on malformed input. */
bool
parseDoubleArg(const std::string &text, double *out)
{
    try {
        std::size_t used = 0;
        double value = std::stod(text, &used);
        if (used != text.size())
            return false;
        *out = value;
        return true;
    } catch (...) {
        return false;
    }
}

} // namespace

int
perfcmpMain(const std::vector<std::string> &args, std::ostream &out,
            std::ostream &err)
{
    const char *usage =
        "usage: perfcmp [--threshold=PCT] [--min-ms=MS] "
        "[--report-only] BASELINE.json CURRENT.json\n";

    StatsDiffOptions options;
    bool reportOnly = false;
    std::vector<std::string> files;
    for (const std::string &arg : args) {
        if (arg == "--report-only") {
            reportOnly = true;
        } else if (arg.rfind("--threshold=", 0) == 0) {
            if (!parseDoubleArg(arg.substr(12),
                                &options.thresholdPct)) {
                err << "perfcmp: bad --threshold value\n" << usage;
                return 2;
            }
        } else if (arg.rfind("--min-ms=", 0) == 0) {
            if (!parseDoubleArg(arg.substr(9), &options.minAbsMs)) {
                err << "perfcmp: bad --min-ms value\n" << usage;
                return 2;
            }
        } else if (!arg.empty() && arg[0] == '-') {
            err << "perfcmp: unknown flag '" << arg << "'\n" << usage;
            return 2;
        } else {
            files.push_back(arg);
        }
    }
    if (files.size() != 2) {
        err << usage;
        return 2;
    }

    std::unique_ptr<json::Value> baseline = parseFile(files[0], err);
    std::unique_ptr<json::Value> current = parseFile(files[1], err);
    if (!baseline || !current)
        return 2;

    StatsDiffReport report = diffStats(*baseline, *current, options);
    out << report.render();
    if (report.hasRegression()) {
        out << (reportOnly
                    ? "regressions found (report-only: exit 0)\n"
                    : "regressions found\n");
        return reportOnly ? 0 : 1;
    }
    out << "no regressions\n";
    return 0;
}

} // namespace mixedproxy::engine
