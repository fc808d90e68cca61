/**
 * @file
 * Exporters for the observability session: the structured stats JSON
 * report, the Prometheus text, and the human-readable per-phase timing
 * table that `nvlitmus --timing` prints. The Chrome trace_event writer
 * is obs::Tracer (obs/trace.hh); report.cc implements it next to the
 * other JSON emitters.
 *
 * The JSON emitters are hand-rolled (zero-dependency constraint) and
 * emit complete, parseable documents; tests/obs/ validates them with
 * the repo's strict JSON parser.
 */

#ifndef MIXEDPROXY_OBS_REPORT_HH
#define MIXEDPROXY_OBS_REPORT_HH

#include <map>
#include <string>
#include <string_view>

#include "obs/metrics.hh"

namespace mixedproxy::obs {

/**
 * JSON-escape @p text (quotes, backslashes, control characters; the
 * short forms where JSON has one). The one escaper: the stats and
 * trace reports and engine::json's dump() all write strings with it.
 */
std::string jsonEscape(std::string_view text);

/**
 * Render @p registry as the structured stats report:
 *
 * {
 *   "schema": "mixedproxy.stats.v2",
 *   "meta": { ... @p meta, verbatim ... },
 *   "build": { "git_sha": ..., "compiler": ..., "build_type": ... },
 *   "counters": { "<name>": <uint>, ... },
 *   "gauges": { "<name>": <double>, ... },
 *   "timers": { "<name>": { "count": n, "total_ms": ..., "min_ms": ...,
 *               "mean_ms": ..., "p50_ms": ..., "p95_ms": ...,
 *               "max_ms": ... }, ... },
 *   "conform": { "violations": { "<axiom>": <uint>, ... } },
 *   "enum_profile": { "rejections": {...}, "depth_histogram": {...},
 *                     "branching": {...} }
 * }
 *
 * v2 (ISSUE 8): the "build" provenance object, and the enumeration-
 * profiler counters ("checker.enum.*") lifted out of "counters" into
 * the structured "enum_profile" section — "checker.enum.reject.X"
 * becomes enum_profile.rejections.X, "checker.enum.depth.X" becomes
 * enum_profile.depth_histogram.X, "checker.enum.rf.X" / "co.X" become
 * enum_profile.branching."rf.X" / "co.X". The
 * "conform" section (ISSUE 10) lifts the streaming conformance
 * checker's per-axiom violation counters the same way:
 * "conform.violations.X" becomes conform.violations.X.
 *
 * Metric names are the stable identifiers from docs/observability.md.
 */
std::string statsJson(const MetricsRegistry &registry,
                      const std::map<std::string, std::string> &meta = {});

/**
 * Render the per-phase wall-time table (one row per timer, sorted by
 * total time descending) followed by the counters, for `--timing`.
 */
std::string timingTable(const MetricsRegistry &registry);

/**
 * Render the human enumeration-profiler breakdown (`--profile-enum`'s
 * --timing-style table): per-axiom rejection attribution, the
 * candidate depth histogram, rf/co branching factors and prune
 * attribution (fastpath + presolve).
 */
std::string enumProfileTable(const MetricsRegistry &registry);

/**
 * Render @p registry in the Prometheus text exposition format (v0.0.4)
 * for `--metrics-out`: counters as `mixedproxy_<name>_total`, gauges
 * as `mixedproxy_<name>`, timers as `mixedproxy_<name>_seconds`
 * summaries (quantile 0.5/0.95, _sum, _count), metric names sanitized
 * to [a-zA-Z0-9_]. A `mixedproxy_build_info` gauge carries the build
 * provenance plus @p meta entries as labels.
 */
std::string
prometheusText(const MetricsRegistry &registry,
               const std::map<std::string, std::string> &meta = {});

} // namespace mixedproxy::obs

#endif // MIXEDPROXY_OBS_REPORT_HH
