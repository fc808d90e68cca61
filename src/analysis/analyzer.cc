#include "analyzer.hh"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "model/checker.hh"
#include "obs/obs.hh"
#include "relation/error.hh"

namespace mixedproxy::analysis {

using model::Event;
using model::Program;
using relation::EventId;
using relation::EventSet;
using relation::Relation;

namespace {

/** Reference the instruction that produced @p e. */
InstrRef
refOf(const Event &e)
{
    InstrRef ref;
    ref.thread = e.threadName;
    ref.index = e.instrIndex;
    if (e.instr) {
        ref.sourceLine = e.instr->sourceLine;
        ref.text = e.instr->text.empty() ? e.instr->toString()
                                         : e.instr->text;
    }
    return ref;
}

/** "fence.proxy.<kind>" spelling for a required bridge endpoint. */
std::string
fenceSpelling(const Event &op)
{
    return "fence.proxy." + litmus::toString(op.proxy.kind);
}

/** Fix-it hint for an unbridged cross-proxy pair ordered x before y. */
std::string
raceHint(const Event &x, const Event &y)
{
    const bool x_generic =
        x.proxy.kind == litmus::ProxyKind::Generic;
    const bool y_generic =
        y.proxy.kind == litmus::ProxyKind::Generic;
    std::ostringstream os;
    if (x_generic && y_generic) {
        os << "insert fence.proxy.alias on the base-causality path "
              "between the two accesses";
    } else if (!x_generic && !y_generic) {
        os << "insert " << fenceSpelling(x) << " (CTA " << x.cta
           << ") followed by " << fenceSpelling(y) << " (CTA " << y.cta
           << ") along the base-causality path";
    } else {
        const Event &nongeneric = x_generic ? y : x;
        os << "insert " << fenceSpelling(nongeneric) << " in CTA "
           << nongeneric.cta << " of GPU " << nongeneric.gpu
           << " (or a wider-scope variant) on the base-causality path";
    }
    return os.str();
}

/** Scope width for fence-dominance comparisons; None acts as Cta. */
int
scopeRank(litmus::Scope scope)
{
    switch (scope) {
      case litmus::Scope::Sys: return 2;
      case litmus::Scope::Gpu: return 1;
      default: return 0;
    }
}

/** Fence-only semantics strength: sc above acq_rel. */
int
semRank(litmus::Semantics sem)
{
    return sem == litmus::Semantics::Sc ? 1 : 0;
}

/** A fence-like instruction's dominance facts. */
struct FenceShape
{
    bool isProxy = false;
    litmus::ProxyFenceKind kind = litmus::ProxyFenceKind::Alias;
    int scope = 0;
    int sem = 0;
    bool flaggable = true; ///< cp.async.wait_all is a join, never flagged
};

std::optional<FenceShape>
fenceShape(const litmus::Instruction &instr)
{
    FenceShape shape;
    switch (instr.opcode) {
      case litmus::Opcode::Fence:
        shape.scope = scopeRank(instr.scope);
        shape.sem = semRank(instr.sem);
        return shape;
      case litmus::Opcode::FenceProxy:
        shape.isProxy = true;
        shape.kind = instr.proxyFence;
        shape.scope = scopeRank(instr.scope);
        return shape;
      case litmus::Opcode::CpAsyncWait:
        shape.isProxy = true;
        shape.kind = litmus::ProxyFenceKind::Async;
        shape.scope = scopeRank(litmus::Scope::Cta);
        shape.flaggable = false;
        return shape;
      default:
        return std::nullopt;
    }
}

/** True when fence @p a is at least as strong as @p b (same family). */
bool
dominates(const FenceShape &a, const FenceShape &b)
{
    if (a.isProxy != b.isProxy)
        return false;
    if (a.isProxy)
        return a.kind == b.kind && a.scope >= b.scope;
    return a.scope >= b.scope && a.sem >= b.sem;
}

} // namespace

std::size_t
AnalysisResult::count(Severity severity) const
{
    return static_cast<std::size_t>(std::count_if(
        diagnostics.begin(), diagnostics.end(),
        [&](const Diagnostic &d) { return d.severity == severity; }));
}

bool
AnalysisResult::clean() const
{
    return count(Severity::Error) == 0 && count(Severity::Warning) == 0;
}

std::string
AnalysisResult::render() const
{
    std::ostringstream os;
    os << "lint " << testName << ": " << count(Severity::Error)
       << " error(s), " << count(Severity::Warning) << " warning(s), "
       << count(Severity::Note) << " note(s) ["
       << (mixedProxies ? "mixed-proxy" : "single-proxy") << "]\n";
    for (const auto &diagnostic : diagnostics)
        os << "  " << diagnostic.toString();
    return os.str();
}

Relation
mayBaseCausality(const Program &program)
{
    const auto &events = program.events();
    const std::size_t n = events.size();

    // Potential morally strong reads-from: every enumerable source that
    // would make the edge morally strong (§6.2.2).
    Relation pot_msrf(n);
    for (EventId r : program.reads()) {
        for (EventId w : program.readSources(r)) {
            if (!events[w].isInit &&
                program.morallyStrong().contains(w, r)) {
                pot_msrf.insert(w, r);
            }
        }
    }

    // Potential observation order: extended through atomic RMW chains
    // exactly as the checker's per-candidate computation does.
    Relation obs = pot_msrf;
    bool changed = true;
    while (changed) {
        changed = false;
        obs.forEach([&](EventId w, EventId r) {
            const Event &read = events[r];
            if (!read.isAtomic())
                return;
            EventId w2 = read.rmwPartner;
            pot_msrf.forEach([&](EventId src, EventId r2) {
                if (src == w2 && !obs.contains(w, r2)) {
                    obs.insert(w, r2);
                    changed = true;
                }
            });
        });
    }

    // Potential synchronizes-with: release pattern to acquire pattern
    // whenever the pattern write could reach the pattern read.
    Relation sw(n);
    for (const auto &rel : program.releasePatterns()) {
        const Event &first = events[rel.first];
        for (const auto &acq : program.acquirePatterns()) {
            const Event &last = events[acq.last];
            if (obs.contains(rel.write, acq.read) &&
                program.scopeIncludes(first, last.thread) &&
                program.scopeIncludes(last, first.thread)) {
                sw.insert(rel.first, acq.last);
            }
        }
    }

    return (program.po() | sw | program.barrierSync())
        .transitiveClosure();
}

AnalysisResult
analyze(const litmus::LitmusTest &test)
{
    Program program(test, model::ProxyMode::Ptx75);
    return analyze(program);
}

AnalysisResult
analyze(const Program &program)
{
    obs::Span span("lint");
    const auto &events = program.events();
    const auto &test = program.test();

    AnalysisResult result;
    result.testName = test.name();
    result.mixedProxies = program.usesMixedProxies();

    Relation bcause = mayBaseCausality(program);

    // ---- Mixed-proxy race candidates (§6.2.4) ------------------------
    // Scan overlapping cross-proxy pairs. A pair with a causality path
    // in some direction but no direction satisfying clause (3) races;
    // fences participating in a successful bridge are credited so the
    // redundancy pass can flag the rest. Pairs with no path at all are
    // ordinary concurrency, not a proxy defect. Write-free pairs can't
    // produce a faulting outcome by themselves but still credit fences
    // (a read-read bridge extends causality through observation).
    EventSet useful_fences(events.size());
    std::set<std::tuple<int, int, int, int>> reported;
    for (const Event &x : events) {
        if (!x.isMemory() || x.isInit)
            continue;
        for (const Event &y : events) {
            if (y.id <= x.id || !y.isMemory() || y.isInit)
                continue;
            if (!program.overlaps(x, y) || x.proxy == y.proxy)
                continue;
            const bool path_xy = bcause.contains(x.id, y.id);
            const bool path_yx = bcause.contains(y.id, x.id);
            bool safe = false;
            if (path_xy &&
                proxyFenceBridged(program, bcause, x, y,
                                  &useful_fences)) {
                safe = true;
            }
            if (path_yx &&
                proxyFenceBridged(program, bcause, y, x,
                                  &useful_fences)) {
                safe = true;
            }
            if (safe || (!path_xy && !path_yx))
                continue;
            if (!x.isWrite() && !y.isWrite())
                continue;
            auto key = std::make_tuple(x.thread, x.instrIndex, y.thread,
                                       y.instrIndex);
            if (!reported.insert(key).second)
                continue;

            const Event &from = path_xy ? x : y;
            const Event &to = path_xy ? y : x;
            Diagnostic d;
            d.kind = DiagnosticKind::MixedProxyRace;
            d.severity = Severity::Error;
            std::ostringstream msg;
            msg << "location '" << program.locationName(x.location)
                << "' is accessed via " << x.proxy.toString() << " and "
                << y.proxy.toString()
                << " with no interposed proxy fence on any "
                   "base-causality path";
            d.message = msg.str();
            d.hint = raceHint(from, to);
            d.where = {refOf(x), refOf(y)};
            result.diagnostics.push_back(std::move(d));
        }
    }

    // ---- Fence diagnostics -------------------------------------------
    // Which proxy kinds does the test use at all, and is any location
    // reached through two generic aliases?
    std::set<litmus::ProxyKind> used_kinds;
    bool any_alias_pair = false;
    std::map<model::LocationId, model::AddressId> generic_address_at;
    for (const Event &e : events) {
        if (!e.isMemory() || e.isInit)
            continue;
        used_kinds.insert(e.proxy.kind);
        if (e.proxy.kind == litmus::ProxyKind::Generic) {
            auto [it, inserted] =
                generic_address_at.emplace(e.location, e.address);
            if (!inserted && it->second != e.address)
                any_alias_pair = true;
        }
    }

    for (EventId fid : program.proxyFences()) {
        const Event &f = events[fid];
        // cp.async.wait_all is a join first and a fence second; never
        // flag it.
        if (!f.instr || f.instr->opcode != litmus::Opcode::FenceProxy)
            continue;
        const litmus::ProxyFenceKind kind = f.proxyFence;
        const bool matched =
            kind == litmus::ProxyFenceKind::Alias
                ? any_alias_pair
                : used_kinds.count(litmus::proxyKindForFence(kind)) > 0;
        if (!matched) {
            Diagnostic d;
            d.kind = DiagnosticKind::UnmatchedFenceKind;
            d.severity = Severity::Warning;
            d.message =
                "fence.proxy." + litmus::toString(kind) +
                (kind == litmus::ProxyFenceKind::Alias
                     ? " in a test with no aliased generic accesses"
                     : " in a test with no " +
                           litmus::toString(
                               litmus::proxyKindForFence(kind)) +
                           "-proxy access");
            d.hint = "remove the fence or change its .proxykind to one "
                     "the test uses";
            d.where = {refOf(f)};
            result.diagnostics.push_back(std::move(d));
        } else if (!useful_fences.contains(fid)) {
            Diagnostic d;
            d.kind = DiagnosticKind::RedundantFence;
            d.severity = Severity::Warning;
            d.message = "proxy fence orders nothing: no same-location "
                        "cross-proxy pair is bridged through it "
                        "(wrong CTA/scope, or off every causality "
                        "path)";
            d.hint = "remove the fence, or place one that matches the "
                     "racing accesses' CTA on the path between them";
            d.where = {refOf(f)};
            result.diagnostics.push_back(std::move(d));
        }
    }

    // Vacuous scoped fences: nothing program-order-before (or -after)
    // them in their thread, so no release (acquire) pattern can anchor
    // there and no causality path can route through them usefully.
    for (const Event &f : events) {
        if (!f.isFence())
            continue;
        const bool has_pred = program.po().predecessors(f.id).count() > 0;
        const bool has_succ = program.po().successors(f.id).count() > 0;
        if (has_pred && has_succ)
            continue;
        Diagnostic d;
        d.kind = DiagnosticKind::VacuousFence;
        d.severity = Severity::Warning;
        d.message = std::string("scoped fence is the ") +
                    (has_pred ? "last" : "first") +
                    " event of its thread and orders nothing";
        d.hint = "remove it, or move it between the operations it "
                 "should order";
        d.where = {refOf(f)};
        result.diagnostics.push_back(std::move(d));
    }

    // Shadowed fences: immediately adjacent fence dominated by an
    // equal-or-stronger neighbor (the paper's fence-elision shape).
    for (const auto &thread : test.threads()) {
        for (std::size_t i = 0; i + 1 < thread.instructions.size();
             i++) {
            const auto &a = thread.instructions[i];
            const auto &b = thread.instructions[i + 1];
            auto sa = fenceShape(a);
            auto sb = fenceShape(b);
            if (!sa || !sb)
                continue;
            const litmus::Instruction *victim = nullptr;
            if (sa->flaggable && dominates(*sb, *sa)) {
                victim = &a;
            } else if (sb->flaggable && dominates(*sa, *sb)) {
                victim = &b;
            }
            if (!victim)
                continue;
            const auto &keeper = victim == &a ? b : a;
            Diagnostic d;
            d.kind = DiagnosticKind::ShadowedFence;
            d.severity = Severity::Warning;
            d.message = "fence is dominated by the adjacent "
                        "equal-or-stronger fence '" +
                        (keeper.text.empty() ? keeper.toString()
                                             : keeper.text) +
                        "'";
            d.hint = "remove the weaker fence";
            InstrRef ref;
            ref.thread = thread.name;
            ref.index = static_cast<int>(victim == &a ? i : i + 1);
            ref.sourceLine = victim->sourceLine;
            ref.text = victim->text.empty() ? victim->toString()
                                            : victim->text;
            d.where = {ref};
            result.diagnostics.push_back(std::move(d));
        }
    }

    // ---- Unread registers --------------------------------------------
    std::set<std::pair<std::string, std::string>> used_regs;
    for (const auto &thread : test.threads()) {
        for (const auto &instr : thread.instructions) {
            for (const auto &reg : instr.sourceRegs())
                used_regs.emplace(thread.name, reg);
        }
    }
    for (const auto &assertion : test.assertions()) {
        assertion.condition->forEachRegRef(
            [&](const std::string &thread, const std::string &reg) {
                used_regs.emplace(thread, reg);
            });
    }
    for (const auto &thread : test.threads()) {
        for (std::size_t i = 0; i < thread.instructions.size(); i++) {
            const auto &instr = thread.instructions[i];
            if (instr.destReg.empty() ||
                used_regs.count({thread.name, instr.destReg})) {
                continue;
            }
            Diagnostic d;
            d.kind = DiagnosticKind::UnreadRegister;
            d.severity = Severity::Note;
            d.message = "register " + thread.name + "." + instr.destReg +
                        " is never read by an instruction or condition; "
                        "its outcome is unconstrained";
            d.hint = instr.opcode == litmus::Opcode::Atom
                         ? "use red.* (a reduction returns no value) or "
                           "assert on the register"
                         : "remove the load, or assert on " +
                               thread.name + "." + instr.destReg;
            InstrRef ref;
            ref.thread = thread.name;
            ref.index = static_cast<int>(i);
            ref.sourceLine = instr.sourceLine;
            ref.text = instr.text.empty() ? instr.toString()
                                          : instr.text;
            d.where = {ref};
            result.diagnostics.push_back(std::move(d));
        }
    }

    // Canonical report order (diagnostic.hh): severity, stable ID,
    // primary location, message — fully deterministic, so lint output
    // is golden-file comparable.
    std::stable_sort(result.diagnostics.begin(),
                     result.diagnostics.end(), orderedBefore);

    if (obs::Session *s = obs::current()) {
        obs::MetricsRegistry &m = s->metrics;
        m.add("analysis.runs");
        m.add("analysis.errors", result.count(Severity::Error));
        m.add("analysis.warnings", result.count(Severity::Warning));
        m.add("analysis.notes", result.count(Severity::Note));
        if (result.mixedProxies)
            m.add("analysis.mixed_proxy_tests");
    }
    return result;
}

} // namespace mixedproxy::analysis
