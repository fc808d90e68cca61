#include "presolve.hh"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <vector>

#include "approx.hh"
#include "litmus/expr.hh"
#include "obs/obs.hh"
#include "relation/relation.hh"

namespace mixedproxy::analysis::presolve {

using model::CandidateExecution;
using model::Event;
using model::LocationId;
using model::Program;
using model::StaticAssertionVerdict;
using model::StaticDischarge;
using relation::EventId;
using relation::Relation;

namespace {

// ---------------------------------------------------------------------
// Witness side: deterministic SC interleavings, verified exactly by the
// checker's own axiom core (model::evaluateCandidate).
// ---------------------------------------------------------------------

/**
 * The value a write event carries in every execution, when that value
 * is statically determined: immediate stores, immediate atomic
 * exchanges, the success value of an immediate CAS, and init writes.
 * Register-operand stores, atomic adds and async copies depend on the
 * execution; they return nullopt and make the refutation engine bail.
 */
std::optional<std::uint64_t>
staticWriteValue(const Program &program, const Event &e)
{
    if (e.isInit)
        return program.initValue(e.location);
    if (e.isAsyncCopy() || !e.instr)
        return std::nullopt;
    const auto *instr = e.instr;
    if (e.isAtomic()) {
        switch (instr->atomOp) {
          case litmus::AtomOp::Add:
            return std::nullopt;
          case litmus::AtomOp::Exch:
          case litmus::AtomOp::Cas:
            if (instr->value.isImm())
                return instr->value.imm;
            return std::nullopt;
        }
        return std::nullopt;
    }
    if (instr->value.isImm())
        return instr->value.imm;
    return std::nullopt;
}

/**
 * One thread's events grouped per instruction, in program order. The
 * scheduler interleaves whole groups so an RMW's read and write (and
 * an async copy's fork) stay adjacent — every schedule is a real SC
 * interleaving of instructions.
 */
std::vector<std::vector<std::vector<EventId>>>
instructionGroups(const Program &program)
{
    const auto &events = program.events();
    int max_thread = -1;
    for (const Event &e : events) {
        if (!e.isInit)
            max_thread = std::max(max_thread, e.thread);
    }
    std::vector<std::vector<std::vector<EventId>>> threads(
        static_cast<std::size_t>(max_thread + 1));
    for (const Event &e : events) {
        if (e.isInit)
            continue;
        auto &groups = threads[static_cast<std::size_t>(e.thread)];
        if (groups.empty() ||
            events[groups.back().back()].instrIndex != e.instrIndex) {
            groups.push_back({e.id});
        } else {
            groups.back().push_back(e.id);
        }
    }
    return threads;
}

/**
 * Run one SC interleaving operationally and emit the candidate it
 * induces: each read observes the latest write to its location, each
 * location's coherence order is write-execution order. Nothing here is
 * trusted — the caller verifies the candidate against the axioms.
 */
CandidateExecution
simulate(const Program &program, const std::vector<EventId> &schedule)
{
    const auto &events = program.events();
    std::vector<std::uint64_t> value(events.size(), 0);
    std::vector<EventId> last_writer(program.locationCount());
    for (LocationId loc = 0;
         loc < static_cast<LocationId>(program.locationCount()); loc++) {
        EventId init = program.initWrite(loc);
        last_writer[static_cast<std::size_t>(loc)] = init;
        value[init] = program.initValue(loc);
    }

    CandidateExecution cand;
    auto operand = [&](const Event &e, const litmus::Operand &op,
                       EventId def) -> std::uint64_t {
        if (op.isImm())
            return op.imm;
        if (!op.isReg())
            panic("operand of ", e.toString(), " has no value");
        return value[def];
    };

    for (EventId id : schedule) {
        const Event &e = events[id];
        if (e.isRead()) {
            EventId src =
                last_writer[static_cast<std::size_t>(e.location)];
            value[id] = value[src];
            cand.sourceOf[id] = src;
            continue;
        }
        if (!e.isWrite())
            continue;
        auto value_operand = [&] {
            return operand(e, e.instr->value, program.valueDef(id));
        };
        bool live = true;
        if (e.isAsyncCopy()) {
            value[id] = value[e.asyncCopyPartner];
        } else if (e.isAtomic()) {
            std::uint64_t read_value = value[e.rmwPartner];
            switch (e.instr->atomOp) {
              case litmus::AtomOp::Add:
                value[id] = read_value + value_operand();
                break;
              case litmus::AtomOp::Exch:
                value[id] = value_operand();
                break;
              case litmus::AtomOp::Cas:
                if (read_value == operand(e, e.instr->expected,
                                          program.expectedDef(id)))
                    value[id] = value_operand();
                else
                    live = false; // failed CAS writes nothing
                break;
            }
        } else {
            value[id] = value_operand();
        }
        if (live) {
            last_writer[static_cast<std::size_t>(e.location)] = id;
            cand.coOrders[e.location].push_back(id);
        }
    }
    return cand;
}

/**
 * The deterministic schedule family: each thread sequentially (in
 * order and reversed), plus a round-robin interleaving one instruction
 * at a time. Cheap, reproducible, and in practice enough to witness
 * the common "all program order" and "message passing" outcomes.
 */
std::vector<std::vector<EventId>>
schedules(const Program &program)
{
    auto threads = instructionGroups(program);
    std::vector<std::vector<EventId>> out;

    auto sequential = [&](bool reversed) {
        std::vector<EventId> s;
        for (std::size_t i = 0; i < threads.size(); i++) {
            const auto &groups =
                threads[reversed ? threads.size() - 1 - i : i];
            for (const auto &group : groups)
                s.insert(s.end(), group.begin(), group.end());
        }
        return s;
    };
    out.push_back(sequential(false));
    out.push_back(sequential(true));

    std::vector<EventId> rr;
    std::vector<std::size_t> next(threads.size(), 0);
    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (std::size_t t = 0; t < threads.size(); t++) {
            if (next[t] >= threads[t].size())
                continue;
            const auto &group = threads[t][next[t]++];
            rr.insert(rr.end(), group.begin(), group.end());
            progressed = true;
        }
    }
    out.push_back(std::move(rr));
    return out;
}

/** Verified outcomes of the schedule family (may be empty). */
std::set<litmus::Outcome>
witnessOutcomes(const Program &program)
{
    std::set<litmus::Outcome> out;
    for (const auto &schedule : schedules(program)) {
        CandidateExecution cand = simulate(program, schedule);
        if (auto outcome = model::evaluateCandidate(program, cand)) {
            out.insert(*outcome);
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Refutation side: finite value domains + constraint propagation.
// ---------------------------------------------------------------------

/** One variable of a condition, with its finite value domain. */
struct Var
{
    bool isMem = false;
    std::string thread; ///< reg var: thread name
    std::string reg;    ///< reg var: register name
    std::string loc;    ///< mem var: location name
    EventId defRead = 0;     ///< reg var: the defining read event
    LocationId locId = 0;    ///< mem var: the location
    std::vector<std::uint64_t> domain; ///< sorted, unique
};

/**
 * Collect the condition's variables and their domains. Returns nullopt
 * when any variable is unresolvable or its domain is not statically
 * bounded — the refutation engine is then inconclusive.
 */
std::optional<std::vector<Var>>
collectVars(const Program &program, const litmus::ExprPtr &condition)
{
    const auto &events = program.events();
    std::map<std::string, Var> vars; // keyed for determinism
    bool bounded = true;

    condition->forEachRegRef([&](const std::string &thread,
                                 const std::string &reg) {
        std::string key = "R:" + thread + "." + reg;
        if (vars.count(key))
            return;
        // The outcome reports the po-last read defining the register
        // (outcome extraction overwrites in event-id order).
        bool found = false;
        EventId def = 0;
        for (EventId r : program.reads()) {
            if (events[r].threadName == thread &&
                events[r].destReg == reg) {
                def = r;
                found = true;
            }
        }
        if (!found) {
            bounded = false;
            return;
        }
        Var v;
        v.isMem = false;
        v.thread = thread;
        v.reg = reg;
        v.defRead = def;
        for (EventId w : program.readSources(def)) {
            auto value = staticWriteValue(program, events[w]);
            if (!value) {
                bounded = false;
                return;
            }
            v.domain.push_back(*value);
        }
        std::sort(v.domain.begin(), v.domain.end());
        v.domain.erase(std::unique(v.domain.begin(), v.domain.end()),
                       v.domain.end());
        vars.emplace(std::move(key), std::move(v));
    });

    condition->forEachMemRef([&](const std::string &loc) {
        std::string key = "M:" + loc;
        if (vars.count(key))
            return;
        bool found = false;
        LocationId loc_id = 0;
        for (LocationId l = 0;
             l < static_cast<LocationId>(program.locationCount());
             l++) {
            if (program.locationName(l) == loc) {
                loc_id = l;
                found = true;
            }
        }
        if (!found) {
            bounded = false;
            return;
        }
        Var v;
        v.isMem = true;
        v.loc = loc;
        v.locId = loc_id;
        v.domain.push_back(program.test().initOf(loc));
        for (EventId w : program.writesAt(loc_id)) {
            auto value = staticWriteValue(program, events[w]);
            if (!value) {
                bounded = false;
                return;
            }
            v.domain.push_back(*value);
        }
        std::sort(v.domain.begin(), v.domain.end());
        v.domain.erase(std::unique(v.domain.begin(), v.domain.end()),
                       v.domain.end());
        vars.emplace(std::move(key), std::move(v));
    });

    if (!bounded)
        return std::nullopt;
    std::vector<Var> out;
    out.reserve(vars.size());
    for (auto &[key, v] : vars)
        out.push_back(std::move(v));
    return out;
}

/**
 * True when @p e is live in every candidate execution (the liveness
 * vector only kills failed-CAS writes).
 */
bool
alwaysLive(const Event &e)
{
    if (!e.isWrite() || !e.isAtomic() || !e.instr)
        return true;
    return e.instr->atomOp != litmus::AtomOp::Cas;
}

/**
 * Try to refute one value assignment: prove that no consistent
 * execution gives the condition's variables exactly these values.
 *
 * The engine is an arc-consistency fixpoint over per-read feasible
 * source sets. Forced reads-from edges (singleton source sets) induce
 * synchronizes-with edges every realizing execution must contain;
 * their causality closure then kills sources the Causality axiom
 * rejects; an emptied set refutes the assignment. Everything derived
 * here is a *subset* of the corresponding relation of every realizing
 * execution, so a kill is always justified (docs/static_solver.md
 * gives the full soundness argument).
 */
bool
refuteAssignment(const Program &program, const std::vector<Var> &vars,
                 const std::vector<std::uint64_t> &assignment)
{
    const auto &events = program.events();
    const std::size_t n = events.size();

    // Feasible source sets, seeded from the enumerable sources and
    // narrowed by the register-variable value constraints.
    std::map<EventId, std::vector<EventId>> feasible;
    for (EventId r : program.reads())
        feasible[r] = program.readSources(r);

    // Candidate final writes per constrained location (the init write
    // is represented by the location's init event).
    std::map<LocationId, std::vector<EventId>> final_candidates;

    for (std::size_t i = 0; i < vars.size(); i++) {
        const Var &v = vars[i];
        std::uint64_t want = assignment[i];
        if (!v.isMem) {
            auto &sources = feasible[v.defRead];
            sources.erase(
                std::remove_if(
                    sources.begin(), sources.end(),
                    [&](EventId w) {
                        auto value =
                            staticWriteValue(program, events[w]);
                        return !value || *value != want;
                    }),
                sources.end());
            if (sources.empty())
                return true;
            continue;
        }
        auto &finals = final_candidates[v.locId];
        EventId init = program.initWrite(v.locId);
        if (program.test().initOf(v.loc) == want)
            finals.push_back(init);
        for (EventId w : program.writesAt(v.locId)) {
            auto value = staticWriteValue(program, events[w]);
            if (value && *value == want)
                finals.push_back(w);
        }
        if (finals.empty())
            return true;
    }

    // Arc-consistency fixpoint.
    for (;;) {
        // Forced reads-from edges and the liveness they guarantee.
        std::map<EventId, EventId> forced_src;
        std::vector<char> forced_live(n, 0);
        for (const auto &[r, sources] : feasible) {
            if (sources.size() == 1) {
                forced_src[r] = sources.front();
                forced_live[sources.front()] = 1;
            }
        }
        auto live_guaranteed = [&](const Event &e) {
            return alwaysLive(e) || forced_live[e.id];
        };

        // Forced observation order: forced morally strong reads-from.
        // (The RMW-chain extension is skipped — under-approximating
        // obs only weakens the kills, never unsoundly strengthens.)
        Relation forced_obs(n);
        for (const auto &[r, w] : forced_src) {
            if (!events[w].isInit &&
                program.morallyStrong().contains(w, r)) {
                forced_obs.insert(w, r);
            }
        }

        // Forced synchronizes-with: release/acquire patterns realized
        // by forced observation edges (the release write is live in
        // every realizing execution — something reads it).
        Relation forced_sw(n);
        for (const auto &rel : program.releasePatterns()) {
            const Event &first = events[rel.first];
            for (const auto &acq : program.acquirePatterns()) {
                const Event &last = events[acq.last];
                if (forced_obs.contains(rel.write, acq.read) &&
                    program.scopeIncludes(first, last.thread) &&
                    program.scopeIncludes(last, first.thread)) {
                    forced_sw.insert(rel.first, acq.last);
                }
            }
        }

        // The causality edges every realizing execution contains:
        // forced base causality, pushed through the §6.2.4 proxy
        // clauses (monotone, so the subset argument carries through),
        // restricted to events whose liveness is guaranteed.
        Relation cond_bcause = (program.po() | program.barrierSync() |
                                forced_sw)
                                   .transitiveClosure();
        Relation cond_ppbc(n);
        for (const Event &x : events) {
            if (!x.isMemory() || x.isInit || !live_guaranteed(x))
                continue;
            for (const Event &y : events) {
                if (!y.isMemory() || y.isInit || !live_guaranteed(y))
                    continue;
                if (!cond_bcause.contains(x.id, y.id))
                    continue;
                if (!program.overlaps(x, y))
                    continue;
                const bool x_generic =
                    x.proxy.kind == litmus::ProxyKind::Generic;
                const bool y_generic =
                    y.proxy.kind == litmus::ProxyKind::Generic;
                bool ordered = false;
                if (x_generic && y_generic && x.address == y.address)
                    ordered = true;
                if (!ordered && x.proxy == y.proxy &&
                    x.address == y.address && x.cta == y.cta &&
                    x.gpu == y.gpu) {
                    ordered = true;
                }
                if (!ordered &&
                    model::proxyFenceBridged(program, cond_bcause, x,
                                             y)) {
                    ordered = true;
                }
                if (ordered)
                    cond_ppbc.insert(x.id, y.id);
            }
        }
        Relation cond_cause =
            cond_ppbc | forced_obs.compose(cond_ppbc);

        // Kill sources the Causality axiom rejects in every realizing
        // execution.
        bool changed = false;
        for (auto &[r, sources] : feasible) {
            const Event &read = events[r];
            auto killed = [&](EventId w) {
                // Causality (a): the read cannot causally precede its
                // own source.
                if (cond_cause.contains(r, w))
                    return true;
                // Causality (b): some guaranteed-live write w2 at the
                // same location causally precedes the read while being
                // coherence-younger than w (init is coherence-first;
                // coherence embeds causality between live writes).
                for (EventId w2 : program.writesAt(read.location)) {
                    if (w2 == w || !live_guaranteed(events[w2]))
                        continue;
                    if (!cond_cause.contains(w2, r))
                        continue;
                    if (events[w].isInit ||
                        cond_cause.contains(w, w2)) {
                        return true;
                    }
                }
                return false;
            };
            auto it = std::remove_if(sources.begin(), sources.end(),
                                     killed);
            if (it != sources.end()) {
                sources.erase(it, sources.end());
                changed = true;
                if (sources.empty())
                    return true;
            }
        }

        // Kill final-write candidates that cannot be coherence-last.
        for (auto &[loc, finals] : final_candidates) {
            auto killed = [&](EventId w) {
                for (EventId w2 : program.writesAt(loc)) {
                    if (w2 == w || !live_guaranteed(events[w2]))
                        continue;
                    if (events[w].isInit ||
                        cond_cause.contains(w, w2)) {
                        return true;
                    }
                }
                return false;
            };
            auto it =
                std::remove_if(finals.begin(), finals.end(), killed);
            if (it != finals.end()) {
                finals.erase(it, finals.end());
                changed = true;
                if (finals.empty())
                    return true;
            }
        }

        if (!changed)
            return false; // fixpoint reached without a contradiction
    }
}

/**
 * Prove that no consistent execution satisfies @p condition: every
 * satisfying assignment of the finite variable domains is refuted.
 * Returns false (inconclusive) when the domains are unbounded or the
 * assignment budget is exceeded — never unsoundly.
 */
bool
unsatisfiable(const Program &program, const litmus::ExprPtr &condition)
{
    auto vars = collectVars(program, condition);
    if (!vars)
        return false;

    std::uint64_t combos = 1;
    for (const Var &v : vars.value()) {
        if (v.domain.empty())
            return false;
        if (combos > kMaxAssignments / v.domain.size())
            return false;
        combos *= v.domain.size();
    }

    std::vector<std::size_t> index(vars->size(), 0);
    for (;;) {
        std::vector<std::uint64_t> assignment(vars->size());
        litmus::Outcome outcome;
        for (std::size_t i = 0; i < vars->size(); i++) {
            const Var &v = (*vars)[i];
            assignment[i] = v.domain[index[i]];
            if (v.isMem)
                outcome.memory[v.loc] = assignment[i];
            else
                outcome.registers[v.thread + "." + v.reg] =
                    assignment[i];
        }
        if (condition->evalBool(outcome) &&
            !refuteAssignment(program, *vars, assignment)) {
            return false;
        }
        // Advance the odometer.
        std::size_t i = 0;
        for (; i < index.size(); i++) {
            if (++index[i] < (*vars)[i].domain.size())
                break;
            index[i] = 0;
        }
        if (i == index.size())
            break;
    }
    return true;
}

/**
 * Validate that every variable of @p condition resolves against the
 * program (defined register, known location) — the witness evaluation
 * path requires it, and the enumerating checker would fatal on such a
 * condition anyway.
 */
bool
varsResolve(const Program &program, const litmus::ExprPtr &condition)
{
    const auto &events = program.events();
    bool ok = true;
    condition->forEachRegRef([&](const std::string &thread,
                                 const std::string &reg) {
        bool found = false;
        for (EventId r : program.reads()) {
            if (events[r].threadName == thread &&
                events[r].destReg == reg) {
                found = true;
            }
        }
        ok = ok && found;
    });
    condition->forEachMemRef([&](const std::string &loc) {
        bool found = false;
        for (LocationId l = 0;
             l < static_cast<LocationId>(program.locationCount());
             l++) {
            if (program.locationName(l) == loc)
                found = true;
        }
        ok = ok && found;
    });
    return ok;
}

StaticAssertionVerdict
inconclusive()
{
    StaticAssertionVerdict v;
    v.conclusive = false;
    v.method = "inconclusive";
    return v;
}

StaticAssertionVerdict
conclusive(bool passed, const char *method, std::string detail)
{
    StaticAssertionVerdict v;
    v.conclusive = true;
    v.passed = passed;
    v.method = method;
    v.detail = std::move(detail);
    return v;
}

/** Decide one assertion from the witness set and the UNSAT oracle. */
StaticAssertionVerdict
solveAssertion(const Program &program, const litmus::Assertion &a,
               const std::set<litmus::Outcome> &witnesses)
{
    if (!varsResolve(program, a.condition))
        return inconclusive();

    auto witness_satisfying =
        [&](const litmus::ExprPtr &cond) -> const litmus::Outcome * {
        for (const auto &w : witnesses) {
            if (cond->evalBool(w))
                return &w;
        }
        return nullptr;
    };

    switch (a.kind) {
      case litmus::AssertKind::Forbid: {
        if (const auto *w = witness_satisfying(a.condition)) {
            return conclusive(false, "witness",
                              "observed: " + w->toString());
        }
        if (unsatisfiable(program, a.condition)) {
            return conclusive(true, "unsat",
                              "no candidate execution satisfies it");
        }
        return inconclusive();
      }
      case litmus::AssertKind::Permit: {
        if (const auto *w = witness_satisfying(a.condition)) {
            return conclusive(true, "witness",
                              "witnessed: " + w->toString());
        }
        if (unsatisfiable(program, a.condition)) {
            return conclusive(false, "unsat",
                              "no candidate execution satisfies it");
        }
        return inconclusive();
      }
      case litmus::AssertKind::Require: {
        auto negated = litmus::Expr::logicalNot(a.condition);
        if (const auto *w = witness_satisfying(negated)) {
            return conclusive(false, "witness",
                              "counterexample: " + w->toString());
        }
        if (!witnesses.empty() &&
            unsatisfiable(program, negated)) {
            return conclusive(
                true, "unsat",
                "negation unsatisfiable and a consistent execution "
                "exists");
        }
        return inconclusive();
      }
    }
    return inconclusive();
}

} // namespace

StaticDischarge
StaticSolver::presolve(const Program &program) const
{
    StaticDischarge out;
    const auto &asserts = program.test().assertions();
    if (asserts.empty())
        return out; // nothing to discharge; let enumeration report

    std::set<litmus::Outcome> witnesses = witnessOutcomes(program);

    out.discharged = true;
    for (const auto &assertion : asserts) {
        StaticAssertionVerdict v =
            solveAssertion(program, assertion, witnesses);
        out.discharged = out.discharged && v.conclusive;
        out.assertions.push_back(std::move(v));
    }
    return out;
}

} // namespace mixedproxy::analysis::presolve
