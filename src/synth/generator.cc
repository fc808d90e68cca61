#include "generator.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <vector>

#include "model/checker.hh"
#include "model/sc.hh"
#include "obs/obs.hh"
#include "relation/error.hh"
#include "runtime/parallel.hh"
#include "synth/mutate.hh"
#include "synth/skeletons.hh"

namespace mixedproxy::synth {

namespace {

const char *kLocNames[2] = {"x", "y"};
const char *kAliasNames[2] = {"ax", "ay"};

/**
 * A pre-decoded instruction prototype for one (template, location)
 * pair. The PTX text of a materialized instruction is fixed up to the
 * embedded store value or destination register, so classification
 * decodes each pair once per run and materialization patches the one
 * variable field — replacing the per-candidate ostringstream +
 * decode() parse round-trip that dominated its profile.
 */
struct Proto
{
    enum class Patch { None, StoreValue, LoadReg };

    litmus::Instruction instr;
    Patch patch = Patch::None;
    std::string before; ///< text up to the patched field
    std::string after;  ///< text after the patched field
};

using ProtoTable = std::vector<std::array<Proto, 2>>;

ProtoTable
buildProtos(const std::vector<Template> &alpha)
{
    using K = Template::Kind;
    ProtoTable table(alpha.size());
    for (std::size_t ti = 0; ti < alpha.size(); ti++) {
        for (std::size_t loc = 0; loc < 2; loc++) {
            const std::string l = kLocNames[loc];
            const std::string a = kAliasNames[loc];
            Proto &p = table[ti][loc];
            switch (alpha[ti].kind) {
              case K::Store:
                p.patch = Proto::Patch::StoreValue;
                p.before = "st.global.u32 [" + l + "], ";
                break;
              case K::Load:
                p.patch = Proto::Patch::LoadReg;
                p.before = "ld.global.u32 ";
                p.after = ", [" + l + "]";
                break;
              case K::ReleaseStore:
                p.patch = Proto::Patch::StoreValue;
                p.before = "st.release.gpu.u32 [" + l + "], ";
                break;
              case K::AcquireLoad:
                p.patch = Proto::Patch::LoadReg;
                p.before = "ld.acquire.gpu.u32 ";
                p.after = ", [" + l + "]";
                break;
              case K::FenceAcqRel:
                p.before = "fence.acq_rel.gpu";
                break;
              case K::FenceSc:
                p.before = "fence.sc.gpu";
                break;
              case K::ConstLoad:
                p.patch = Proto::Patch::LoadReg;
                p.before = "ld.const.u32 ";
                p.after = ", [" + a + "]";
                break;
              case K::AliasStore:
                p.patch = Proto::Patch::StoreValue;
                p.before = "st.global.u32 [" + a + "], ";
                break;
              case K::AliasLoad:
                p.patch = Proto::Patch::LoadReg;
                p.before = "ld.global.u32 ";
                p.after = ", [" + a + "]";
                break;
              case K::ProxyFenceConstant:
                p.before = "fence.proxy.constant";
                break;
              case K::ProxyFenceAlias:
                p.before = "fence.proxy.alias";
                break;
              case K::AtomAdd:
                p.patch = Proto::Patch::LoadReg;
                p.before = "atom.add.u32 ";
                p.after = ", [" + l + "], 1";
                break;
              case K::AsyncCopy:
                // Copy from the other location into this one (self-copy
                // is a no-op and needs two locations to be interesting).
                p.before = "cp.async.ca.u32 [" + l + "], [" +
                           kLocNames[(loc + 1) % 2] + "]";
                break;
              case K::AsyncWait:
                p.before = "cp.async.wait_all";
                break;
              case K::Barrier:
                p.before = "bar.sync 0";
                break;
            }
            std::string sample;
            switch (p.patch) {
              case Proto::Patch::StoreValue:
                sample = p.before + "0";
                break;
              case Proto::Patch::LoadReg:
                sample = p.before + "r0" + p.after;
                break;
              case Proto::Patch::None:
                sample = p.before;
                break;
            }
            p.instr = litmus::decode(sample);
        }
    }
    return table;
}

/**
 * Materialize a skeleton as a LitmusTest; nullopt when the program is
 * not valid (e.g. mismatched barrier sequences within the CTA).
 */
std::optional<litmus::LitmusTest>
materialize(const Skeleton &program, const std::vector<Template> &alpha,
            const ProtoTable &protos, std::size_t index, bool same_cta)
{
    obs::Span span("synth.materialize");
    using K = Template::Kind;
    // Declare aliases for every location that an alias template uses.
    bool aliased[2] = {false, false};
    for (const auto &thread : program) {
        for (const auto &[tmpl, loc] : thread) {
            K kind = alpha[tmpl].kind;
            if (kind == K::ConstLoad || kind == K::AliasStore ||
                kind == K::AliasLoad) {
                aliased[loc] = true;
            }
        }
    }
    litmus::LitmusTest test("synth_" + std::to_string(index));
    for (std::size_t loc = 0; loc < 2; loc++) {
        if (aliased[loc])
            test.addAlias(kAliasNames[loc], kLocNames[loc]);
    }

    std::uint64_t next_value = 1;
    for (std::size_t t = 0; t < program.size(); t++) {
        litmus::Thread thread;
        // Append rather than operator+: GCC 12's -Wrestrict misfires on
        // literal + std::string&& under heavy inlining (GCC PR105651).
        thread.name = "t";
        thread.name += std::to_string(t);
        // Barriers only rendezvous within a CTA, so the barrier
        // alphabet co-locates all threads.
        thread.cta = same_cta ? 0 : static_cast<int>(t);
        thread.gpu = 0;
        std::size_t next_reg = 0;
        thread.instructions.reserve(program[t].size());
        for (const auto &[tmpl, loc] : program[t]) {
            const Proto &p = protos[tmpl][loc];
            litmus::Instruction instr = p.instr;
            switch (p.patch) {
              case Proto::Patch::StoreValue: {
                const std::uint64_t v = next_value++;
                instr.value = litmus::Operand::ofImm(v);
                instr.text = p.before + std::to_string(v);
                break;
              }
              case Proto::Patch::LoadReg: {
                std::string reg = "r" + std::to_string(next_reg++);
                instr.text = p.before + reg + p.after;
                instr.destReg = std::move(reg);
                break;
              }
              case Proto::Patch::None:
                break;
            }
            thread.instructions.push_back(std::move(instr));
        }
        test.addThread(std::move(thread));
    }
    try {
        test.validate();
    } catch (const FatalError &) {
        return std::nullopt;
    }
    return test;
}

} // namespace

SuiteWriter::SuiteWriter(std::string directory)
    : directory(std::move(directory))
{
    std::error_code ec;
    std::filesystem::create_directories(this->directory, ec);
    if (ec)
        fatal("cannot create suite directory '", this->directory, "'");
}

void
SuiteWriter::write(const SynthesizedTest &entry)
{
    std::filesystem::path path =
        std::filesystem::path(directory) / (entry.test.name() + ".litmus");
    std::ofstream out(path);
    if (!out)
        fatal("cannot write '", path.string(), "'");
    out << "# synthesized litmus test\n"
        << "#   weak (beyond SC):      " << (entry.weak ? "yes" : "no")
        << "\n"
        << "#   proxy-sensitive:       "
        << (entry.proxySensitive ? "yes" : "no") << "\n"
        << "#   fence-minimal:         "
        << (entry.fenceMinimal ? "yes" : "no") << "\n"
        << "#   ptx75/ptx60 outcomes:  " << entry.ptx75Outcomes << "/"
        << entry.ptx60Outcomes << "\n"
        << entry.test.toString();
    count++;
}

void
SynthStats::publish(obs::MetricsRegistry &registry) const
{
    registry.add("synth.enumerated", programsEnumerated);
    registry.add("synth.after_pruning", afterPruning);
    registry.add("synth.unique", uniquePrograms);
    registry.add("synth.checked", checked);
    registry.add("synth.skipped_too_expensive", skippedTooExpensive);
    registry.add("synth.weak", weak);
    registry.add("synth.proxy_sensitive", proxySensitive);
    if (fenceMinimalCounted)
        registry.add("synth.fence_minimal", fenceMinimal);
    registry.add("synth.presolve.pruned_ptx60", presolvePrunedPtx60);
    registry.add("synth.presolve.pruned_fence_checks",
                 presolvePrunedFenceChecks);
}

std::string
SynthReport::summary() const
{
    std::ostringstream os;
    os << "enumerated " << stats.programsEnumerated << ", pruned to "
       << stats.afterPruning << ", unique " << stats.uniquePrograms
       << ", checked " << stats.checked << " (skipped "
       << stats.skippedTooExpensive << "): weak " << stats.weak
       << ", proxy-sensitive " << stats.proxySensitive
       << ", fence-minimal "
       << (stats.fenceMinimalCounted ? std::to_string(stats.fenceMinimal)
                                     : "n/a")
       << " in " << stats.seconds << " s";
    return os.str();
}

Synthesizer::Synthesizer(SynthOptions options)
    : opts(std::move(options))
{
    if (opts.maxLocations < 1 || opts.maxLocations > 2)
        fatal("maxLocations must be 1 or 2");
    if (opts.instructions < 1)
        fatal("instructions must be at least 1");
    if (opts.maxThreads < 1)
        fatal("maxThreads must be at least 1");
}

namespace {

/**
 * Unique programs classified per chunk. The generator fills a chunk,
 * the workers classify it, and the fold streams it out before the next
 * one starts, so memory does not grow with the run.
 */
constexpr std::size_t kChunk = 4096;

/** A checker of one model with the synthesis budget. */
model::Checker
budgetedChecker(model::ProxyMode mode)
{
    return model::Checker({.mode = mode,
                           .collectWitnesses = false,
                           .maxExecutions = kMaxExecutionsPerCheck});
}

/** What checkBothModels found; only checked75 is set if tooExpensive. */
struct TwoModelVerdict
{
    bool checked75 = false;    ///< the PTX 7.5 check finished in budget
    bool tooExpensive = false; ///< a check exceeded its budget
    bool singleProxy = false;  ///< pruning answered the PTX 6.0 check
    std::set<litmus::Outcome> ptx75Outcomes;
    std::size_t ptx60Outcomes = 0;
    bool proxySensitive = false; ///< the two outcome sets differ
};

/**
 * The PTX 7.5 expansion of @p test, timed as one "check.expand" span as
 * the checker times its own.
 *
 * @throws FatalError if @p test does not expand.
 */
model::Program
expandPtx75(const litmus::LitmusTest &test)
{
    obs::Span expand_span("check.expand");
    return model::Program(test, model::ProxyMode::Ptx75);
}

/**
 * Check the PTX 7.5 expansion @p prog75 under PTX 7.5, then PTX 6.0,
 * each within kMaxExecutionsPerCheck: the PTX 6.0 check reads its
 * ptx60View(), or single-proxy pruning (docs/static_solver.md
 * "Synthesis pruning") answers it.
 */
TwoModelVerdict
checkBothModels(const model::Program &prog75)
{
    TwoModelVerdict verdict;
    // One static expansion serves both checks: the Program carries the
    // precomputed base layers (dep closure, must base causality) the
    // incremental enumeration core starts from, so expanding per model
    // would redo exactly the work the layering is meant to share. The
    // view is timed as the checker times its own expansion.
    auto r75 = budgetedChecker(model::ProxyMode::Ptx75).check(prog75);
    if (r75.budgetExceeded) {
        verdict.tooExpensive = true;
        return verdict;
    }
    verdict.checked75 = true;

    // Single-proxy pruning: a program all of whose accesses go through
    // one proxy is interpreted identically by both models — the same
    // fact the checker's single-proxy fast path rests on — so both
    // admit exactly r75's outcomes (and would enumerate the same
    // candidates, so the budget verdict matches too).
    verdict.singleProxy = !prog75.usesMixedProxies();
    if (verdict.singleProxy) {
        verdict.ptx60Outcomes = r75.outcomes.size();
    } else {
        std::optional<model::Program> prog60;
        {
            obs::Span expand_span("check.expand");
            prog60.emplace(prog75.ptx60View());
        }
        auto r60 = budgetedChecker(model::ProxyMode::Ptx60).check(*prog60);
        if (r60.budgetExceeded) {
            verdict.tooExpensive = true;
            return verdict;
        }
        verdict.ptx60Outcomes = r60.outcomes.size();
        verdict.proxySensitive = r60.outcomes != r75.outcomes;
    }
    verdict.ptx75Outcomes = std::move(r75.outcomes);
    return verdict;
}

/** What classifying one unique skeleton produced (default: counts nowhere). */
struct Classified
{
    bool checked75 = false;    ///< PTX 7.5 check finished in budget
    bool tooExpensive = false; ///< some check exceeded its budget
    std::uint64_t prunedPtx60 = 0;       ///< pruned PTX 6.0 checks
    std::uint64_t prunedFenceChecks = 0; ///< pruned fence rechecks
    SynthesizedTest entry; ///< the test is kept only if interesting
};

/**
 * @p test has a fence and removing any one changes its PTX 7.5 outcome
 * set. Sets c.tooExpensive when a recheck exceeds its budget.
 */
bool
everyFenceLoadBearing(const litmus::LitmusTest &test,
                      const TwoModelVerdict &verdict, Classified &c)
{
    const auto checker75 = budgetedChecker(model::ProxyMode::Ptx75);
    bool has_fence = false;
    for (std::size_t t = 0; t < test.threads().size(); t++) {
        const auto &instrs = test.threads()[t].instructions;
        for (std::size_t j = 0; j < instrs.size(); j++) {
            if (!instrs[j].isFence())
                continue;
            has_fence = true;
            if (verdict.singleProxy &&
                instrs[j].opcode == litmus::Opcode::FenceProxy) {
                // A proxy fence in a single-proxy program anchors no
                // release/acquire pattern and bridges no cross-proxy
                // pair: removing it provably leaves the outcome set
                // unchanged, which is exactly the recheck's break
                // condition.
                c.prunedFenceChecks++;
                return false;
            }
            auto reduced = checker75.check(withoutInstruction(test, t, j));
            c.tooExpensive = reduced.budgetExceeded;
            if (c.tooExpensive || reduced.outcomes == verdict.ptx75Outcomes)
                return false;
        }
    }
    return has_fence;
}

/**
 * Classify one materialized program as weak (against its SC outcomes),
 * proxy-sensitive and, with @p fenceMinimality, fence-minimal, from one
 * PTX 7.5 expansion. The test is kept in the entry only if interesting.
 */
Classified
classify(litmus::LitmusTest test, bool fenceMinimality)
{
    obs::Span check_span("synth.check");
    Classified c;
    try {
        const model::Program program = expandPtx75(test);
        const TwoModelVerdict verdict = checkBothModels(program);
        c.checked75 = verdict.checked75;
        c.tooExpensive = verdict.tooExpensive;
        if (c.tooExpensive)
            return c;
        c.prunedPtx60 = verdict.singleProxy ? 1 : 0;
        c.entry.ptx75Outcomes = verdict.ptx75Outcomes.size();
        c.entry.ptx60Outcomes = verdict.ptx60Outcomes;
        c.entry.proxySensitive = verdict.proxySensitive;

        std::set<litmus::Outcome> sc;
        {
            obs::Span sc_span("synth.sc");
            sc = model::scOutcomes(program);
        }
        c.entry.weak = std::any_of(
            verdict.ptx75Outcomes.begin(), verdict.ptx75Outcomes.end(),
            [&](const litmus::Outcome &o) { return !sc.count(o); });
        c.entry.fenceMinimal =
            fenceMinimality && everyFenceLoadBearing(test, verdict, c);
    } catch (const FatalError &) {
        c.tooExpensive = true;
    }
    if (!c.tooExpensive &&
        (c.entry.weak || c.entry.proxySensitive || c.entry.fenceMinimal))
        c.entry.test = std::move(test);
    return c;
}

} // namespace

void
Synthesizer::forEachProgram(
    const std::function<void(const litmus::LitmusTest &)> &visit) const
{
    const auto alpha = alphabet(opts);
    const ProtoTable protos = buildProtos(alpha);
    SkeletonGenerator generator(alpha, opts.instructions, opts.maxThreads,
                                opts.maxLocations);
    for (std::size_t index = 1; generator.next(); index++) {
        if (opts.maxUniquePrograms != 0 &&
            index > opts.maxUniquePrograms)
            break;
        if (auto test = materialize(generator.current(), alpha, protos,
                                    index, opts.withBarriers))
            visit(*test);
    }
}

SynthReport
Synthesizer::run() const
{
    obs::ScopedSession bind(opts.session);
    obs::Span span("synth");
    auto start = std::chrono::steady_clock::now();
    SynthReport report;
    const bool fence_minimality =
        opts.classifyFenceMinimal &&
        opts.instructions <= kMaxFenceMinimalInstructions;
    report.stats.fenceMinimalCounted = fence_minimality;
    const auto alpha = alphabet(opts);
    const ProtoTable protos = buildProtos(alpha);

    // Serial orderly generation feeds fixed-size chunks; each chunk is
    // classified in parallel, folded in index order, then reused.
    SkeletonGenerator generator(alpha, opts.instructions, opts.maxThreads,
                                opts.maxLocations);
    std::vector<Skeleton> chunk(kChunk);
    std::vector<Classified> classified(kChunk);
    std::size_t filled = 0;
    auto flush = [&] {
        const std::size_t base = report.stats.uniquePrograms - filled;
        runtime::parallelFor(filled, opts.jobs, [&](std::size_t i) {
            auto test = materialize(chunk[i], alpha, protos, base + i + 1,
                                    opts.withBarriers);
            classified[i] = test ? classify(std::move(*test),
                                            fence_minimality)
                                 : Classified();
        });
        for (std::size_t i = 0; i < filled; i++) {
            Classified &c = classified[i];
            if (c.checked75)
                report.stats.checked++;
            report.stats.presolvePrunedPtx60 += c.prunedPtx60;
            report.stats.presolvePrunedFenceChecks += c.prunedFenceChecks;
            if (c.tooExpensive) {
                report.stats.skippedTooExpensive++;
                continue;
            }
            if (c.entry.weak)
                report.stats.weak++;
            if (c.entry.proxySensitive)
                report.stats.proxySensitive++;
            if (c.entry.fenceMinimal)
                report.stats.fenceMinimal++;
            if (!c.entry.weak && !c.entry.proxySensitive &&
                !c.entry.fenceMinimal)
                continue;
            if (opts.sink)
                opts.sink(std::move(c.entry));
        }
        filled = 0;
    };
    while (generator.next()) {
        // Past the cap the walk continues only to count.
        if (opts.maxUniquePrograms != 0 &&
            report.stats.uniquePrograms == opts.maxUniquePrograms)
            continue;
        chunk[filled++] = generator.current();
        report.stats.uniquePrograms++;
        if (filled == kChunk)
            flush();
    }
    flush();
    report.stats.programsEnumerated = generator.enumerated();
    report.stats.afterPruning = generator.afterPruning();

    auto end = std::chrono::steady_clock::now();
    report.stats.seconds =
        std::chrono::duration<double>(end - start).count();
    if (obs::Session *session = obs::current())
        report.stats.publish(session->metrics);
    return report;
}

} // namespace mixedproxy::synth
