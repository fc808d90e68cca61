/**
 * @file
 * The sequentially consistent executor over a Program's events.
 *
 * An SC machine runs one instruction at a time over one coherent
 * memory: a read takes the latest live write to its physical location,
 * fences and proxies order nothing further, and a bar.sync waits for
 * its CTA partners. The executor steps whole instruction groups (an
 * RMW's read and write, an async copy's read and write) so every run
 * is a real interleaving of instructions.
 *
 * Two callers share it: scOutcomes() walks every interleaving, which is
 * the synthesizer's SC reference ("weak" means PTX 7.5 admits an
 * outcome SC does not) and a test oracle (SC is a legal PTX
 * implementation, so its outcomes must be admitted); the static
 * pre-solver runs fixed schedules and has the axioms verify the
 * candidate each induces (candidate()).
 */

#ifndef MIXEDPROXY_MODEL_SC_HH
#define MIXEDPROXY_MODEL_SC_HH

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "litmus/outcome.hh"
#include "model/checker.hh"
#include "model/program.hh"

namespace mixedproxy::model {

/** SC execution state of one Program, advanced and undone a step at a time. */
class ScExecutor
{
  public:
    explicit ScExecutor(const Program &program);

    std::size_t threadCount() const { return groups.size(); }

    /** Instructions (event groups) of thread @p t. */
    std::size_t instructionCount(std::size_t t) const
    {
        return groups[t].size();
    }

    /**
     * May thread @p t execute its next instruction: it has one, and
     * when it is a bar.sync every Program::barrierSync() partner has
     * executed or is its own thread's next instruction.
     */
    bool ready(std::size_t t) const;

    /** True once every thread has executed every instruction. */
    bool finished() const { return log.size() == total; }

    /**
     * Execute thread @p t's next instruction, without a readiness
     * check. Write values come from the operands' defining reads
     * (Program::valueDef / expectedDef) and the RMW and async-copy
     * partners; a failed CAS writes nothing.
     */
    void step(std::size_t t);

    /** Take back the most recent step. */
    void undo();

    /**
     * The candidate execution the steps so far induce: each read's
     * source is the write it took, each location's coherence order is
     * the order its live writes executed in. Nothing here is trusted;
     * evaluateCandidate() verifies it against the axioms.
     */
    CandidateExecution candidate() const;

    /** Value of every executed event, by event id. */
    const std::vector<std::uint64_t> &values() const { return value; }

    /** The latest live write to @p loc (its init write at the start). */
    EventId lastWrite(LocationId loc) const
    {
        return last_write[static_cast<std::size_t>(loc)];
    }

  private:
    /** What step() changed, for undo() and candidate(). */
    struct Step
    {
        std::size_t thread;
        EventId write = Event::kNoPartner; ///< its live write, if any
        EventId previous = Event::kNoPartner; ///< lastWrite it replaced
    };

    const Program &program;
    /** Per thread, its instructions' [first, last) event ranges. */
    std::vector<std::vector<std::pair<EventId, EventId>>> groups;
    std::vector<std::size_t> group_of; ///< event -> index in its thread
    std::vector<std::size_t> next;     ///< per thread, next instruction
    std::size_t total = 0;             ///< instructions of all threads
    std::vector<std::uint64_t> value;
    std::vector<EventId> source;       ///< per read, the write it took
    std::vector<EventId> last_write;   ///< per location
    std::vector<Step> log;
};

/**
 * All outcomes of @p program under sequential consistency: an
 * exhaustive walk over the interleavings of its instructions,
 * deduplicated in the checker's OutcomeLayout. Fences are no-ops;
 * proxies and aliases resolve to the physical location, so the outcome
 * set is the same for either model's expansion.
 */
std::set<litmus::Outcome> scOutcomes(const Program &program);

} // namespace mixedproxy::model

#endif // MIXEDPROXY_MODEL_SC_HH
