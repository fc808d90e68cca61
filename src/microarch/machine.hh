/**
 * @file
 * The operational GPU machine: SMs with non-coherent special-purpose
 * caches in front of a shared L2 (paper Figs. 3, 4 and 6).
 *
 * The machine is deterministic: it exposes the set of currently enabled
 * actions (thread steps and store-queue drains) and executes whichever
 * one the caller picks. The Simulator drives it with a seeded RNG; unit
 * tests drive it with hand-picked schedules to reproduce the paper's
 * scenarios exactly (e.g. Fig. 4 path 3b).
 */

#ifndef MIXEDPROXY_MICROARCH_MACHINE_HH
#define MIXEDPROXY_MICROARCH_MACHINE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "litmus/outcome.hh"
#include "litmus/test.hh"
#include "microarch/cache.hh"

namespace mixedproxy::conform {
class TraceWriter;
}

namespace mixedproxy::microarch {

/** Which microarchitecture variant to simulate (DESIGN.md E8/E9). */
enum class CoherenceMode {
    /** The shipped design: non-coherent proxy paths + proxy fences. */
    Proxy,
    /**
     * §4.2 "just make everything coherent": physically tagged caches
     * with store-driven invalidation; correct without proxy fences but
     * pays translation latency and invalidation traffic on every access.
     */
    FullyCoherent,
    /**
     * §4.3 "reuse existing synchronization": generic fences and
     * release/acquire operations also flush and invalidate every proxy
     * path, inflating the cost of ordinary synchronization.
     */
    FenceReuse,
};

std::string toString(CoherenceMode mode);

/** Simulated-latency and traffic counters. */
struct MachineStats
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t texHits = 0;
    std::uint64_t texMisses = 0;
    std::uint64_t constHits = 0;
    std::uint64_t constMisses = 0;
    std::uint64_t l2Reads = 0;
    std::uint64_t l2Writes = 0;
    std::uint64_t drains = 0;
    std::uint64_t invalidatedLines = 0;
    std::uint64_t translations = 0;      ///< coherent-mode VA->PA lookups
    std::uint64_t fenceDrains = 0;       ///< drains charged to fences
    std::uint64_t fenceInvalidations = 0;///< invalidations charged to them
    std::uint64_t totalLatency = 0;      ///< simulated cycles

    MachineStats &operator+=(const MachineStats &other);
};

/** Simulated latencies (cycles), loosely GPU-shaped. */
namespace latency {
inline constexpr std::uint64_t l1Hit = 30;
inline constexpr std::uint64_t texHit = 40;
inline constexpr std::uint64_t constHit = 10;
inline constexpr std::uint64_t l2 = 200;
inline constexpr std::uint64_t drain = 60;
inline constexpr std::uint64_t invalidatePerLine = 5;
inline constexpr std::uint64_t translation = 25;
inline constexpr std::uint64_t fence = 20;
} // namespace latency

/** One enabled scheduler action. */
struct Action
{
    enum class Kind {
        ThreadStep,
        DrainGeneric,
        DrainSurface,
        AsyncCopy,
        WritebackL2, ///< flush one dirty L2 line to system memory
    };

    Kind kind = Kind::ThreadStep;
    std::size_t thread = 0; ///< ThreadStep only
    std::size_t sm = 0;     ///< Drain*/AsyncCopy: SM; WritebackL2: GPU
    VirtualTag tag = -1;    ///< Drain*: tag; AsyncCopy: sequence;
                            ///< WritebackL2: physical location

    std::string toString() const;
};

/** The operational machine for one litmus test. */
class Machine
{
  public:
    Machine(const litmus::LitmusTest &test,
            CoherenceMode mode = CoherenceMode::Proxy);

    /**
     * Machines are value types (exhaustive exploration forks them);
     * copies re-anchor the internal test pointer at their own copy.
     */
    Machine(const Machine &other);
    Machine &operator=(const Machine &other);

    /** All currently enabled actions (empty iff execution finished). */
    std::vector<Action> actions() const;

    /** Execute one action. */
    void execute(const Action &action);

    /** True when all threads retired and all queues drained. */
    bool finished() const;

    /** True when no action is enabled yet execution is incomplete. */
    bool deadlocked() const;

    /** Registers and final memory; panics unless finished(). */
    litmus::Outcome outcome() const;

    const MachineStats &stats() const { return _stats; }

    /** Number of SMs instantiated (one per CTA). */
    std::size_t smCount() const { return sms.size(); }

    CoherenceMode mode() const { return _mode; }

    /**
     * Attach a mixedproxy.trace.v1 writer and emit the trace header.
     * Must be called before the first execute(); the writer must
     * outlive the machine's run. Copies of a tracing machine do not
     * inherit the tracer (exhaustive exploration forks machines, and a
     * forked emission stream would interleave incompatible histories).
     * The caller emits the footer (TraceWriter::finish) once the run
     * completes.
     */
    void setTracer(conform::TraceWriter *writer);

  private:
    /** An in-flight asynchronous copy (extension, §3.1.4). */
    struct AsyncCopy
    {
        VirtualTag srcTag = -1;
        PhysicalTag srcLoc = -1;
        VirtualTag dstTag = -1;
        PhysicalTag dstLoc = -1;
        int sequence = -1;
        std::size_t thread = 0; ///< issuing thread, for the trace
    };

    struct Sm
    {
        Cache l1{"l1"};
        Cache tex{"tex"};
        Cache constCache{"const"};
        StoreQueue genericQueue;
        StoreQueue surfaceQueue;
        std::vector<AsyncCopy> asyncQueue;
        int gpu = 0;
    };

    struct ThreadState
    {
        std::size_t sm = 0;
        std::size_t pc = 0;
        std::size_t barriersPassed = 0;
        std::map<std::string, std::uint64_t> registers;
    };

    /** One per-GPU L2 line over the system-memory backing store. */
    struct L2Line
    {
        std::uint64_t value = 0;
        bool present = false;
        bool dirty = false;

        /** Trace identity of the held value's write (0 if untraced). */
        std::uint64_t writerUid = 0;
    };

    VirtualTag tagOf(const std::string &va) const;
    PhysicalTag locOf(const std::string &va) const;
    std::size_t gpuOf(std::size_t sm) const;

    std::uint64_t operandValue(const ThreadState &thread,
                               const litmus::Operand &op) const;

    void stepThread(std::size_t index);
    void drain(std::size_t sm, bool surface, VirtualTag tag);
    void drainQueueFully(std::size_t sm, bool surface, bool for_fence);
    void drainQueueTagFully(std::size_t sm, bool surface, VirtualTag tag);
    void applyStoreToL2(std::size_t sm, const PendingStore &store);

    std::uint64_t readL2(std::size_t sm, PhysicalTag location,
                         std::uint64_t *writer_out = nullptr);
    void writeL2(std::size_t sm, PhysicalTag location, VirtualTag tag,
                 std::uint64_t value, std::uint64_t writerUid);
    void writebackLine(std::size_t gpu, PhysicalTag location);
    void writebackAllDirty(std::size_t gpu);
    void invalidateCleanL2(std::size_t gpu);
    std::uint64_t atomicAtSysmem(std::size_t sm, PhysicalTag location,
                                 std::uint64_t new_value, bool do_write,
                                 std::uint64_t writerUid = 0,
                                 std::uint64_t *old_writer = nullptr);
    void coherentInvalidate(std::size_t writer_sm, PhysicalTag location);

    std::uint64_t genericLoad(ThreadState &thread,
                              const litmus::Instruction &instr);
    void genericStore(ThreadState &thread,
                      const litmus::Instruction &instr);
    void atomic(ThreadState &thread, const litmus::Instruction &instr);
    std::uint64_t proxyCacheLoad(ThreadState &thread, Cache &cache,
                                 const litmus::Instruction &instr,
                                 std::uint64_t hit_latency,
                                 std::uint64_t &hits,
                                 std::uint64_t &misses);
    void surfaceStore(ThreadState &thread,
                      const litmus::Instruction &instr);
    void fence(ThreadState &thread, const litmus::Instruction &instr);
    void proxyFence(ThreadState &thread,
                    const litmus::Instruction &instr);
    bool barrierReady(std::size_t thread_index) const;
    void issueAsyncCopy(ThreadState &thread,
                        const litmus::Instruction &instr);
    void performAsyncCopy(std::size_t sm, int sequence);
    void asyncFenceAt(std::size_t sm, bool charge_fence);

    /** SMs a proxy fence of @p scope executed on @p sm reaches. */
    std::vector<std::size_t> smsInScope(std::size_t sm,
                                        litmus::Scope scope) const;

    void acquireInvalidate(std::size_t sm);
    void releaseDrain(std::size_t sm);

    /** Owned copy: the machine outlives the caller's argument. */
    litmus::LitmusTest testCopy;
    const litmus::LitmusTest *test; ///< points at testCopy
    CoherenceMode _mode;

    std::map<std::string, VirtualTag> tags;
    std::map<std::string, PhysicalTag> locs;
    std::vector<std::string> locNames;
    std::map<VirtualTag, PhysicalTag> tagToLoc;

    /** System memory, by PhysicalTag: the global point of coherence. */
    std::vector<std::uint64_t> sysmem;

    /**
     * Trace identity of the write holding each sysmem value. Location
     * i starts at uid i (the schema's implicit init write).
     */
    std::vector<std::uint64_t> sysmemUid;

    /** Per-GPU L2 caches over sysmem: l2[gpu][location]. */
    std::vector<std::vector<L2Line>> l2;

    /** Dense GPU index per litmus gpu id. */
    std::map<int, std::size_t> gpuIndex;

    std::vector<Sm> sms;
    std::vector<ThreadState> threads;
    int nextAsyncSequence = 0;

    /**
     * Attached interchange-trace writer (not owned; null when the run
     * is untraced). Deliberately not copied — see setTracer().
     */
    conform::TraceWriter *tracer = nullptr;

    /** Index of @p thread within threads (they live in the vector). */
    std::size_t threadIndexOf(const ThreadState &thread) const
    {
        return static_cast<std::size_t>(&thread - threads.data());
    }

    MachineStats _stats;
};

} // namespace mixedproxy::microarch

#endif // MIXEDPROXY_MICROARCH_MACHINE_HH
