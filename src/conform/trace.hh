/**
 * @file
 * The execution-trace interchange format (`mixedproxy.trace.v1`).
 *
 * A trace is a JSONL stream describing one concrete execution of a
 * litmus program on an operational machine: a header naming the test,
 * its threads (with CTA/GPU placement) and memory locations; one event
 * line per retired operation, in global execution order; and a footer
 * with the final register and memory values. The format is the seam
 * between the microarchitectural simulator (which emits it, see
 * microarch::Machine and tools/tracegen) and the streaming conformance
 * checker (src/conform/checker.hh), and is designed to be written and
 * parsed at millions of events per second — flat objects, fixed keys,
 * no nesting beyond the header/footer lines.
 *
 * Write identity and reads-from are explicit: every store carries a
 * fresh monotonically increasing `uid`, every load names the uid of
 * the write whose value it observed (`rf`). The initial value of
 * location i is modeled as an implicit init write with uid == i; real
 * writes number from locations.size() upward. A store appears twice:
 * an `st` line when the instruction executes (program-order position,
 * uid assignment) and a `commit` line when the value reaches the
 * global point of coherence — the per-location order of commit lines
 * *is* the coherence order. Atomics that serialize at the coherence
 * point commit immediately (`atom` line followed by its `commit`);
 * cache-serialized atomics commit later like ordinary stores.
 *
 * Line shapes:
 *
 *   {"schema":"mixedproxy.trace.v1","test":"mp","threads":[
 *     {"name":"t0","cta":0,"gpu":0},...],"locations":[
 *     {"name":"x","init":0},...]}
 *   {"seq":0,"ev":"st","t":0,"loc":1,"val":1,"uid":2,
 *    "sem":"relaxed","scope":"gpu","proxy":"generic"}
 *   {"seq":1,"ev":"commit","uid":2}
 *   {"seq":2,"ev":"ld","t":1,"loc":1,"val":1,"rf":2,"rd":"r0",
 *    "sem":"acquire","scope":"gpu","proxy":"generic"}
 *   {"seq":3,"ev":"atom","t":1,"loc":0,"val":5,"old":4,"rf":1,
 *    "uid":3,"rd":"r1","sem":"acq_rel","scope":"gpu","proxy":"generic"}
 *   {"seq":4,"ev":"fence","t":0,"sem":"sc","scope":"sys"}
 *   {"seq":5,"ev":"fence_proxy","t":0,"kind":"texture","scope":"cta"}
 *   {"seq":6,"ev":"bar","t":0,"bar":0}
 *   {"ev":"finish","registers":{"t1.r0":1},"memory":{"x":5,"y":1}}
 */

#ifndef MIXEDPROXY_CONFORM_TRACE_HH
#define MIXEDPROXY_CONFORM_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "litmus/outcome.hh"
#include "litmus/types.hh"

namespace mixedproxy::conform {

/** Schema identifier carried by every trace header. */
inline constexpr const char *kTraceSchema = "mixedproxy.trace.v1";

/** Sentinel for "no uid" (absent rf / uid fields). */
inline constexpr std::uint64_t kNoUid = ~std::uint64_t{0};

/** One thread declaration: name plus CTA/GPU placement. */
struct TraceThread
{
    std::string name;
    int cta = 0;
    int gpu = 0;
};

/** One memory location declaration with its initial value. */
struct TraceLocation
{
    std::string name;
    std::uint64_t init = 0;
};

/**
 * The trace header. The init write of locations[i] has uid == i; the
 * writer's first real uid is locations.size().
 */
struct TraceHeader
{
    std::string test;
    std::vector<TraceThread> threads;
    std::vector<TraceLocation> locations;
};

/** The operation class of one trace event line. */
enum class TraceOp {
    Store,      ///< "st": a store instruction executed (uid assigned)
    Commit,     ///< "commit": a store reached the point of coherence
    Load,       ///< "ld": a load observed a value (rf names the write)
    Rmw,        ///< "atom": an atomic RMW (read `old` via rf, wrote uid)
    Fence,      ///< "fence": a scoped memory fence executed
    FenceProxy, ///< "fence_proxy": a proxy fence executed
    Barrier,    ///< "bar": a thread passed a CTA execution barrier
};

/** One parsed event line. Fields are valid per the op's line shape. */
struct TraceEvent
{
    std::uint64_t seq = 0;
    TraceOp op = TraceOp::Load;
    std::size_t thread = 0;
    std::size_t location = 0;
    std::uint64_t value = 0;    ///< st/ld value; atom: written value
    std::uint64_t oldValue = 0; ///< atom: value the RMW read
    std::uint64_t uid = kNoUid; ///< st/commit/atom: write identity
    std::uint64_t rf = kNoUid;  ///< ld/atom: uid of the observed write
    litmus::Semantics sem = litmus::Semantics::Weak;
    litmus::Scope scope = litmus::Scope::None;
    litmus::ProxyKind proxy = litmus::ProxyKind::Generic;
    litmus::ProxyFenceKind proxyFence = litmus::ProxyFenceKind::Alias;
    std::string destReg; ///< ld/atom: destination register ("" = none)
    unsigned barrier = 0; ///< bar: barrier resource id
};

/** The footer: final register and memory values (Outcome layout). */
struct TraceFooter
{
    std::map<std::string, std::uint64_t> registers;
    std::map<std::string, std::uint64_t> memory;
};

/**
 * Streams a trace as JSONL. The writer owns uid and seq assignment;
 * emission helpers return the uid they assigned so the machine can
 * thread write identity through its store queues and caches.
 */
class TraceWriter
{
  public:
    /** Write onto @p out (not owned; must outlive the writer). */
    explicit TraceWriter(std::ostream &out) : out(&out) {}

    /** Emit the header line; uids locations.size()... are for writes. */
    void header(const TraceHeader &hdr);

    /** Emit an "st" line; returns the assigned uid. */
    std::uint64_t store(std::size_t thread, std::size_t location,
                        std::uint64_t value, litmus::Semantics sem,
                        litmus::Scope scope, litmus::ProxyKind proxy);

    /** Emit a "commit" line for @p uid. */
    void commit(std::uint64_t uid);

    /** Emit an "ld" line observing write @p rf. */
    void load(std::size_t thread, std::size_t location,
              std::uint64_t value, std::uint64_t rf,
              litmus::Semantics sem, litmus::Scope scope,
              litmus::ProxyKind proxy, const std::string &destReg);

    /**
     * Emit an "atom" line (read @p oldValue from @p rf, wrote
     * @p value); returns the write's uid. With @p commitNow (the
     * default) the immediate "commit" follows; machines whose RMWs
     * serialize in a cache ahead of the coherence point pass false and
     * emit the commit themselves when the line writes back.
     */
    std::uint64_t rmw(std::size_t thread, std::size_t location,
                      std::uint64_t value, std::uint64_t oldValue,
                      std::uint64_t rf, litmus::Semantics sem,
                      litmus::Scope scope, const std::string &destReg,
                      bool commitNow = true);

    /** Emit a "fence" line. */
    void fence(std::size_t thread, litmus::Semantics sem,
               litmus::Scope scope);

    /** Emit a "fence_proxy" line. */
    void proxyFence(std::size_t thread, litmus::ProxyFenceKind kind,
                    litmus::Scope scope);

    /** Emit a "bar" line. */
    void barrier(std::size_t thread, unsigned id);

    /** Emit the "finish" footer from a machine outcome. */
    void finish(const litmus::Outcome &outcome);

    /** uid the next store will receive. */
    std::uint64_t nextUid() const { return _nextUid; }

  private:
    std::ostream *out;
    std::uint64_t _nextUid = 0; ///< set by header()
    std::uint64_t _seq = 0;
};

/** Classification of one parsed trace line. */
struct TraceLine
{
    enum class Kind { Header, Event, Footer };

    Kind kind = Kind::Event;
    TraceHeader header; ///< valid when kind == Header
    TraceEvent event;   ///< valid when kind == Event
    TraceFooter footer; ///< valid when kind == Footer
};

/**
 * Parse one trace line (without its newline) into @p line.
 *
 * Built for the conformance checker's throughput target: one pass over
 * the line with the shared JSON pull reader (json/reader.hh), no
 * intermediate DOM, field dispatch on fixed keys. Accepts fields in
 * any order; unknown fields must hold valid JSON and are skipped
 * (forward compatibility). Strings may use JSON escapes.
 *
 * @return false with a description in @p error for a malformed line.
 */
bool parseTraceLine(std::string_view text, TraceLine &line,
                    std::string &error);

/**
 * Streaming JSONL reader for `mixedproxy.trace.v1`: parseTraceLine()
 * over each line of a stream. Blank lines are ignored; a line longer
 * than json::kMaxLineBytes is discarded and reported as an error.
 */
class TraceReader
{
  public:
    enum class Status { Ok, Eof, Error };

    /** Read from @p in (not owned; must outlive the reader). */
    explicit TraceReader(std::istream &in) : in(&in) {}

    /**
     * Parse the next line into @p line. Error leaves a description in
     * error() and allows continuing with the following line.
     */
    Status next(TraceLine &line);

    /** Description of the last Error status. */
    const std::string &error() const { return _error; }

    /** 1-based number of the line last returned (or attempted). */
    std::uint64_t lineNumber() const { return _line; }

  private:
    std::istream *in;
    std::string buf;
    std::string _error;
    std::uint64_t _line = 0;
};

} // namespace mixedproxy::conform

#endif // MIXEDPROXY_CONFORM_TRACE_HH
