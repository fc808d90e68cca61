#include "machine.hh"

#include <sstream>

#include "conform/trace.hh"
#include "relation/error.hh"

namespace mixedproxy::microarch {

using litmus::Instruction;
using litmus::Opcode;
using litmus::Scope;
using litmus::Semantics;

std::string
toString(CoherenceMode mode)
{
    switch (mode) {
      case CoherenceMode::Proxy: return "proxy";
      case CoherenceMode::FullyCoherent: return "fully-coherent";
      case CoherenceMode::FenceReuse: return "fence-reuse";
    }
    panic("unknown CoherenceMode");
}

MachineStats &
MachineStats::operator+=(const MachineStats &other)
{
    loads += other.loads;
    stores += other.stores;
    l1Hits += other.l1Hits;
    l1Misses += other.l1Misses;
    texHits += other.texHits;
    texMisses += other.texMisses;
    constHits += other.constHits;
    constMisses += other.constMisses;
    l2Reads += other.l2Reads;
    l2Writes += other.l2Writes;
    drains += other.drains;
    invalidatedLines += other.invalidatedLines;
    translations += other.translations;
    fenceDrains += other.fenceDrains;
    fenceInvalidations += other.fenceInvalidations;
    totalLatency += other.totalLatency;
    return *this;
}

std::string
Action::toString() const
{
    std::ostringstream os;
    switch (kind) {
      case Kind::ThreadStep:
        os << "step(t" << thread << ")";
        break;
      case Kind::DrainGeneric:
        os << "drain(sm" << sm << ".generic, tag" << tag << ")";
        break;
      case Kind::DrainSurface:
        os << "drain(sm" << sm << ".surface, tag" << tag << ")";
        break;
      case Kind::AsyncCopy:
        os << "async-copy(sm" << sm << ", #" << tag << ")";
        break;
      case Kind::WritebackL2:
        os << "writeback(gpu" << sm << ", loc" << tag << ")";
        break;
    }
    return os.str();
}

Machine::Machine(const litmus::LitmusTest &test, CoherenceMode mode)
    : testCopy(test), test(&testCopy), _mode(mode)
{
    testCopy.validate();

    // Intern locations and virtual addresses.
    for (const auto &loc : test.locations()) {
        locs[loc] = static_cast<PhysicalTag>(locNames.size());
        locNames.push_back(loc);
        // Location i's initial value is the trace schema's implicit
        // init write with uid i.
        sysmemUid.push_back(sysmem.size());
        sysmem.push_back(test.initOf(loc));
    }
    auto intern_tag = [&](const std::string &va) {
        auto it = tags.find(va);
        if (it != tags.end())
            return it->second;
        VirtualTag tag = static_cast<VirtualTag>(tags.size());
        tags[va] = tag;
        tagToLoc[tag] = locs.at(test.locationOf(va));
        return tag;
    };

    // One SM per distinct (gpu, cta) pair; one L2 per GPU over a
    // shared system memory, so gpu- vs sys-scope differences are
    // architecturally visible (stale cross-GPU reads until a sys-scope
    // release/fence writes back).
    std::map<std::pair<int, int>, std::size_t> sm_of;
    for (const auto &thread : test.threads()) {
        auto key = std::make_pair(thread.gpu, thread.cta);
        auto [it, inserted] = sm_of.emplace(key, sms.size());
        if (inserted) {
            sms.emplace_back();
            sms.back().gpu = thread.gpu;
        }
        gpuIndex.emplace(thread.gpu, gpuIndex.size());
        ThreadState state;
        state.sm = it->second;
        threads.push_back(std::move(state));
        for (const auto &instr : thread.instructions) {
            if (instr.isMemoryOp()) {
                intern_tag(instr.address);
                if (!instr.srcAddress.empty())
                    intern_tag(instr.srcAddress);
            }
        }
    }
    l2.assign(gpuIndex.size(),
              std::vector<L2Line>(sysmem.size(), L2Line{}));
}

std::size_t
Machine::gpuOf(std::size_t sm) const
{
    return gpuIndex.at(sms[sm].gpu);
}

Machine::Machine(const Machine &other)
    : testCopy(other.testCopy), test(&testCopy), _mode(other._mode),
      tags(other.tags), locs(other.locs),
      locNames(other.locNames), tagToLoc(other.tagToLoc),
      sysmem(other.sysmem), sysmemUid(other.sysmemUid), l2(other.l2),
      gpuIndex(other.gpuIndex), sms(other.sms), threads(other.threads),
      nextAsyncSequence(other.nextAsyncSequence), _stats(other._stats)
{}

Machine &
Machine::operator=(const Machine &other)
{
    if (this == &other)
        return *this;
    testCopy = other.testCopy;
    test = &testCopy;
    _mode = other._mode;
    tags = other.tags;
    locs = other.locs;
    locNames = other.locNames;
    tagToLoc = other.tagToLoc;
    sysmem = other.sysmem;
    sysmemUid = other.sysmemUid;
    l2 = other.l2;
    gpuIndex = other.gpuIndex;
    sms = other.sms;
    threads = other.threads;
    nextAsyncSequence = other.nextAsyncSequence;
    tracer = nullptr; // forks must not interleave into the stream
    _stats = other._stats;
    return *this;
}

void
Machine::setTracer(conform::TraceWriter *writer)
{
    tracer = writer;
    if (!tracer)
        return;
    conform::TraceHeader hdr;
    hdr.test = test->name();
    for (const auto &thread : test->threads())
        hdr.threads.push_back(
            conform::TraceThread{thread.name, thread.cta, thread.gpu});
    for (const auto &name : locNames)
        hdr.locations.push_back(
            conform::TraceLocation{name, test->initOf(name)});
    tracer->header(hdr);
}

VirtualTag
Machine::tagOf(const std::string &va) const
{
    return tags.at(va);
}

PhysicalTag
Machine::locOf(const std::string &va) const
{
    return locs.at(test->locationOf(va));
}

std::uint64_t
Machine::operandValue(const ThreadState &thread,
                      const litmus::Operand &op) const
{
    if (op.isImm())
        return op.imm;
    if (op.isReg()) {
        auto it = thread.registers.find(op.reg);
        if (it == thread.registers.end())
            panic("register ", op.reg, " read before definition");
        return it->second;
    }
    panic("operand has no value");
}

std::vector<Action>
Machine::actions() const
{
    std::vector<Action> out;
    for (std::size_t i = 0; i < threads.size(); i++) {
        const auto &instrs = test->threads()[i].instructions;
        if (threads[i].pc >= instrs.size())
            continue;
        // cp.async.wait_all blocks until the SM's copy engine is idle.
        const auto &next = instrs[threads[i].pc];
        if (next.opcode == litmus::Opcode::CpAsyncWait &&
            !sms[threads[i].sm].asyncQueue.empty()) {
            continue;
        }
        // bar.sync blocks until every CTA sibling has arrived.
        if (next.opcode == litmus::Opcode::Barrier && !barrierReady(i))
            continue;
        out.push_back(Action{Action::Kind::ThreadStep, i, 0, -1});
    }
    for (std::size_t s = 0; s < sms.size(); s++) {
        for (VirtualTag tag : sms[s].genericQueue.drainableTags())
            out.push_back(Action{Action::Kind::DrainGeneric, 0, s, tag});
        for (VirtualTag tag : sms[s].surfaceQueue.drainableTags())
            out.push_back(Action{Action::Kind::DrainSurface, 0, s, tag});
        for (const auto &copy : sms[s].asyncQueue) {
            out.push_back(
                Action{Action::Kind::AsyncCopy, 0, s, copy.sequence});
        }
    }
    for (std::size_t g = 0; g < l2.size(); g++) {
        for (std::size_t loc = 0; loc < l2[g].size(); loc++) {
            if (l2[g][loc].dirty) {
                out.push_back(Action{Action::Kind::WritebackL2, 0, g,
                                     static_cast<VirtualTag>(loc)});
            }
        }
    }
    return out;
}

void
Machine::execute(const Action &action)
{
    switch (action.kind) {
      case Action::Kind::ThreadStep:
        stepThread(action.thread);
        return;
      case Action::Kind::DrainGeneric:
        drain(action.sm, false, action.tag);
        return;
      case Action::Kind::DrainSurface:
        drain(action.sm, true, action.tag);
        return;
      case Action::Kind::AsyncCopy:
        performAsyncCopy(action.sm, action.tag);
        return;
      case Action::Kind::WritebackL2:
        writebackLine(action.sm, action.tag);
        return;
    }
    panic("unknown Action kind");
}

bool
Machine::finished() const
{
    for (std::size_t i = 0; i < threads.size(); i++) {
        if (threads[i].pc < test->threads()[i].instructions.size())
            return false;
    }
    for (const auto &sm : sms) {
        if (!sm.genericQueue.empty() || !sm.surfaceQueue.empty() ||
            !sm.asyncQueue.empty()) {
            return false;
        }
    }
    for (const auto &gpu_l2 : l2) {
        for (const auto &line : gpu_l2) {
            if (line.dirty)
                return false;
        }
    }
    return true;
}

bool
Machine::deadlocked() const
{
    return actions().empty() && !finished();
}

bool
Machine::barrierReady(std::size_t thread_index) const
{
    // The thread's next instruction is its (barriersPassed+1)-th
    // barrier; it may proceed once every CTA sibling has arrived at (or
    // passed) that same rendezvous.
    const ThreadState &me = threads[thread_index];
    for (std::size_t u = 0; u < threads.size(); u++) {
        if (u == thread_index || threads[u].sm != me.sm)
            continue;
        const ThreadState &other = threads[u];
        if (other.barriersPassed > me.barriersPassed)
            continue; // already past this rendezvous
        if (other.barriersPassed == me.barriersPassed) {
            const auto &instrs = test->threads()[u].instructions;
            if (other.pc < instrs.size() &&
                instrs[other.pc].opcode == litmus::Opcode::Barrier) {
                continue; // arrived, waiting
            }
        }
        return false;
    }
    return true;
}

litmus::Outcome
Machine::outcome() const
{
    if (!finished())
        panic("Machine::outcome called before completion");
    litmus::Outcome out;
    for (std::size_t i = 0; i < threads.size(); i++) {
        const auto &name = test->threads()[i].name;
        for (const auto &[reg, value] : threads[i].registers)
            out.registers[name + "." + reg] = value;
    }
    for (std::size_t loc = 0; loc < sysmem.size(); loc++)
        out.memory[locNames[loc]] = sysmem[loc];
    return out;
}

std::uint64_t
Machine::readL2(std::size_t sm, PhysicalTag location,
                std::uint64_t *writer_out)
{
    _stats.l2Reads++;
    _stats.totalLatency += latency::l2;
    L2Line &line =
        l2[gpuOf(sm)][static_cast<std::size_t>(location)];
    if (!line.present) {
        line.value = sysmem[static_cast<std::size_t>(location)];
        line.present = true;
        line.dirty = false;
        line.writerUid = sysmemUid[static_cast<std::size_t>(location)];
    }
    if (writer_out)
        *writer_out = line.writerUid;
    return line.value;
}

void
Machine::writeL2(std::size_t sm, PhysicalTag location, VirtualTag tag,
                 std::uint64_t value, std::uint64_t writerUid)
{
    (void)tag;
    _stats.l2Writes++;
    _stats.totalLatency += latency::l2;
    const std::size_t gpu = gpuOf(sm);
    const std::size_t loc = static_cast<std::size_t>(location);
    if (_mode == CoherenceMode::FullyCoherent) {
        // Write-through with global invalidation: every observer is
        // coherent. The write reaches sysmem now, so it commits now.
        sysmem[loc] = value;
        sysmemUid[loc] = writerUid;
        l2[gpu][loc] = L2Line{value, true, false, writerUid};
        for (std::size_t g = 0; g < l2.size(); g++) {
            if (g != gpu)
                l2[g][loc] = L2Line{};
        }
        coherentInvalidate(sm, location);
        if (tracer)
            tracer->commit(writerUid);
        return;
    }
    // A dirty line being overwritten will never reach sysmem itself:
    // this overwrite is the moment it takes (and ends) its slot in the
    // location's coherence order, so its commit is emitted here. The
    // new write's commit is deferred until the line writes back (or is
    // itself overwritten) — per-location commit order in the trace is
    // then exactly the order writes reach, or are superseded on the
    // way to, the global point of coherence.
    L2Line &line = l2[gpu][loc];
    if (tracer && line.present && line.dirty)
        tracer->commit(line.writerUid);
    line = L2Line{value, true, true, writerUid};
}

void
Machine::writebackLine(std::size_t gpu, PhysicalTag location)
{
    L2Line &line = l2[gpu][static_cast<std::size_t>(location)];
    if (!line.dirty)
        return;
    sysmem[static_cast<std::size_t>(location)] = line.value;
    sysmemUid[static_cast<std::size_t>(location)] = line.writerUid;
    line.dirty = false;
    _stats.l2Writes++;
    _stats.totalLatency += latency::drain;
    if (tracer)
        tracer->commit(line.writerUid);
}

void
Machine::writebackAllDirty(std::size_t gpu)
{
    for (std::size_t loc = 0; loc < l2[gpu].size(); loc++) {
        if (l2[gpu][loc].dirty)
            writebackLine(gpu, static_cast<PhysicalTag>(loc));
    }
}

void
Machine::invalidateCleanL2(std::size_t gpu)
{
    for (auto &line : l2[gpu]) {
        if (line.present && !line.dirty)
            line = L2Line{};
    }
}

std::uint64_t
Machine::atomicAtSysmem(std::size_t sm, PhysicalTag location,
                        std::uint64_t new_value, bool do_write,
                        std::uint64_t writerUid,
                        std::uint64_t *old_writer)
{
    // System-scope RMWs serialize at the global point of coherence.
    // Publish any local newer value first, then operate on sysmem.
    const std::size_t gpu = gpuOf(sm);
    const std::size_t loc = static_cast<std::size_t>(location);
    if (l2[gpu][loc].dirty)
        writebackLine(gpu, location);
    _stats.l2Reads++;
    _stats.totalLatency += 2 * latency::l2;
    std::uint64_t old = sysmem[loc];
    if (old_writer)
        *old_writer = sysmemUid[loc];
    if (do_write) {
        _stats.l2Writes++;
        sysmem[loc] = new_value;
        sysmemUid[loc] = writerUid;
        l2[gpu][loc] = L2Line{new_value, true, false, writerUid};
        if (tracer)
            tracer->commit(writerUid);
    }
    return old;
}

void
Machine::coherentInvalidate(std::size_t writer_sm, PhysicalTag location)
{
    // Broadcast invalidation to every cache copy of this physical
    // location (the §4.2 alternative's cost).
    for (std::size_t s = 0; s < sms.size(); s++) {
        std::size_t n = 0;
        n += sms[s].l1.invalidateLocation(location);
        n += sms[s].tex.invalidateLocation(location);
        n += sms[s].constCache.invalidateLocation(location);
        if (s == writer_sm) {
            // The writer's own refill is cheap; remote copies pay
            // cross-SM traffic.
            _stats.invalidatedLines += n;
        } else {
            _stats.invalidatedLines += n;
            _stats.totalLatency += n * latency::invalidatePerLine;
        }
    }
}

void
Machine::applyStoreToL2(std::size_t sm, const PendingStore &store)
{
    _stats.drains++;
    _stats.totalLatency += latency::drain;
    writeL2(sm, store.location, store.tag, store.value,
            store.writerUid);
    sms[sm].l1.markClean(store.tag);
}

void
Machine::drain(std::size_t sm, bool surface, VirtualTag tag)
{
    StoreQueue &queue =
        surface ? sms[sm].surfaceQueue : sms[sm].genericQueue;
    PendingStore store = queue.drainTag(tag);
    applyStoreToL2(sm, store);
}

void
Machine::drainQueueFully(std::size_t sm, bool surface, bool for_fence)
{
    StoreQueue &queue =
        surface ? sms[sm].surfaceQueue : sms[sm].genericQueue;
    for (const auto &store : queue.drainAll()) {
        applyStoreToL2(sm, store);
        if (for_fence)
            _stats.fenceDrains++;
    }
}

void
Machine::drainQueueTagFully(std::size_t sm, bool surface, VirtualTag tag)
{
    StoreQueue &queue =
        surface ? sms[sm].surfaceQueue : sms[sm].genericQueue;
    for (const auto &store : queue.drainAllForTag(tag))
        applyStoreToL2(sm, store);
}

void
Machine::acquireInvalidate(std::size_t sm)
{
    // Acquire at gpu/sys scope: later generic loads must not hit stale
    // L1 lines. Pending own stores remain visible via forwarding.
    _stats.invalidatedLines += sms[sm].l1.invalidateAll();
}

void
Machine::releaseDrain(std::size_t sm)
{
    drainQueueFully(sm, false, false);
}

std::uint64_t
Machine::genericLoad(ThreadState &thread, const Instruction &instr)
{
    Sm &sm = sms[thread.sm];
    VirtualTag tag = tagOf(instr.address);
    PhysicalTag loc = locOf(instr.address);
    _stats.loads++;
    if (_mode == CoherenceMode::FullyCoherent) {
        _stats.translations++;
        _stats.totalLatency += latency::translation;
    }

    const bool strong = litmus::isStrong(instr.sem);
    const bool wide_acquire = litmus::hasAcquire(instr.sem) &&
                              instr.scope != Scope::Cta;

    // Store-to-load forwarding from the SM's own queue keeps same-VA
    // program order coherent.
    if (auto fwd = sm.genericQueue.forward(tag)) {
        if (wide_acquire) {
            acquireInvalidate(thread.sm);
            if (instr.scope == Scope::Sys)
                invalidateCleanL2(gpuOf(thread.sm));
        }
        _stats.totalLatency += latency::l1Hit;
        if (tracer) {
            tracer->load(threadIndexOf(thread), loc, fwd->value,
                         fwd->writerUid, instr.sem, instr.scope,
                         instr.proxy, instr.destReg);
        }
        return fwd->value;
    }

    std::uint64_t value = 0;
    std::uint64_t rfUid = 0;
    if (strong) {
        // Strong loads read the point of coherence directly (the GPU's
        // L2; sys-scope acquires additionally refresh from sysmem via
        // the clean-line invalidation below).
        value = readL2(thread.sm, loc, &rfUid);
    } else if (auto line = sm.l1.lookup(tag)) {
        _stats.l1Hits++;
        _stats.totalLatency += latency::l1Hit;
        value = line->value;
        rfUid = line->writerUid;
    } else {
        _stats.l1Misses++;
        value = readL2(thread.sm, loc, &rfUid);
        sm.l1.fill(tag, value, loc, false, rfUid);
    }
    if (wide_acquire) {
        acquireInvalidate(thread.sm);
        if (litmus::hasAcquire(instr.sem) && instr.scope == Scope::Sys)
            invalidateCleanL2(gpuOf(thread.sm));
    }
    if (_mode == CoherenceMode::FenceReuse &&
        litmus::hasAcquire(instr.sem)) {
        // §4.3: the acquire also invalidates every proxy path.
        _stats.fenceInvalidations += sms[thread.sm].tex.invalidateAll();
        _stats.fenceInvalidations +=
            sms[thread.sm].constCache.invalidateAll();
    }
    if (tracer) {
        tracer->load(threadIndexOf(thread), loc, value, rfUid,
                     instr.sem, instr.scope, instr.proxy,
                     instr.destReg);
    }
    return value;
}

void
Machine::genericStore(ThreadState &thread, const Instruction &instr)
{
    Sm &sm = sms[thread.sm];
    VirtualTag tag = tagOf(instr.address);
    PhysicalTag loc = locOf(instr.address);
    std::uint64_t value = operandValue(thread, instr.value);
    _stats.stores++;
    std::uint64_t uid = 0;
    if (tracer) {
        uid = tracer->store(threadIndexOf(thread), loc, value,
                            instr.sem, instr.scope, instr.proxy);
    }
    if (_mode == CoherenceMode::FullyCoherent) {
        _stats.translations++;
        _stats.totalLatency += latency::translation;
        // Write-through with broadcast invalidation: always coherent.
        sm.l1.fill(tag, value, loc, false, uid);
        writeL2(thread.sm, loc, tag, value, uid);
        return;
    }

    if (litmus::hasRelease(instr.sem) && instr.scope != Scope::Cta) {
        // A gpu/sys-scope release publishes everything before it, then
        // writes through to the point of coherence. At sys scope the
        // GPU's dirty L2 lines are pushed to sysmem first, so remote
        // GPUs that later observe this write observe everything prior.
        releaseDrain(thread.sm);
        if (_mode == CoherenceMode::FenceReuse) {
            // §4.3: the release also flushes the surface path.
            drainQueueFully(thread.sm, true, true);
        }
        if (instr.scope == Scope::Sys)
            writebackAllDirty(gpuOf(thread.sm));
        sm.l1.fill(tag, value, loc, false, uid);
        writeL2(thread.sm, loc, tag, value, uid);
        return;
    }

    // Weak, relaxed, and cta-scope release stores buffer in the store
    // queue (the reordering window); same-VA order is preserved by the
    // queue's per-tag FIFO discipline.
    sm.l1.fill(tag, value, loc, true, uid);
    sm.genericQueue.push(tag, loc, value, uid);
    _stats.totalLatency += latency::l1Hit;
}

void
Machine::atomic(ThreadState &thread, const Instruction &instr)
{
    VirtualTag tag = tagOf(instr.address);
    PhysicalTag loc = locOf(instr.address);
    _stats.loads++;
    _stats.stores++;

    if (litmus::hasRelease(instr.sem) && instr.scope != Scope::Cta) {
        releaseDrain(thread.sm);
        if (instr.scope == Scope::Sys)
            writebackAllDirty(gpuOf(thread.sm));
    } else {
        drainQueueTagFully(thread.sm, false, tag);
    }

    // gpu/cta-scope RMWs serialize at the GPU's L2; sys-scope RMWs at
    // sysmem (they must be atomic across GPUs).
    const bool at_sysmem = instr.scope == Scope::Sys;
    std::uint64_t oldUid = 0;
    std::uint64_t old =
        at_sysmem
            ? atomicAtSysmem(thread.sm, loc, 0, false, 0, &oldUid)
            : readL2(thread.sm, loc, &oldUid);
    std::uint64_t next = old;
    bool write = true;
    switch (instr.atomOp) {
      case litmus::AtomOp::Add:
        next = old + operandValue(thread, instr.value);
        break;
      case litmus::AtomOp::Exch:
        next = operandValue(thread, instr.value);
        break;
      case litmus::AtomOp::Cas:
        if (old == operandValue(thread, instr.expected)) {
            next = operandValue(thread, instr.value);
        } else {
            write = false;
        }
        break;
    }
    std::uint64_t uid = 0;
    if (tracer) {
        if (write) {
            // L2-serialized RMWs commit when the line writes back;
            // sysmem-serialized ones commit inside atomicAtSysmem.
            uid = tracer->rmw(threadIndexOf(thread), loc, next, old,
                              oldUid, instr.sem, instr.scope,
                              instr.destReg, /*commitNow=*/false);
        } else {
            // A failed CAS writes nothing: it is a load of `old`.
            tracer->load(threadIndexOf(thread), loc, old, oldUid,
                         instr.sem, instr.scope, instr.proxy,
                         instr.destReg);
        }
    }
    if (write) {
        if (at_sysmem) {
            atomicAtSysmem(thread.sm, loc, next, true, uid);
        } else {
            writeL2(thread.sm, loc, tag, next, uid);
        }
        sms[thread.sm].l1.fill(tag, next, loc, false, uid);
    }
    if (!instr.destReg.empty())
        thread.registers[instr.destReg] = old;

    if (litmus::hasAcquire(instr.sem) && instr.scope != Scope::Cta) {
        acquireInvalidate(thread.sm);
        if (instr.scope == Scope::Sys)
            invalidateCleanL2(gpuOf(thread.sm));
    }
    if (_mode == CoherenceMode::FenceReuse) {
        if (litmus::hasRelease(instr.sem))
            drainQueueFully(thread.sm, true, true);
        if (litmus::hasAcquire(instr.sem)) {
            _stats.fenceInvalidations +=
                sms[thread.sm].tex.invalidateAll();
            _stats.fenceInvalidations +=
                sms[thread.sm].constCache.invalidateAll();
        }
    }
}

std::uint64_t
Machine::proxyCacheLoad(ThreadState &thread, Cache &cache,
                        const Instruction &instr,
                        std::uint64_t hit_latency, std::uint64_t &hits,
                        std::uint64_t &misses)
{
    VirtualTag tag = tagOf(instr.address);
    PhysicalTag loc = locOf(instr.address);
    _stats.loads++;
    if (_mode == CoherenceMode::FullyCoherent) {
        _stats.translations++;
        _stats.totalLatency += latency::translation;
    }
    std::uint64_t value = 0;
    std::uint64_t rfUid = 0;
    if (auto line = cache.lookup(tag)) {
        hits++;
        _stats.totalLatency += hit_latency;
        value = line->value;
        rfUid = line->writerUid;
    } else {
        misses++;
        value = readL2(thread.sm, loc, &rfUid);
        cache.fill(tag, value, loc, false, rfUid);
    }
    if (tracer) {
        tracer->load(threadIndexOf(thread), loc, value, rfUid,
                     instr.sem, instr.scope, instr.proxy,
                     instr.destReg);
    }
    return value;
}

void
Machine::surfaceStore(ThreadState &thread, const Instruction &instr)
{
    Sm &sm = sms[thread.sm];
    VirtualTag tag = tagOf(instr.address);
    PhysicalTag loc = locOf(instr.address);
    std::uint64_t value = operandValue(thread, instr.value);
    _stats.stores++;
    std::uint64_t uid = 0;
    if (tracer) {
        uid = tracer->store(threadIndexOf(thread), loc, value,
                            instr.sem, instr.scope, instr.proxy);
    }
    if (_mode == CoherenceMode::FullyCoherent) {
        _stats.translations++;
        _stats.totalLatency += latency::translation;
        sm.tex.fill(tag, value, loc, false, uid);
        writeL2(thread.sm, loc, tag, value, uid);
        return;
    }
    // Surface stores land in the SM's texture cache (so same-CTA
    // surface loads observe them) and drain to L2 via the surface path.
    sm.tex.fill(tag, value, loc, true, uid);
    sm.surfaceQueue.push(tag, loc, value, uid);
    _stats.totalLatency += latency::texHit;
}

void
Machine::fence(ThreadState &thread, const Instruction &instr)
{
    _stats.totalLatency += latency::fence;
    // The fence line follows the commits its flushes force: those
    // stores reach the coherence point before the fence completes.
    struct EmitOnExit
    {
        Machine *m;
        std::size_t t;
        const Instruction *i;
        ~EmitOnExit()
        {
            if (m->tracer)
                m->tracer->fence(t, i->sem, i->scope);
        }
    } emit{this, threadIndexOf(thread), &instr};
    if (_mode == CoherenceMode::FenceReuse) {
        // §4.3: every generic fence — including the CTA-scoped variants
        // programmers expect to be very fast — also flushes and
        // invalidates every proxy path.
        drainQueueFully(thread.sm, false, true);
        drainQueueFully(thread.sm, true, true);
        asyncFenceAt(thread.sm, true);
        if (instr.scope == Scope::Sys) {
            writebackAllDirty(gpuOf(thread.sm));
            invalidateCleanL2(gpuOf(thread.sm));
        }
        _stats.fenceInvalidations += sms[thread.sm].l1.invalidateAll();
        _stats.fenceInvalidations += sms[thread.sm].tex.invalidateAll();
        _stats.fenceInvalidations +=
            sms[thread.sm].constCache.invalidateAll();
        return;
    }
    if (instr.scope == Scope::Cta)
        return; // intra-SM visibility is already coherent via the L1
    // Release side: flush prior generic stores to the L2 (and, at sys
    // scope, push the GPU's dirty lines to sysmem).
    drainQueueFully(thread.sm, false, true);
    if (instr.scope == Scope::Sys)
        writebackAllDirty(gpuOf(thread.sm));
    // Acquire side: drop potentially stale generic lines.
    _stats.fenceInvalidations += sms[thread.sm].l1.invalidateAll();
    if (instr.scope == Scope::Sys)
        invalidateCleanL2(gpuOf(thread.sm));
}

std::vector<std::size_t>
Machine::smsInScope(std::size_t sm, litmus::Scope scope) const
{
    std::vector<std::size_t> out;
    for (std::size_t s = 0; s < sms.size(); s++) {
        switch (scope) {
          case Scope::Sys:
            out.push_back(s);
            break;
          case Scope::Gpu:
            if (sms[s].gpu == sms[sm].gpu)
                out.push_back(s);
            break;
          default:
            if (s == sm)
                out.push_back(s);
            break;
        }
    }
    return out;
}

void
Machine::proxyFence(ThreadState &thread, const Instruction &instr)
{
    _stats.totalLatency += latency::fence;
    // §5.3: flush prior generic and proxy-path accesses to the
    // reconvergence point, then invalidate possibly-stale entries in the
    // caches along those paths. PTX 7.5 fences act on the executing
    // SM; the §7.2 scoped extension reaches every SM in scope, paying
    // remote-traffic latency per extra SM.
    auto targets = smsInScope(thread.sm, instr.scope);
    _stats.totalLatency +=
        (targets.size() - 1) * (latency::fence + latency::invalidatePerLine);
    for (std::size_t s : targets) {
        Sm &sm = sms[s];
        switch (instr.proxyFence) {
          case litmus::ProxyFenceKind::Alias:
            drainQueueFully(s, false, true);
            _stats.fenceInvalidations += sm.l1.invalidateAll();
            break;
          case litmus::ProxyFenceKind::Constant:
            drainQueueFully(s, false, true);
            _stats.fenceInvalidations += sm.constCache.invalidateAll();
            break;
          case litmus::ProxyFenceKind::Texture:
            // No texture *instructions* store, but surface stores share
            // the texture cache in this implementation, so their pending
            // stores must reach the reconvergence point before the
            // invalidation. The L1 cannot be stale w.r.t. textures
            // (§5.3), so it is left alone.
            drainQueueFully(s, false, true);
            drainQueueFully(s, true, true);
            _stats.fenceInvalidations += sm.tex.invalidateAll();
            break;
          case litmus::ProxyFenceKind::Surface:
            drainQueueFully(s, false, true);
            drainQueueFully(s, true, true);
            _stats.fenceInvalidations += sm.tex.invalidateAll();
            _stats.fenceInvalidations += sm.l1.invalidateAll();
            break;
          case litmus::ProxyFenceKind::Async:
            asyncFenceAt(s, true);
            break;
        }
    }
    if (tracer) {
        tracer->proxyFence(threadIndexOf(thread), instr.proxyFence,
                           instr.scope);
    }
}

void
Machine::issueAsyncCopy(ThreadState &thread, const Instruction &instr)
{
    // The copy engine is handed the descriptor and runs asynchronously;
    // issue itself is cheap.
    AsyncCopy copy;
    copy.srcTag = tagOf(instr.srcAddress);
    copy.srcLoc = locOf(instr.srcAddress);
    copy.dstTag = tagOf(instr.address);
    copy.dstLoc = locOf(instr.address);
    copy.sequence = nextAsyncSequence++;
    copy.thread = threadIndexOf(thread);
    _stats.totalLatency += latency::constHit;
    if (_mode == CoherenceMode::FullyCoherent) {
        // §4.2 machine: the engine is coherent and synchronous.
        _stats.translations += 2;
        _stats.totalLatency += 2 * latency::translation;
        std::uint64_t value = readL2(thread.sm, copy.srcLoc);
        std::uint64_t uid = 0;
        if (tracer) {
            uid = tracer->store(copy.thread, copy.dstLoc, value,
                                Semantics::Weak, Scope::None,
                                litmus::ProxyKind::Async);
        }
        writeL2(thread.sm, copy.dstLoc, copy.dstTag, value, uid);
        return;
    }
    sms[thread.sm].asyncQueue.push_back(copy);
}

void
Machine::performAsyncCopy(std::size_t sm, int sequence)
{
    auto &queue = sms[sm].asyncQueue;
    for (auto it = queue.begin(); it != queue.end(); ++it) {
        if (it->sequence != sequence)
            continue;
        // The engine's own non-coherent path: straight to/from the L2,
        // oblivious to anything buffered in the SM's queues or caches.
        std::uint64_t value = readL2(sm, it->srcLoc);
        std::uint64_t uid = 0;
        if (tracer) {
            // The copy's write materializes when the engine performs
            // it; its trace identity keeps the issuing thread.
            uid = tracer->store(it->thread, it->dstLoc, value,
                                Semantics::Weak, Scope::None,
                                litmus::ProxyKind::Async);
        }
        writeL2(sm, it->dstLoc, it->dstTag, value, uid);
        _stats.drains++;
        _stats.totalLatency += latency::drain;
        queue.erase(it);
        return;
    }
    panic("async copy #", sequence, " not pending on sm ", sm);
}

void
Machine::asyncFenceAt(std::size_t sm, bool charge_fence)
{
    // Synchronize the async proxy with generic: complete outstanding
    // copies, publish prior generic stores, and drop generic lines that
    // may be stale with respect to copy writes.
    auto pending = sms[sm].asyncQueue;
    for (const auto &copy : pending)
        performAsyncCopy(sm, copy.sequence);
    drainQueueFully(sm, false, charge_fence);
    std::size_t invalidated = sms[sm].l1.invalidateAll();
    if (charge_fence)
        _stats.fenceInvalidations += invalidated;
    else
        _stats.invalidatedLines += invalidated;
}

void
Machine::stepThread(std::size_t index)
{
    ThreadState &thread = threads[index];
    const auto &instrs = test->threads()[index].instructions;
    if (thread.pc >= instrs.size())
        panic("stepping a finished thread");
    const Instruction &instr = instrs[thread.pc++];

    switch (instr.opcode) {
      case Opcode::Ld:
        if (instr.proxy == litmus::ProxyKind::Constant) {
            thread.registers[instr.destReg] = proxyCacheLoad(
                thread, sms[thread.sm].constCache, instr, latency::constHit,
                _stats.constHits, _stats.constMisses);
        } else if (instr.proxy == litmus::ProxyKind::Texture) {
            // ld.global.nc travels the read-only texture path.
            thread.registers[instr.destReg] = proxyCacheLoad(
                thread, sms[thread.sm].tex, instr, latency::texHit,
                _stats.texHits, _stats.texMisses);
        } else {
            thread.registers[instr.destReg] = genericLoad(thread, instr);
        }
        return;
      case Opcode::St:
        genericStore(thread, instr);
        return;
      case Opcode::Atom:
        atomic(thread, instr);
        return;
      case Opcode::Tex:
      case Opcode::Suld:
        thread.registers[instr.destReg] = proxyCacheLoad(
            thread, sms[thread.sm].tex, instr, latency::texHit,
            _stats.texHits, _stats.texMisses);
        return;
      case Opcode::Sust:
        surfaceStore(thread, instr);
        return;
      case Opcode::Fence:
        fence(thread, instr);
        return;
      case Opcode::FenceProxy:
        proxyFence(thread, instr);
        return;
      case Opcode::CpAsync:
        issueAsyncCopy(thread, instr);
        return;
      case Opcode::CpAsyncWait:
        // The scheduler only offers this step once the SM's copy
        // engine is idle; joining then bridges async to generic.
        asyncFenceAt(thread.sm, false);
        _stats.totalLatency += latency::fence;
        return;
      case Opcode::Barrier:
        // Rendezvous only (the scheduler gates the step): intra-SM
        // visibility is already provided by the shared L1 and store
        // queue; cross-proxy visibility still needs proxy fences.
        if (tracer) {
            tracer->barrier(
                index,
                static_cast<unsigned>(thread.barriersPassed));
        }
        thread.barriersPassed++;
        _stats.totalLatency += latency::fence;
        return;
    }
    panic("unknown opcode");
}

} // namespace mixedproxy::microarch
