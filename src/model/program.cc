#include "program.hh"

#include <algorithm>
#include <bit>
#include <functional>

#include "relation/error.hh"

namespace mixedproxy::model {

std::string
toString(ProxyMode mode)
{
    switch (mode) {
      case ProxyMode::Ptx60: return "ptx60";
      case ProxyMode::Ptx75: return "ptx75";
    }
    panic("unknown ProxyMode");
}

Program::Program(const litmus::LitmusTest &test, ProxyMode mode)
    : _test(&test), _mode(mode)
{
    test.validate();
    buildEvents();
    if (mode == ProxyMode::Ptx60)
        eraseProxies();
    buildPoAndDep();
    buildPatterns();
    buildBarrierSync();
    buildMorallyStrong();
    buildCliques();
    buildReadSources();
    buildBaseLayers();
}

Program
Program::ptx60View() const
{
    // Only moral strength (its same-proxy condition) and the cliques
    // built from it read the proxies; the rest of the expansion is
    // mode-independent and is copied as is.
    Program view(*this);
    view._mode = ProxyMode::Ptx60;
    view.eraseProxies();
    view.buildMorallyStrong();
    view.buildCliques();
    return view;
}

void
Program::eraseProxies()
{
    // Proxy-oblivious baseline: every access is a generic access to the
    // canonical location. Locations are interned before any other
    // virtual address, so a location's own address id is its location
    // id.
    for (Event &e : _events) {
        if (!e.isMemory())
            continue;
        e.address = e.location;
        e.proxy = ProxyId{litmus::ProxyKind::Generic, e.address, -1};
    }
    _mixedProxies = false;
}

void
Program::buildBaseLayers()
{
    // The rf-independent base of the derived-relation stack, computed
    // once per expansion so every rf assignment can reuse it: base
    // causality without synchronizes-with, and the dependency closure
    // the incremental enumerator extends edge by edge.
    _mustCause = (_po | _barrierSync).transitiveClosure();
    _depClosure = _dep.transitiveClosure();
    _hasAtomicReads = std::any_of(
        _events.begin(), _events.end(),
        [](const Event &e) { return e.isRead() && e.isAtomic(); });
}

void
Program::buildEvents()
{
    // Locations in name order, with their init values.
    locationNames = _test->locations();
    const std::size_t L = locationNames.size();
    initValues.reserve(L);
    for (const auto &loc : locationNames)
        initValues.push_back(_test->initOf(loc));

    // Virtual addresses are interned in first-use order after the
    // locations' own names, so an init write's address id is its
    // location id; each address resolves its location once.
    std::vector<const std::string *> address_names;
    std::vector<LocationId> address_loc;
    address_names.reserve(L + 2 * _test->instructionCount());
    address_loc.reserve(address_names.capacity());
    for (std::size_t loc = 0; loc < L; loc++) {
        address_names.push_back(&locationNames[loc]);
        address_loc.push_back(static_cast<LocationId>(loc));
    }
    auto address_id = [&](const std::string &va) {
        for (std::size_t i = 0; i < address_names.size(); i++) {
            if (*address_names[i] == va)
                return static_cast<AddressId>(i);
        }
        const std::string loc = _test->locationOf(va);
        auto it = std::lower_bound(locationNames.begin(),
                                   locationNames.end(), loc);
        if (it == locationNames.end() || *it != loc)
            panic("address ", va, " maps to unknown location ", loc);
        address_names.push_back(&va);
        address_loc.push_back(
            static_cast<LocationId>(it - locationNames.begin()));
        return static_cast<AddressId>(address_names.size() - 1);
    };

    // Upper bound: one init write per location plus at most two events
    // per instruction (cp.async expands to a read and a write).
    _events.reserve(L + 2 * _test->instructionCount());

    // Init writes, one per location, ids 0..L-1.
    locationWrites.resize(L);
    for (LocationId loc = 0; loc < static_cast<LocationId>(L); loc++) {
        Event e;
        e.id = _events.size();
        e.kind = Event::Kind::Write;
        e.thread = -1;
        e.threadName = "init";
        e.isInit = true;
        e.location = loc;
        e.address = loc;
        e.proxy = ProxyId{litmus::ProxyKind::Generic, e.address, -1};
        e.sem = litmus::Semantics::Relaxed;
        e.scope = litmus::Scope::Sys;
        initWrites.push_back(e.id);
        _events.push_back(e);
    }

    const auto &threads = _test->threads();
    threadCta.resize(threads.size());
    threadGpu.resize(threads.size());

    for (std::size_t ti = 0; ti < threads.size(); ti++) {
        const auto &thread = threads[ti];
        threadCta[ti] = thread.cta;
        threadGpu[ti] = thread.gpu;
        for (std::size_t ii = 0; ii < thread.instructions.size(); ii++) {
            const auto &instr = thread.instructions[ii];

            Event base;
            base.thread = static_cast<int>(ti);
            base.threadName = thread.name;
            base.cta = thread.cta;
            base.gpu = thread.gpu;
            base.instrIndex = static_cast<int>(ii);
            base.sem = instr.sem;
            base.scope = instr.scope;
            base.instr = &instr;

            if (instr.opcode == litmus::Opcode::Fence) {
                base.id = _events.size();
                base.kind = Event::Kind::Fence;
                // Fences travel the generic path; no address.
                base.proxy =
                    ProxyId{litmus::ProxyKind::Generic, kNoLocation, -1};
                _events.push_back(base);
                continue;
            }
            if (instr.opcode == litmus::Opcode::FenceProxy) {
                base.id = _events.size();
                base.kind = Event::Kind::ProxyFence;
                base.proxyFence = instr.proxyFence;
                _events.push_back(base);
                continue;
            }
            if (instr.opcode == litmus::Opcode::Barrier) {
                base.id = _events.size();
                base.kind = Event::Kind::Barrier;
                _events.push_back(base);
                continue;
            }
            if (instr.opcode == litmus::Opcode::CpAsyncWait) {
                // The join doubles as this CTA's async proxy fence.
                base.id = _events.size();
                base.kind = Event::Kind::ProxyFence;
                base.proxyFence = litmus::ProxyFenceKind::Async;
                base.scope = litmus::Scope::Cta;
                _events.push_back(base);
                continue;
            }
            if (instr.opcode == litmus::Opcode::CpAsync) {
                // Forked copy: a read of the source and a write of the
                // destination, both via the async proxy.
                auto resolve = [&](const std::string &va, Event &e) {
                    e.address = address_id(va);
                    e.location =
                        address_loc[static_cast<std::size_t>(e.address)];
                    e.proxy = ProxyId{litmus::ProxyKind::Async,
                                      kNoLocation, thread.cta};
                };
                Event read = base;
                read.id = _events.size();
                read.kind = Event::Kind::Read;
                read.accessSize = instr.accessSize;
                resolve(instr.srcAddress, read);
                Event write = base;
                write.id = read.id + 1;
                write.kind = Event::Kind::Write;
                write.accessSize = instr.accessSize;
                resolve(instr.address, write);
                read.asyncCopyPartner = write.id;
                write.asyncCopyPartner = read.id;
                _reads.push_back(read.id);
                locationWrites[write.location].push_back(write.id);
                _events.push_back(read);
                _events.push_back(write);
                continue;
            }

            // Memory operation.
            base.address = address_id(instr.address);
            base.location =
                address_loc[static_cast<std::size_t>(base.address)];
            base.accessSize = instr.accessSize;
            if (instr.proxy == litmus::ProxyKind::Generic) {
                base.proxy = ProxyId{litmus::ProxyKind::Generic,
                                     base.address, -1};
            } else {
                base.proxy = ProxyId{instr.proxy, kNoLocation, thread.cta};
            }

            if (instr.isAtomic()) {
                Event read = base;
                read.id = _events.size();
                read.kind = Event::Kind::Read;
                read.destReg = instr.destReg;
                Event write = base;
                write.id = read.id + 1;
                write.kind = Event::Kind::Write;
                read.rmwPartner = write.id;
                write.rmwPartner = read.id;
                _reads.push_back(read.id);
                locationWrites[base.location].push_back(write.id);
                _events.push_back(read);
                _events.push_back(write);
            } else if (instr.isLoad()) {
                base.id = _events.size();
                base.kind = Event::Kind::Read;
                base.destReg = instr.destReg;
                _reads.push_back(base.id);
                _events.push_back(base);
            } else {
                base.id = _events.size();
                base.kind = Event::Kind::Write;
                locationWrites[base.location].push_back(base.id);
                _events.push_back(base);
            }
        }
    }

    // Collect fence lists.
    for (const auto &e : _events) {
        if (e.isFence() && e.sem == litmus::Semantics::Sc)
            _scFences.push_back(e.id);
        if (e.isProxyFence())
            _proxyFences.push_back(e.id);
    }

    // Static mixed-proxy summary (see usesMixedProxies()): a non-generic
    // access, or two distinct virtual addresses reaching one location.
    std::vector<AddressId> address_at(L, kNoLocation);
    for (const auto &e : _events) {
        if (!e.isMemory() || e.isInit)
            continue;
        if (e.proxy.kind != litmus::ProxyKind::Generic) {
            _mixedProxies = true;
            break;
        }
        AddressId &seen = address_at[static_cast<std::size_t>(e.location)];
        if (seen == kNoLocation) {
            seen = e.address;
        } else if (seen != e.address) {
            _mixedProxies = true;
            break;
        }
    }

    _overlapPairs = relation::Relation(_events.size());
    for (const Event &x : _events) {
        if (!x.isMemory() || x.isInit)
            continue;
        for (const Event &y : _events) {
            if (y.id == x.id || !y.isMemory() || y.isInit)
                continue;
            if (overlaps(x, y))
                _overlapPairs.insert(x.id, y.id);
        }
    }
}

void
Program::buildPoAndDep()
{
    const std::size_t n = _events.size();
    _po = relation::Relation(n);
    _dep = relation::Relation(n);

    // Program order per thread. Ordinary events form a total chain.
    // Asynchronous copies (extension, §3.1.4) "behave as if they fork a
    // new thread": the copy's events are ordered after every earlier
    // ordinary event, internally read-before-write, and before later
    // events only once a cp.async.wait_all joins them. The edges are
    // inserted exhaustively, so _po is transitive by construction.
    // A thread's events are contiguous in id order (construction
    // order), so one pass visits each thread in turn.
    std::vector<EventId> ordered;
    std::vector<EventId> pending;
    int thread = -1;
    for (const auto &e : _events) {
        if (e.thread < 0)
            continue;
        if (e.thread != thread) {
            thread = e.thread;
            ordered.clear();
            pending.clear();
        }
        const EventId id = e.id;
        const bool is_join =
            e.instr && e.instr->opcode == litmus::Opcode::CpAsyncWait;
        for (EventId prev : ordered)
            _po.insert(prev, id);
        if (e.isAsyncCopy()) {
            if (e.isWrite())
                _po.insert(e.asyncCopyPartner, id);
            pending.push_back(id);
        } else if (is_join) {
            for (EventId p : pending) {
                _po.insert(p, id);
                ordered.push_back(p);
            }
            pending.clear();
            ordered.push_back(id);
        } else {
            ordered.push_back(id);
        }
    }

    // Register def-use dependencies. Registers are written exactly once
    // (validated), by a read event. An RMW's operand dependencies land
    // on its write (the value consumer) and its read (address formation
    // is shared). The value and expected operands' definitions are kept
    // for value evaluation.
    operandDefs.assign(n, OperandDefs{});
    for (const auto &e : _events) {
        if (!e.instr || !e.isMemory())
            continue;
        auto depend = [&](const std::string &reg) {
            const EventId def = regDef(e.thread, reg);
            if (def != e.id)
                _dep.insert(def, e.id);
            return def;
        };
        const auto &instr = *e.instr;
        if (instr.value.isReg())
            operandDefs[e.id].value = depend(instr.value.reg);
        if (instr.expected.isReg())
            operandDefs[e.id].expected = depend(instr.expected.reg);
        for (const auto &coord : instr.addressCoordRegs)
            depend(coord);
    }
    // Internal RMW dependency: add and cas write values depend on the
    // value read; exch does not. An async copy's write always depends
    // on its read (it writes what it read).
    for (const auto &e : _events) {
        if (e.isWrite() && e.isAtomic() && e.instr &&
            (e.instr->atomOp == litmus::AtomOp::Add ||
             e.instr->atomOp == litmus::AtomOp::Cas)) {
            _dep.insert(e.rmwPartner, e.id);
        }
        if (e.isWrite() && e.isAsyncCopy())
            _dep.insert(e.asyncCopyPartner, e.id);
    }
}

void
Program::buildPatterns()
{
    for (const auto &e : _events) {
        if (e.isWrite() && !e.isInit && e.isStrong() &&
            litmus::hasRelease(e.sem)) {
            _releasePatterns.push_back({e.id, e.id});
        }
        if (e.isRead() && e.isStrong() && litmus::hasAcquire(e.sem))
            _acquirePatterns.push_back({e.id, e.id});
        if (e.isFence() && litmus::hasRelease(e.sem)) {
            // fence ; po ; strong write
            for (const auto &w : _events) {
                if (w.isWrite() && w.isStrong() &&
                    _po.contains(e.id, w.id)) {
                    _releasePatterns.push_back({e.id, w.id});
                }
            }
        }
        if (e.isFence() && litmus::hasAcquire(e.sem)) {
            // strong read ; po ; fence
            for (const auto &r : _events) {
                if (r.isRead() && r.isStrong() &&
                    _po.contains(r.id, e.id)) {
                    _acquirePatterns.push_back({r.id, e.id});
                }
            }
        }
    }
}

bool
Program::scopeIncludes(const Event &event, int thread) const
{
    if (thread < 0)
        return true; // the init pseudo-thread is visible at any scope
    switch (event.scope) {
      case litmus::Scope::Sys:
        return true;
      case litmus::Scope::Gpu:
        return event.gpu == threadGpu[static_cast<std::size_t>(thread)];
      case litmus::Scope::Cta:
        return event.gpu == threadGpu[static_cast<std::size_t>(thread)] &&
               event.cta == threadCta[static_cast<std::size_t>(thread)];
      case litmus::Scope::None:
        return false;
    }
    panic("unknown Scope");
}

bool
Program::overlaps(const Event &a, const Event &b) const
{
    return a.isMemory() && b.isMemory() && a.location == b.location &&
           a.accessSize == b.accessSize;
}

void
Program::buildBarrierSync()
{
    _barrierSync = relation::Relation(_events.size());
    // Group barrier events by (gpu, cta), per thread, in program order;
    // the i-th barriers of a CTA's threads rendezvous with each other.
    std::map<std::pair<int, int>, std::map<int, std::vector<EventId>>>
        by_cta;
    for (const auto &e : _events) {
        if (e.isBarrier())
            by_cta[{e.gpu, e.cta}][e.thread].push_back(e.id);
    }
    for (const auto &[cta, threads] : by_cta) {
        std::size_t instances = 0;
        for (const auto &[thread, ids] : threads)
            instances = std::max(instances, ids.size());
        for (std::size_t i = 0; i < instances; i++) {
            std::vector<EventId> instance;
            for (const auto &[thread, ids] : threads) {
                if (i < ids.size())
                    instance.push_back(ids[i]);
            }
            for (EventId a : instance) {
                for (EventId b : instance) {
                    if (a != b)
                        _barrierSync.insert(a, b);
                }
            }
        }
    }
}

bool
Program::sameProxy(const Event &a, const Event &b) const
{
    // Fences execute on the generic path and carry no address: a fence
    // matches another fence or any generic-proxy memory operation.
    if (a.isFence() && b.isFence())
        return true;
    if (a.isFence())
        return b.proxy.kind == litmus::ProxyKind::Generic;
    if (b.isFence())
        return a.proxy.kind == litmus::ProxyKind::Generic;
    return a.proxy == b.proxy;
}

bool
Program::morallyStrongPair(const Event &a, const Event &b) const
{
    if (a.id == b.id)
        return false;
    if (a.isProxyFence() || b.isProxyFence())
        return false;
    if (a.isBarrier() || b.isBarrier())
        return false;
    // Initialization writes behave as if performed before the program by
    // a system-scope thread: morally strong with any overlapping access.
    if (a.isInit || b.isInit)
        return overlaps(a, b);
    // (1) related in program order, or mutually-inclusive strong
    // scopes. Program order matters (not mere thread identity): a
    // forked async copy is unordered with the instructions between its
    // issue and its join, and hence not morally strong with them.
    const bool po_related =
        _po.contains(a.id, b.id) || _po.contains(b.id, a.id);
    const bool strong_pair = a.isStrong() && b.isStrong() &&
                             scopeIncludes(a, b.thread) &&
                             scopeIncludes(b, a.thread);
    if (!po_related && !strong_pair)
        return false;
    // (2) performed via the same proxy
    if (!sameProxy(a, b))
        return false;
    // (3) memory operations must overlap completely
    if (a.isMemory() && b.isMemory() && !overlaps(a, b))
        return false;
    // A memory operation and a fence cannot be "morally strong" in any
    // useful sense; restrict to memory/memory and fence/fence pairs.
    if (a.isMemory() != b.isMemory())
        return false;
    return true;
}

void
Program::buildMorallyStrong()
{
    const std::size_t n = _events.size();
    _ms = relation::Relation(n);
    // Every clause of morallyStrongPair is symmetric, so each unordered
    // pair is judged once.
    for (std::size_t a = 0; a < n; a++) {
        for (std::size_t b = a + 1; b < n; b++) {
            if (morallyStrongPair(_events[a], _events[b])) {
                _ms.insert(a, b);
                _ms.insert(b, a);
            }
        }
    }
}

void
Program::buildCliques()
{
    // Per location, find the maximal cliques of the morally strong graph
    // over that location's memory events (Bron-Kerbosch without
    // pivoting; litmus-scale inputs keep this tiny). Litmus-scale also
    // means the event universe fits one machine word, where the
    // candidate/excluded sets become plain bitmasks and the recursion
    // allocates nothing — this runs once per Program, which synthesis
    // constructs by the thousands.
    cliques.clear();
    const std::size_t n = _events.size();
    if (n <= 64) {
        buildCliquesBitset();
        return;
    }
    for (LocationId loc = 0;
         loc < static_cast<LocationId>(locationNames.size()); loc++) {
        std::vector<EventId> nodes;
        for (const auto &e : _events) {
            if (e.isMemory() && e.location == loc)
                nodes.push_back(e.id);
        }

        auto adjacent = [this](EventId a, EventId b) {
            return _ms.contains(a, b);
        };

        std::function<void(std::vector<EventId>, std::vector<EventId>,
                           std::vector<EventId>)>
            bron_kerbosch = [&](std::vector<EventId> r,
                                std::vector<EventId> p,
                                std::vector<EventId> x) {
                if (p.empty() && x.empty()) {
                    if (r.size() >= 2) {
                        relation::EventSet clique(_events.size());
                        for (EventId id : r)
                            clique.insert(id);
                        cliques.push_back(clique);
                    }
                    return;
                }
                std::vector<EventId> p_iter = p;
                for (EventId v : p_iter) {
                    std::vector<EventId> r2 = r;
                    r2.push_back(v);
                    std::vector<EventId> p2;
                    for (EventId u : p) {
                        if (u != v && adjacent(v, u))
                            p2.push_back(u);
                    }
                    std::vector<EventId> x2;
                    for (EventId u : x) {
                        if (adjacent(v, u))
                            x2.push_back(u);
                    }
                    bron_kerbosch(std::move(r2), std::move(p2),
                                  std::move(x2));
                    p.erase(std::find(p.begin(), p.end(), v));
                    x.push_back(v);
                }
            };
        bron_kerbosch({}, nodes, {});
    }
}

void
Program::buildCliquesBitset()
{
    const std::size_t n = _events.size();
    // Symmetric adjacency masks of the morally strong graph. The
    // general path tests adjacent(v, u) = _ms.contains(v, u) with v the
    // pivot-loop node; mirror that orientation exactly.
    std::uint64_t adj[64] = {};
    _ms.forEach([&](EventId a, EventId b) {
        adj[a] |= std::uint64_t{1} << b;
    });
    // Recursion depth is bounded by the clique size <= n <= 64.
    struct Frame
    {
        std::uint64_t r, p, x, iter;
    };
    Frame stack[65];
    for (LocationId loc = 0;
         loc < static_cast<LocationId>(locationNames.size()); loc++) {
        std::uint64_t nodes = 0;
        for (const auto &e : _events) {
            if (e.isMemory() && e.location == loc)
                nodes |= std::uint64_t{1} << e.id;
        }
        int top = 0;
        stack[0] = Frame{0, nodes, 0, nodes};
        while (top >= 0) {
            Frame &f = stack[top];
            if (f.p == 0 && f.x == 0) {
                if (std::popcount(f.r) >= 2) {
                    relation::EventSet clique(n);
                    std::uint64_t r = f.r;
                    while (r) {
                        clique.insert(static_cast<EventId>(
                            std::countr_zero(r)));
                        r &= r - 1;
                    }
                    cliques.push_back(std::move(clique));
                }
                top--;
                continue;
            }
            if (f.iter == 0) {
                top--;
                continue;
            }
            const auto v =
                static_cast<EventId>(std::countr_zero(f.iter));
            const std::uint64_t vb = std::uint64_t{1} << v;
            f.iter &= f.iter - 1;
            Frame child{f.r | vb, (f.p & adj[v]) & ~vb, f.x & adj[v],
                        0};
            child.iter = child.p;
            f.p &= ~vb;
            f.x |= vb;
            stack[++top] = child;
        }
    }
}

void
Program::buildReadSources()
{
    _readSources.resize(_events.size());
    for (EventId r : _reads) {
        const Event &read = _events[r];
        std::vector<EventId> sources;
        sources.push_back(initWrites[static_cast<std::size_t>(
            read.location)]);
        for (EventId w : locationWrites[static_cast<std::size_t>(
                 read.location)]) {
            if (w == read.rmwPartner || w == read.asyncCopyPartner)
                continue; // cannot read one's own paired write
            // A thread cannot observe its own program-order-later store:
            // reordering paths do not travel backwards in time.
            if (_po.contains(r, w))
                continue;
            sources.push_back(w);
        }
        _readSources[r] = std::move(sources);
    }
}

EventId
Program::regDef(int thread, const std::string &reg) const
{
    for (EventId r : _reads) {
        const Event &e = _events[r];
        if (e.thread == thread && e.destReg == reg)
            return r;
    }
    panic("no definition of register ", reg, " in thread ", thread);
}

const std::vector<EventId> &
Program::readSources(EventId read) const
{
    if (read >= _events.size() || !_events[read].isRead())
        panic("event ", read, " is not a read");
    return _readSources[read];
}

const std::vector<EventId> &
Program::writesAt(LocationId loc) const
{
    return locationWrites[static_cast<std::size_t>(loc)];
}

EventId
Program::initWrite(LocationId loc) const
{
    return initWrites[static_cast<std::size_t>(loc)];
}

const std::string &
Program::locationName(LocationId loc) const
{
    return locationNames[static_cast<std::size_t>(loc)];
}

} // namespace mixedproxy::model
