#include "sc.hh"

#include "relation/error.hh"

namespace mixedproxy::model {

ScExecutor::ScExecutor(const Program &program)
    : program(program), group_of(program.size(), 0),
      value(program.size(), 0),
      source(program.size(), Event::kNoPartner),
      last_write(program.locationCount())
{
    // A thread's events are contiguous and in program order, and the
    // events of one instruction are adjacent: each run of one
    // instrIndex is a group.
    const auto &events = program.events();
    groups.resize(program.test().threads().size());
    for (const Event &e : events) {
        if (e.isInit)
            continue;
        auto &thread = groups[static_cast<std::size_t>(e.thread)];
        if (thread.empty() ||
            events[thread.back().first].instrIndex != e.instrIndex) {
            thread.emplace_back(e.id, e.id + 1);
            total++;
        } else {
            thread.back().second = e.id + 1;
        }
        group_of[e.id] = thread.size() - 1;
    }
    next.assign(groups.size(), 0);
    for (LocationId loc = 0;
         loc < static_cast<LocationId>(program.locationCount()); loc++) {
        const EventId init = program.initWrite(loc);
        last_write[static_cast<std::size_t>(loc)] = init;
        value[init] = program.initValue(loc);
    }
    log.reserve(total);
}

bool
ScExecutor::ready(std::size_t t) const
{
    if (next[t] == groups[t].size())
        return false;
    const EventId first = groups[t][next[t]].first;
    if (!program.event(first).isBarrier())
        return true;
    for (const Event &partner : program.events()) {
        if (program.barrierSync().contains(first, partner.id) &&
            group_of[partner.id] >
                next[static_cast<std::size_t>(partner.thread)]) {
            return false; // a partner has not arrived yet
        }
    }
    return true;
}

void
ScExecutor::step(std::size_t t)
{
    const auto &[begin, end] = groups[t][next[t]++];
    Step done{t};
    auto operand = [&](const Event &e, const litmus::Operand &op,
                       EventId def) -> std::uint64_t {
        if (op.isImm())
            return op.imm;
        if (!op.isReg())
            panic("operand of ", e.toString(), " has no value");
        return value[def];
    };
    for (EventId id = begin; id < end; id++) {
        const Event &e = program.event(id);
        const auto loc = static_cast<std::size_t>(e.location);
        if (e.isRead()) {
            source[id] = last_write[loc];
            value[id] = value[source[id]];
            continue;
        }
        if (!e.isWrite())
            continue; // fences and barriers order nothing more under SC
        auto value_operand = [&] {
            return operand(e, e.instr->value, program.valueDef(id));
        };
        if (e.isAsyncCopy()) {
            value[id] = value[e.asyncCopyPartner];
        } else if (e.isAtomic()) {
            const std::uint64_t read_value = value[e.rmwPartner];
            switch (e.instr->atomOp) {
              case litmus::AtomOp::Add:
                value[id] = read_value + value_operand();
                break;
              case litmus::AtomOp::Exch:
                value[id] = value_operand();
                break;
              case litmus::AtomOp::Cas:
                if (read_value != operand(e, e.instr->expected,
                                          program.expectedDef(id)))
                    continue; // a failed CAS writes nothing
                value[id] = value_operand();
                break;
            }
        } else {
            value[id] = value_operand();
        }
        done.write = id;
        done.previous = last_write[loc];
        last_write[loc] = id;
    }
    log.push_back(done);
}

void
ScExecutor::undo()
{
    const Step &done = log.back();
    next[done.thread]--;
    if (done.write != Event::kNoPartner) {
        const auto loc =
            static_cast<std::size_t>(program.event(done.write).location);
        last_write[loc] = done.previous;
    }
    log.pop_back();
}

CandidateExecution
ScExecutor::candidate() const
{
    CandidateExecution cand;
    std::vector<std::size_t> executed(groups.size(), 0);
    for (const Step &done : log) {
        const auto &[begin, end] =
            groups[done.thread][executed[done.thread]++];
        for (EventId id = begin; id < end; id++) {
            if (program.event(id).isRead())
                cand.sourceOf[id] = source[id];
        }
        if (done.write != Event::kNoPartner)
            cand.coOrders[program.event(done.write).location].push_back(
                done.write);
    }
    return cand;
}

namespace {

/** Every interleaving from the executor's state; leaves go to @p finals. */
void
walk(ScExecutor &sc, const OutcomeLayout &layout,
     std::vector<std::uint64_t> &key,
     std::set<std::vector<std::uint64_t>> &finals)
{
    if (sc.finished()) {
        layout.pack(
            sc.values(), [&](LocationId loc) { return sc.lastWrite(loc); },
            key);
        finals.insert(key);
        return;
    }
    for (std::size_t t = 0; t < sc.threadCount(); t++) {
        if (!sc.ready(t))
            continue;
        sc.step(t);
        walk(sc, layout, key, finals);
        sc.undo();
    }
}

} // namespace

std::set<litmus::Outcome>
scOutcomes(const Program &program)
{
    // Many interleavings end in one final state, so leaves dedup as
    // packed keys and each distinct one becomes an Outcome once.
    const OutcomeLayout layout(program);
    ScExecutor sc(program);
    std::vector<std::uint64_t> key;
    std::set<std::vector<std::uint64_t>> finals;
    walk(sc, layout, key, finals);
    std::set<litmus::Outcome> out;
    for (const auto &final_key : finals)
        out.insert(layout.outcome(final_key));
    return out;
}

} // namespace mixedproxy::model
