#include "sc_reference.hh"

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "relation/error.hh"

namespace mixedproxy::synth {

namespace {

/**
 * Pre-resolved instruction: the symbolic location and register names
 * are interned to dense ids once, so the exponential interleaving walk
 * below never touches a string. The synthesis loop calls scOutcomes
 * once per candidate program, and the per-step state copy dominated
 * its profile when the state held string-keyed maps.
 */
struct IndexedInstr
{
    const litmus::Instruction *instr = nullptr;
    int locId = -1;    ///< location of `address` (memory ops; else -1)
    int srcLocId = -1; ///< location of `srcAddress` (cp.async; else -1)
    int destRegId = -1;
    int valueRegId = -1;    ///< `value` operand when it names a register
    int expectedRegId = -1; ///< `expected` operand likewise
};

struct IndexedTest
{
    std::vector<std::string> locNames; ///< locId -> location name
    std::vector<std::uint64_t> initValues;
    /** Per thread: regId -> register name. */
    std::vector<std::vector<std::string>> regNames;
    std::vector<std::vector<IndexedInstr>> instrs;
    /** Offset of thread t's registers in the flat register arrays. */
    std::vector<std::size_t> regBase;
    std::size_t regTotal = 0;
};

struct ScState
{
    std::vector<std::uint64_t> memory; ///< by locId
    std::vector<std::size_t> pc;
    std::vector<std::size_t> barriersPassed;
    /** Flat register file, thread t's regId r at regBase[t] + r. */
    std::vector<std::uint64_t> regValues;
    std::vector<unsigned char> regWritten;
};

int
regIdFor(std::vector<std::string> &names, const std::string &reg)
{
    for (std::size_t i = 0; i < names.size(); i++) {
        if (names[i] == reg)
            return static_cast<int>(i);
    }
    names.push_back(reg);
    return static_cast<int>(names.size() - 1);
}

IndexedTest
buildIndex(const litmus::LitmusTest &test)
{
    IndexedTest idx;
    idx.locNames = test.locations();
    idx.initValues.reserve(idx.locNames.size());
    for (const auto &loc : idx.locNames)
        idx.initValues.push_back(test.initOf(loc));

    auto locIdOf = [&](const std::string &va) {
        const std::string loc = test.locationOf(va);
        for (std::size_t i = 0; i < idx.locNames.size(); i++) {
            if (idx.locNames[i] == loc)
                return static_cast<int>(i);
        }
        panic("SC reference: unknown location ", loc);
    };

    const auto &threads = test.threads();
    idx.regNames.resize(threads.size());
    idx.instrs.resize(threads.size());
    for (std::size_t t = 0; t < threads.size(); t++) {
        auto &names = idx.regNames[t];
        for (const auto &instr : threads[t].instructions) {
            IndexedInstr ii;
            ii.instr = &instr;
            switch (instr.opcode) {
              case litmus::Opcode::Ld:
              case litmus::Opcode::Tex:
              case litmus::Opcode::Suld:
              case litmus::Opcode::St:
              case litmus::Opcode::Sust:
              case litmus::Opcode::Atom:
                ii.locId = locIdOf(instr.address);
                break;
              case litmus::Opcode::CpAsync:
                ii.locId = locIdOf(instr.address);
                ii.srcLocId = locIdOf(instr.srcAddress);
                break;
              default:
                break;
            }
            if (!instr.destReg.empty())
                ii.destRegId = regIdFor(names, instr.destReg);
            if (instr.value.isReg())
                ii.valueRegId = regIdFor(names, instr.value.reg);
            if (instr.expected.isReg())
                ii.expectedRegId = regIdFor(names, instr.expected.reg);
            idx.instrs[t].push_back(ii);
        }
    }
    idx.regBase.resize(threads.size());
    for (std::size_t t = 0; t < threads.size(); t++) {
        idx.regBase[t] = idx.regTotal;
        idx.regTotal += idx.regNames[t].size();
    }
    return idx;
}

/** May thread @p t pass the barrier it is standing at? */
bool
barrierReady(const litmus::LitmusTest &test, const ScState &state,
             std::size_t t)
{
    const auto &self = test.threads()[t];
    for (std::size_t u = 0; u < test.threads().size(); u++) {
        if (u == t)
            continue;
        const auto &other = test.threads()[u];
        if (other.cta != self.cta || other.gpu != self.gpu)
            continue;
        if (state.barriersPassed[u] > state.barriersPassed[t])
            continue;
        if (state.barriersPassed[u] == state.barriersPassed[t] &&
            state.pc[u] < other.instructions.size() &&
            other.instructions[state.pc[u]].opcode ==
                litmus::Opcode::Barrier) {
            continue;
        }
        return false;
    }
    return true;
}

std::uint64_t
regValue(const ScState &state, const IndexedTest &idx, std::size_t t,
         int reg_id)
{
    const std::size_t slot = idx.regBase[t] + static_cast<std::size_t>(reg_id);
    if (!state.regWritten[slot])
        panic("SC reference: read of unwritten register");
    return state.regValues[slot];
}

std::uint64_t
operandValue(const ScState &state, const IndexedTest &idx, std::size_t t,
             const litmus::Operand &op, int reg_id)
{
    if (op.isImm())
        return op.imm;
    if (op.isReg())
        return regValue(state, idx, t, reg_id);
    panic("operand has no value");
}

void
writeReg(ScState &state, const IndexedTest &idx, std::size_t t, int reg_id,
         std::uint64_t value)
{
    const std::size_t slot = idx.regBase[t] + static_cast<std::size_t>(reg_id);
    state.regValues[slot] = value;
    state.regWritten[slot] = 1;
}

/**
 * Final states of the interleaving walk, deduplicated as flat value
 * vectors: per register slot its written flag and value, then every
 * location's value. Many interleavings end in one final state, so the
 * string-keyed litmus::Outcome is built once per distinct state, not
 * once per leaf.
 */
struct FinalStates
{
    std::set<std::vector<std::uint64_t>> distinct;
    std::vector<std::uint64_t> key; ///< the leaf being recorded

    void
    record(const ScState &state)
    {
        key.clear();
        for (std::size_t slot = 0; slot < state.regValues.size(); slot++) {
            const bool written = state.regWritten[slot] != 0;
            key.push_back(written ? 1 : 0);
            key.push_back(written ? state.regValues[slot] : 0);
        }
        key.insert(key.end(), state.memory.begin(), state.memory.end());
        distinct.insert(key);
    }

    std::set<litmus::Outcome>
    outcomes(const litmus::LitmusTest &test, const IndexedTest &idx) const
    {
        std::set<litmus::Outcome> out;
        for (const auto &k : distinct) {
            litmus::Outcome outcome;
            for (std::size_t t = 0; t < idx.instrs.size(); t++) {
                const auto &name = test.threads()[t].name;
                for (std::size_t r = 0; r < idx.regNames[t].size(); r++) {
                    const std::size_t slot = idx.regBase[t] + r;
                    if (k[2 * slot] != 0) {
                        outcome.registers[name + "." +
                                          idx.regNames[t][r]] =
                            k[2 * slot + 1];
                    }
                }
            }
            const std::size_t mem = 2 * idx.regTotal;
            for (std::size_t l = 0; l < idx.locNames.size(); l++)
                outcome.memory[idx.locNames[l]] = k[mem + l];
            out.insert(std::move(outcome));
        }
        return out;
    }
};

void
explore(const litmus::LitmusTest &test, const IndexedTest &idx,
        ScState &state, FinalStates &finals)
{
    bool any = false;
    for (std::size_t t = 0; t < idx.instrs.size(); t++) {
        const auto &instrs = idx.instrs[t];
        if (state.pc[t] >= instrs.size())
            continue;
        if (instrs[state.pc[t]].instr->opcode == litmus::Opcode::Barrier &&
            !barrierReady(test, state, t)) {
            any = true; // someone else must move first
            continue;
        }
        any = true;

        // Execute instrs[pc] in place, recurse, undo. Every opcode
        // touches at most one memory cell and one register slot, so an
        // undo record on the stack replaces copying the whole state.
        const IndexedInstr &ii = instrs[state.pc[t]];
        const auto &instr = *ii.instr;
        std::ptrdiff_t mem_slot = -1, reg_slot = -1;
        std::uint64_t saved_mem = 0, saved_reg = 0;
        unsigned char saved_written = 0;
        switch (instr.opcode) {
          case litmus::Opcode::St:
          case litmus::Opcode::Sust:
          case litmus::Opcode::CpAsync:
            mem_slot = static_cast<std::ptrdiff_t>(ii.locId);
            break;
          case litmus::Opcode::Atom:
            mem_slot = static_cast<std::ptrdiff_t>(ii.locId);
            [[fallthrough]];
          case litmus::Opcode::Ld:
          case litmus::Opcode::Tex:
          case litmus::Opcode::Suld:
            if (ii.destRegId >= 0) {
                reg_slot = static_cast<std::ptrdiff_t>(
                    idx.regBase[t] +
                    static_cast<std::size_t>(ii.destRegId));
            }
            break;
          default:
            break;
        }
        if (mem_slot >= 0)
            saved_mem = state.memory[static_cast<std::size_t>(mem_slot)];
        if (reg_slot >= 0) {
            saved_reg =
                state.regValues[static_cast<std::size_t>(reg_slot)];
            saved_written =
                state.regWritten[static_cast<std::size_t>(reg_slot)];
        }
        state.pc[t]++;

        switch (instr.opcode) {
          case litmus::Opcode::Ld:
          case litmus::Opcode::Tex:
          case litmus::Opcode::Suld:
            writeReg(state, idx, t, ii.destRegId, state.memory[ii.locId]);
            break;
          case litmus::Opcode::St:
          case litmus::Opcode::Sust:
            state.memory[ii.locId] = operandValue(state, idx, t,
                                                  instr.value,
                                                  ii.valueRegId);
            break;
          case litmus::Opcode::Atom: {
            std::uint64_t old = state.memory[ii.locId];
            if (ii.destRegId >= 0)
                writeReg(state, idx, t, ii.destRegId, old);
            switch (instr.atomOp) {
              case litmus::AtomOp::Add:
                state.memory[ii.locId] =
                    old + operandValue(state, idx, t, instr.value,
                                       ii.valueRegId);
                break;
              case litmus::AtomOp::Exch:
                state.memory[ii.locId] = operandValue(
                    state, idx, t, instr.value, ii.valueRegId);
                break;
              case litmus::AtomOp::Cas:
                if (old == operandValue(state, idx, t, instr.expected,
                                        ii.expectedRegId)) {
                    state.memory[ii.locId] = operandValue(
                        state, idx, t, instr.value, ii.valueRegId);
                }
                break;
            }
            break;
          }
          case litmus::Opcode::CpAsync:
            // SC machine: the copy happens synchronously at issue.
            state.memory[ii.locId] = state.memory[ii.srcLocId];
            break;
          case litmus::Opcode::Barrier:
            state.barriersPassed[t]++;
            break;
          case litmus::Opcode::Fence:
          case litmus::Opcode::FenceProxy:
          case litmus::Opcode::CpAsyncWait:
            break; // no-ops under SC
        }

        explore(test, idx, state, finals);

        state.pc[t]--;
        if (instr.opcode == litmus::Opcode::Barrier)
            state.barriersPassed[t]--;
        if (mem_slot >= 0)
            state.memory[static_cast<std::size_t>(mem_slot)] = saved_mem;
        if (reg_slot >= 0) {
            state.regValues[static_cast<std::size_t>(reg_slot)] =
                saved_reg;
            state.regWritten[static_cast<std::size_t>(reg_slot)] =
                saved_written;
        }
    }

    if (!any)
        finals.record(state);
}

} // namespace

std::set<litmus::Outcome>
scOutcomes(const litmus::LitmusTest &test)
{
    test.validate();
    const IndexedTest idx = buildIndex(test);
    ScState state;
    state.memory = idx.initValues;
    state.pc.assign(idx.instrs.size(), 0);
    state.barriersPassed.assign(idx.instrs.size(), 0);
    state.regValues.assign(idx.regTotal, 0);
    state.regWritten.assign(idx.regTotal, 0);
    FinalStates finals;
    explore(test, idx, state, finals);
    return finals.outcomes(test, idx);
}

} // namespace mixedproxy::synth
