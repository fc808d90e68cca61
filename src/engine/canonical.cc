#include "canonical.hh"

#include <algorithm>
#include <functional>
#include <numeric>
#include <sstream>
#include <vector>

#include "relation/error.hh"

namespace mixedproxy::engine {

namespace {

using litmus::Instruction;
using litmus::LitmusTest;
using litmus::Operand;
using litmus::Thread;

/**
 * Bump the serialization version whenever the format below changes in
 * any way (field added, enum reordered, separator changed): on-disk
 * cache entries embed the key, and a silent format change would alias
 * semantically different programs.
 */
constexpr const char *kKeyVersion = "ck1";

/** Per-thread, order-assigned renaming of one name family. */
class NameInterner
{
  public:
    std::size_t intern(const std::string &name)
    {
        auto [it, inserted] = ids.emplace(name, order.size());
        if (inserted)
            order.push_back(name);
        return it->second;
    }

    const std::vector<std::string> &names() const { return order; }

  private:
    std::map<std::string, std::size_t> ids;
    std::vector<std::string> order;
};

void
appendOperand(std::ostringstream &os, const Operand &op,
              NameInterner &regs)
{
    switch (op.kind) {
      case Operand::Kind::None:
        os << "_";
        break;
      case Operand::Kind::Reg:
        os << "r" << regs.intern(op.reg);
        break;
      case Operand::Kind::Imm:
        os << "#" << op.imm;
        break;
    }
}

/**
 * Serialize one instruction. Addresses are rendered through @p addr:
 * the caller chooses thread-local alias numbering (for the order-free
 * thread pre-key) or global numbering (for the full key).
 */
void
appendInstruction(
    std::ostringstream &os, const Instruction &instr, NameInterner &regs,
    const std::function<std::string(const std::string &)> &addr)
{
    os << static_cast<int>(instr.opcode) << "."
       << static_cast<int>(instr.sem) << "."
       << static_cast<int>(instr.scope) << "."
       << static_cast<int>(instr.proxy) << "."
       << static_cast<int>(instr.proxyFence) << "."
       << static_cast<int>(instr.atomOp) << "." << instr.accessSize
       << ".b" << instr.barrierId;
    os << ",a:";
    if (instr.address.empty())
        os << "_";
    else
        os << addr(instr.address);
    os << ",s:";
    if (instr.srcAddress.empty())
        os << "_";
    else
        os << addr(instr.srcAddress);
    os << ",d:";
    if (instr.destReg.empty())
        os << "_";
    else
        os << "r" << regs.intern(instr.destReg);
    os << ",v:";
    appendOperand(os, instr.value, regs);
    os << ",e:";
    appendOperand(os, instr.expected, regs);
    os << ",c:";
    for (const std::string &coord : instr.addressCoordRegs)
        os << "r" << regs.intern(coord) << "+";
    os << ";";
}

/**
 * Render a virtual address as "<locIdx>" when it is the location's
 * canonical spelling, or "<locIdx>~<aliasIdx>" for an alias, with the
 * alias index assigned by @p aliasId. Keeping canonical-vs-alias and
 * alias identity in the key matters: the model routes generic accesses
 * through per-virtual-address proxies, so two aliases of one location
 * are NOT interchangeable with its canonical name.
 */
std::string
renderAddress(const LitmusTest &test, const std::string &va,
              const std::map<std::string, std::size_t> &locIndex,
              const std::function<std::size_t(const std::string &)>
                  &aliasId)
{
    const std::string loc = test.locationOf(va);
    auto it = locIndex.find(loc);
    if (it == locIndex.end())
        panic("canonicalize: unknown location '", loc, "'");
    std::string out = std::to_string(it->second);
    if (va != loc)
        out += "~" + std::to_string(aliasId(va));
    return out;
}

/**
 * The order-independent pre-key of one thread under a fixed location
 * numbering: registers renamed by first appearance within the thread,
 * aliases numbered per-thread. Invariant under renaming of everything
 * but invariant to nothing about other threads, so sorting threads by
 * pre-key yields a thread order that is itself renaming-invariant.
 */
std::string
threadPreKey(const LitmusTest &test, const Thread &thread,
             const std::map<std::string, std::size_t> &locIndex)
{
    std::ostringstream os;
    NameInterner regs;
    NameInterner aliases;
    auto addr = [&](const std::string &va) {
        return renderAddress(test, va, locIndex,
                             [&](const std::string &a) {
                                 return aliases.intern(a);
                             });
    };
    for (const Instruction &instr : thread.instructions)
        appendInstruction(os, instr, regs, addr);
    return os.str();
}

/** One fully resolved candidate: a thread order + location numbering. */
struct Candidate
{
    std::string key;
    std::vector<std::size_t> threadOrder; ///< canonical idx -> original
    std::vector<std::string> locByIndex;  ///< canonical idx -> name
};

/**
 * Assemble the complete serialization for thread order @p order under
 * location numbering @p locIndex: placement labels (CTA/GPU ids
 * relabeled by first appearance), instruction streams with globally
 * numbered aliases, and initial values.
 */
Candidate
assemble(const LitmusTest &test, const std::vector<std::size_t> &order,
         const std::map<std::string, std::size_t> &locIndex,
         const std::vector<std::string> &locByIndex)
{
    const auto &threads = test.threads();
    std::ostringstream os;
    os << kKeyVersion << "|T" << threads.size() << "|L"
       << locByIndex.size() << "|";

    std::map<int, std::size_t> ctaIds;
    std::map<int, std::size_t> gpuIds;
    std::map<std::string, std::size_t> aliasIds; ///< global numbering
    auto aliasId = [&](const std::string &va) {
        auto [it, inserted] = aliasIds.emplace(va, aliasIds.size());
        return it->second;
    };
    auto addr = [&](const std::string &va) {
        return renderAddress(test, va, locIndex, aliasId);
    };

    for (std::size_t original : order) {
        const Thread &thread = threads[original];
        std::size_t cta =
            ctaIds.emplace(thread.cta, ctaIds.size()).first->second;
        std::size_t gpu =
            gpuIds.emplace(thread.gpu, gpuIds.size()).first->second;
        os << "t[" << cta << "," << gpu << "]";
        NameInterner regs;
        for (const Instruction &instr : thread.instructions)
            appendInstruction(os, instr, regs, addr);
        os << "|";
    }
    for (std::size_t j = 0; j < locByIndex.size(); j++)
        os << "i" << j << "=" << test.initOf(locByIndex[j]) << ";";

    Candidate candidate;
    candidate.key = os.str();
    candidate.threadOrder = order;
    candidate.locByIndex = locByIndex;
    return candidate;
}

/**
 * All thread orders compatible with the pre-key sort: threads sorted
 * by pre-key, every ordering of each equal-key tie group (bounded by
 * kMaxTieOrderings per group; beyond it, original order — still
 * deterministic and sound, just possibly non-canonical).
 */
std::vector<std::vector<std::size_t>>
tieBrokenOrders(const std::vector<std::string> &preKeys)
{
    const std::size_t n = preKeys.size();
    std::vector<std::size_t> base(n);
    std::iota(base.begin(), base.end(), 0);
    std::stable_sort(base.begin(), base.end(),
                     [&](std::size_t a, std::size_t b) {
                         return preKeys[a] < preKeys[b];
                     });

    std::vector<std::vector<std::size_t>> orders = {base};
    std::size_t start = 0;
    while (start < n) {
        std::size_t stop = start + 1;
        while (stop < n &&
               preKeys[base[stop]] == preKeys[base[start]]) {
            stop++;
        }
        const std::size_t width = stop - start;
        if (width > 1) {
            // Expand every existing order by every permutation of this
            // tie group, respecting the global bound.
            std::vector<std::size_t> group(base.begin() + start,
                                           base.begin() + stop);
            std::sort(group.begin(), group.end());
            std::vector<std::vector<std::size_t>> expanded;
            std::vector<std::size_t> perm = group;
            std::size_t emitted = 0;
            do {
                for (const auto &order : orders) {
                    auto next = order;
                    std::copy(perm.begin(), perm.end(),
                              next.begin() + start);
                    expanded.push_back(std::move(next));
                }
                emitted++;
            } while (emitted < kMaxTieOrderings &&
                     std::next_permutation(perm.begin(), perm.end()));
            if (expanded.size() > kMaxTieOrderings) {
                expanded.resize(kMaxTieOrderings);
            }
            orders = std::move(expanded);
        }
        start = stop;
    }
    return orders;
}

} // namespace

litmus::Outcome
CanonicalForm::toCanonical(const litmus::Outcome &outcome) const
{
    litmus::Outcome out;
    for (const auto &[name, value] : outcome.registers) {
        auto it = regToCanonical.find(name);
        if (it == regToCanonical.end())
            panic("canonical form has no register '", name, "'");
        out.registers.emplace(it->second, value);
    }
    for (const auto &[name, value] : outcome.memory) {
        auto it = locToCanonical.find(name);
        if (it == locToCanonical.end())
            panic("canonical form has no location '", name, "'");
        out.memory.emplace(it->second, value);
    }
    return out;
}

litmus::Outcome
CanonicalForm::fromCanonical(const litmus::Outcome &outcome) const
{
    litmus::Outcome out;
    for (const auto &[name, value] : outcome.registers) {
        auto it = regFromCanonical.find(name);
        if (it == regFromCanonical.end())
            panic("cached outcome register '", name,
                  "' does not map back to this test (corrupt cache "
                  "entry?)");
        out.registers.emplace(it->second, value);
    }
    for (const auto &[name, value] : outcome.memory) {
        auto it = locFromCanonical.find(name);
        if (it == locFromCanonical.end())
            panic("cached outcome location '", name,
                  "' does not map back to this test (corrupt cache "
                  "entry?)");
        out.memory.emplace(it->second, value);
    }
    return out;
}

CanonicalForm
canonicalize(const litmus::LitmusTest &test)
{
    const auto &threads = test.threads();
    const std::vector<std::string> locations = test.locations();
    const std::size_t m = locations.size();

    // Location numberings to try: every permutation up to the bound,
    // else the single name-sorted order.
    std::vector<std::vector<std::size_t>> locPerms;
    if (m <= kMaxLocationPermutations) {
        std::vector<std::size_t> perm(m);
        std::iota(perm.begin(), perm.end(), 0);
        do {
            locPerms.push_back(perm);
        } while (std::next_permutation(perm.begin(), perm.end()));
    } else {
        std::vector<std::size_t> identity(m);
        std::iota(identity.begin(), identity.end(), 0);
        locPerms.push_back(identity);
    }

    Candidate best;
    for (const auto &perm : locPerms) {
        // perm[k] = canonical index of locations[k].
        std::map<std::string, std::size_t> locIndex;
        std::vector<std::string> locByIndex(m);
        for (std::size_t k = 0; k < m; k++) {
            locIndex[locations[k]] = perm[k];
            locByIndex[perm[k]] = locations[k];
        }

        std::vector<std::string> preKeys;
        preKeys.reserve(threads.size());
        for (const Thread &thread : threads)
            preKeys.push_back(threadPreKey(test, thread, locIndex));

        for (const auto &order : tieBrokenOrders(preKeys)) {
            Candidate candidate =
                assemble(test, order, locIndex, locByIndex);
            if (best.key.empty() || candidate.key < best.key)
                best = std::move(candidate);
        }
    }

    // Rebuild the rename maps for the winning candidate. Register
    // numbering replays the interning walk of assemble()/threadPreKey.
    CanonicalForm form;
    form.key = std::move(best.key);
    for (std::size_t ci = 0; ci < best.threadOrder.size(); ci++) {
        const Thread &thread = threads[best.threadOrder[ci]];
        NameInterner regs;
        for (const Instruction &instr : thread.instructions) {
            // Intern in exactly appendInstruction's operand order.
            if (!instr.destReg.empty())
                regs.intern(instr.destReg);
            if (instr.value.isReg())
                regs.intern(instr.value.reg);
            if (instr.expected.isReg())
                regs.intern(instr.expected.reg);
            for (const std::string &coord : instr.addressCoordRegs)
                regs.intern(coord);
        }
        const auto &names = regs.names();
        for (std::size_t k = 0; k < names.size(); k++) {
            const std::string original = thread.name + "." + names[k];
            const std::string canonical =
                "t" + std::to_string(ci) + ".r" + std::to_string(k);
            form.regToCanonical[original] = canonical;
            form.regFromCanonical[canonical] = original;
        }
    }
    for (std::size_t j = 0; j < best.locByIndex.size(); j++) {
        const std::string canonical = "m" + std::to_string(j);
        form.locToCanonical[best.locByIndex[j]] = canonical;
        form.locFromCanonical[canonical] = best.locByIndex[j];
    }
    return form;
}

} // namespace mixedproxy::engine
