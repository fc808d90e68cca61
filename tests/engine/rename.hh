/**
 * @file
 * Test-local helpers that produce renamed-but-isomorphic variants of a
 * litmus test: thread permutation, thread renaming, virtual-address
 * renaming, and per-thread register renaming (with the assertion text
 * rewritten to match). The canonical-key golden suite asserts
 * engine::canonicalize().key is invariant under exactly these relabelings.
 */

#ifndef MIXEDPROXY_TESTS_ENGINE_RENAME_HH
#define MIXEDPROXY_TESTS_ENGINE_RENAME_HH

#include <algorithm>
#include <cctype>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "litmus/test.hh"

namespace mixedproxy::engine_tests {

/** Per-test rename plan; identity when a map lacks an entry. */
struct RenamePlan
{
    /** New declaration order, as indices into test.threads(). */
    std::vector<std::size_t> threadOrder;

    /** Original thread name -> new thread name. */
    std::map<std::string, std::string> threads;

    /** Original virtual address -> new virtual address. */
    std::map<std::string, std::string> addresses;

    /** Per original thread name: original register -> new register. */
    std::map<std::string, std::map<std::string, std::string>> registers;
};

inline std::string
renamed(const std::map<std::string, std::string> &map,
        const std::string &name)
{
    auto it = map.find(name);
    return it == map.end() ? name : it->second;
}

/**
 * Rewrite the register/address identifiers of an assertion condition:
 * "thr.reg" pairs through the thread + per-thread register maps,
 * "[addr]" memory references through the address map.
 */
inline std::string
rewriteCondition(const std::string &text, const RenamePlan &plan)
{
    auto isIdent = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    };
    std::string out;
    std::size_t i = 0;
    while (i < text.size()) {
        if (text[i] == '[') {
            std::size_t j = i + 1;
            while (j < text.size() && isIdent(text[j]))
                j++;
            if (j < text.size() && text[j] == ']' && j > i + 1) {
                out += '[';
                out += renamed(plan.addresses,
                               text.substr(i + 1, j - i - 1));
                out += ']';
                i = j + 1;
                continue;
            }
        }
        if (isIdent(text[i]) &&
            !std::isdigit(static_cast<unsigned char>(text[i]))) {
            std::size_t j = i;
            while (j < text.size() && isIdent(text[j]))
                j++;
            std::string first = text.substr(i, j - i);
            if (j < text.size() && text[j] == '.') {
                std::size_t k = j + 1;
                while (k < text.size() && isIdent(text[k]))
                    k++;
                std::string second = text.substr(j + 1, k - j - 1);
                const auto regs = plan.registers.find(first);
                if (regs != plan.registers.end())
                    second = renamed(regs->second, second);
                out += renamed(plan.threads, first);
                out += '.';
                out += second;
                i = k;
                continue;
            }
            out += first;
            i = j;
            continue;
        }
        out += text[i++];
    }
    return out;
}

/** Apply @p plan to @p test, producing an isomorphic variant. */
inline litmus::LitmusTest
applyRename(const litmus::LitmusTest &test, const RenamePlan &plan)
{
    litmus::LitmusTest out(test.name() + "_renamed");

    std::vector<std::size_t> order = plan.threadOrder;
    if (order.empty()) {
        order.resize(test.threads().size());
        std::iota(order.begin(), order.end(), 0);
    }

    for (std::size_t index : order) {
        litmus::Thread thread = test.threads()[index];
        const auto regsIt = plan.registers.find(thread.name);
        const std::map<std::string, std::string> empty;
        const auto &regs =
            regsIt == plan.registers.end() ? empty : regsIt->second;
        for (litmus::Instruction &inst : thread.instructions) {
            inst.address = renamed(plan.addresses, inst.address);
            inst.srcAddress = renamed(plan.addresses, inst.srcAddress);
            for (std::string &coord : inst.addressCoordRegs)
                coord = renamed(regs, coord);
            inst.destReg = renamed(regs, inst.destReg);
            if (inst.value.isReg())
                inst.value.reg = renamed(regs, inst.value.reg);
            if (inst.expected.isReg())
                inst.expected.reg = renamed(regs, inst.expected.reg);
            inst.text = inst.toString();
        }
        thread.name = renamed(plan.threads, thread.name);
        out.addThread(std::move(thread));
    }

    for (const std::string &location : test.locations()) {
        for (const std::string &va : test.addressesOf(location)) {
            if (va != location)
                out.addAlias(renamed(plan.addresses, va),
                             renamed(plan.addresses, location));
        }
        out.setInit(renamed(plan.addresses, location),
                    test.initOf(location));
    }

    for (const litmus::Assertion &assertion : test.assertions())
        out.addAssertion(assertion.kind,
                         rewriteCondition(assertion.text, plan));

    out.validate();
    return out;
}

/** A plan renaming every thread, register, and address to fresh names
 *  (and optionally permuting declaration order). */
inline RenamePlan
freshNamePlan(const litmus::LitmusTest &test, bool reverseThreads)
{
    RenamePlan plan;
    plan.threadOrder.resize(test.threads().size());
    std::iota(plan.threadOrder.begin(), plan.threadOrder.end(), 0);
    if (reverseThreads)
        std::reverse(plan.threadOrder.begin(), plan.threadOrder.end());

    std::size_t threadCounter = 0;
    for (const litmus::Thread &thread : test.threads()) {
        plan.threads[thread.name] =
            "zzthread" + std::to_string(threadCounter++);
        auto &regs = plan.registers[thread.name];
        for (const litmus::Instruction &inst : thread.instructions) {
            auto fresh = [&](const std::string &reg) {
                if (!reg.empty() && !regs.count(reg))
                    regs[reg] = "zzreg" + std::to_string(regs.size());
            };
            fresh(inst.destReg);
            if (inst.value.isReg())
                fresh(inst.value.reg);
            if (inst.expected.isReg())
                fresh(inst.expected.reg);
            for (const std::string &coord : inst.addressCoordRegs)
                fresh(coord);
        }
    }

    std::size_t addressCounter = 0;
    for (const std::string &location : test.locations())
        for (const std::string &va : test.addressesOf(location))
            plan.addresses[va] =
                "zzaddr" + std::to_string(addressCounter++);
    return plan;
}

} // namespace mixedproxy::engine_tests

#endif // MIXEDPROXY_TESTS_ENGINE_RENAME_HH
