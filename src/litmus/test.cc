#include "test.hh"

#include <algorithm>
#include <set>
#include <sstream>

#include "relation/error.hh"

namespace mixedproxy::litmus {

std::string
toString(AssertKind kind)
{
    switch (kind) {
      case AssertKind::Require: return "require";
      case AssertKind::Permit: return "permit";
      case AssertKind::Forbid: return "forbid";
    }
    panic("unknown AssertKind");
}

LitmusTest::LitmusTest(std::string name)
    : _name(std::move(name))
{}

std::size_t
LitmusTest::addThread(Thread thread)
{
    _validated = false;
    _threads.push_back(std::move(thread));
    return _threads.size() - 1;
}

void
LitmusTest::addAlias(const std::string &va, const std::string &canonical)
{
    if (va == canonical)
        fatal("address '", va, "' cannot alias itself");
    // Union the two alias classes; the canonical representative is the
    // root of the chain.
    std::string root = locationOf(canonical);
    if (locationOf(va) == root)
        return; // already aliased
    if (aliasTo.count(va) || locationOf(va) != va) {
        fatal("address '", va, "' is already aliased to '", locationOf(va),
              "'");
    }
    _validated = false;
    aliasTo[va] = root;
}

std::string
LitmusTest::locationOf(const std::string &va) const
{
    std::string cur = va;
    std::size_t hops = 0;
    while (true) {
        auto it = aliasTo.find(cur);
        if (it == aliasTo.end())
            return cur;
        cur = it->second;
        if (++hops > aliasTo.size())
            panic("alias cycle involving '", va, "'");
    }
}

std::vector<std::string>
LitmusTest::locations() const
{
    std::set<std::string> locs;
    for (const auto &thread : _threads) {
        for (const auto &instr : thread.instructions) {
            if (instr.isMemoryOp()) {
                locs.insert(locationOf(instr.address));
                if (!instr.srcAddress.empty())
                    locs.insert(locationOf(instr.srcAddress));
            }
        }
    }
    for (const auto &[loc, value] : initValues)
        locs.insert(loc);
    return {locs.begin(), locs.end()};
}

std::vector<std::string>
LitmusTest::addressesOf(const std::string &location) const
{
    std::set<std::string> vas;
    for (const auto &thread : _threads) {
        for (const auto &instr : thread.instructions) {
            if (!instr.isMemoryOp())
                continue;
            if (locationOf(instr.address) == location)
                vas.insert(instr.address);
            if (!instr.srcAddress.empty() &&
                locationOf(instr.srcAddress) == location) {
                vas.insert(instr.srcAddress);
            }
        }
    }
    if (locationOf(location) == location)
        vas.insert(location);
    return {vas.begin(), vas.end()};
}

void
LitmusTest::setInit(const std::string &va, std::uint64_t value)
{
    _validated = false;
    initValues[locationOf(va)] = value;
}

std::uint64_t
LitmusTest::initOf(const std::string &location) const
{
    auto it = initValues.find(locationOf(location));
    return it == initValues.end() ? 0 : it->second;
}

void
LitmusTest::addAssertion(AssertKind kind, const std::string &condition)
{
    Assertion a;
    a.kind = kind;
    a.condition = parseCondition(condition);
    a.text = condition;
    _validated = false;
    _assertions.push_back(std::move(a));
}

void
LitmusTest::validate() const
{
    if (_validated)
        return;
    if (_threads.empty())
        fatal("test '", _name, "' has no threads");

    // Litmus tests are tiny (a handful of threads, registers, and
    // locations), so every uniqueness check below is a linear scan
    // over a flat scratch vector: validate() runs once per synthesized
    // candidate, where the per-call set/map node churn of the obvious
    // implementation dominated its allocation profile.
    std::vector<std::pair<int, int>> cta_gpu;
    std::vector<const std::string *> defined;
    for (std::size_t ti = 0; ti < _threads.size(); ti++) {
        const Thread &thread = _threads[ti];
        for (std::size_t tj = 0; tj < ti; tj++) {
            if (_threads[tj].name == thread.name)
                fatal("duplicate thread name '", thread.name, "'");
        }
        bool placed = false;
        for (const auto &[cta, gpu] : cta_gpu) {
            if (cta != thread.cta)
                continue;
            placed = true;
            if (gpu != thread.gpu) {
                fatal("CTA ", thread.cta, " placed on two GPUs (", gpu,
                      " and ", thread.gpu, ")");
            }
        }
        if (!placed)
            cta_gpu.emplace_back(thread.cta, thread.gpu);
        if (thread.instructions.empty())
            fatal("thread '", thread.name, "' has no instructions");

        defined.clear();
        auto is_defined = [&](const std::string &reg) {
            for (const std::string *d : defined) {
                if (*d == reg)
                    return true;
            }
            return false;
        };
        for (const auto &instr : thread.instructions) {
            instr.forEachSourceReg([&](const std::string &src) {
                if (!is_defined(src)) {
                    fatal("thread '", thread.name, "' reads register '",
                          src, "' before any definition");
                }
            });
            if (!instr.destReg.empty()) {
                if (is_defined(instr.destReg)) {
                    fatal("thread '", thread.name,
                          "' writes register '", instr.destReg,
                          "' more than once");
                }
                defined.push_back(&instr.destReg);
            }
        }
    }

    // Execution barriers: every thread of a CTA must execute the same
    // sequence of bar.sync ids, or the rendezvous deadlocks.
    struct CtaBarriers
    {
        int gpu;
        int cta;
        std::vector<unsigned> seq;
        const std::string *representative;
    };
    std::vector<CtaBarriers> barrier_seq;
    std::vector<unsigned> seq;
    for (const auto &thread : _threads) {
        seq.clear();
        for (const auto &instr : thread.instructions) {
            if (instr.opcode == Opcode::Barrier)
                seq.push_back(instr.barrierId);
        }
        CtaBarriers *found = nullptr;
        for (auto &cb : barrier_seq) {
            if (cb.gpu == thread.gpu && cb.cta == thread.cta) {
                found = &cb;
                break;
            }
        }
        if (!found) {
            barrier_seq.push_back(
                {thread.gpu, thread.cta, seq, &thread.name});
        } else if (found->seq != seq) {
            fatal("threads '", *found->representative, "' and '",
                  thread.name, "' in CTA ", thread.cta,
                  " execute different bar.sync sequences");
        }
    }

    // Access-size consistency per location (mixed-size is unsupported).
    std::vector<std::pair<std::string, unsigned>> size_of;
    auto check_size = [&](const std::string &va, unsigned size) {
        std::string loc = locationOf(va);
        for (const auto &[known, known_size] : size_of) {
            if (known != loc)
                continue;
            if (known_size != size) {
                fatal("mixed access sizes on location '", loc,
                      "' are not supported");
            }
            return;
        }
        size_of.emplace_back(std::move(loc), size);
    };
    for (const auto &thread : _threads) {
        for (const auto &instr : thread.instructions) {
            if (!instr.isMemoryOp())
                continue;
            check_size(instr.address, instr.accessSize);
            if (!instr.srcAddress.empty())
                check_size(instr.srcAddress, instr.accessSize);
        }
    }

    _validated = true;
}

std::size_t
LitmusTest::instructionCount() const
{
    std::size_t n = 0;
    for (const auto &thread : _threads)
        n += thread.instructions.size();
    return n;
}

std::string
LitmusTest::toString() const
{
    std::ostringstream os;
    os << "name: " << _name << "\n";
    for (const auto &[va, canonical] : aliasTo)
        os << "alias " << va << " " << canonical << "\n";
    for (const auto &[loc, value] : initValues)
        os << "init " << loc << " " << value << "\n";
    for (const auto &thread : _threads) {
        os << "\nthread " << thread.name << " cta " << thread.cta
           << " gpu " << thread.gpu << ":\n";
        for (const auto &instr : thread.instructions)
            os << "  " << instr.toString() << "\n";
    }
    for (const auto &assertion : _assertions) {
        os << "\n" << litmus::toString(assertion.kind) << ": "
           << (assertion.text.empty() ? assertion.condition->toString()
                                      : assertion.text)
           << "\n";
    }
    return os.str();
}

LitmusBuilder::LitmusBuilder(std::string name)
    : test(std::move(name))
{}

LitmusBuilder &
LitmusBuilder::alias(const std::string &va, const std::string &canonical)
{
    test.addAlias(va, canonical);
    return *this;
}

LitmusBuilder &
LitmusBuilder::init(const std::string &va, std::uint64_t value)
{
    test.setInit(va, value);
    return *this;
}

LitmusBuilder &
LitmusBuilder::thread(const std::string &name, int cta, int gpu,
                      const std::vector<std::string> &instructions)
{
    Thread t;
    t.name = name;
    t.cta = cta;
    t.gpu = gpu;
    for (const auto &text : instructions)
        t.instructions.push_back(decode(text));
    test.addThread(std::move(t));
    return *this;
}

LitmusBuilder &
LitmusBuilder::require(const std::string &condition)
{
    test.addAssertion(AssertKind::Require, condition);
    return *this;
}

LitmusBuilder &
LitmusBuilder::permit(const std::string &condition)
{
    test.addAssertion(AssertKind::Permit, condition);
    return *this;
}

LitmusBuilder &
LitmusBuilder::forbid(const std::string &condition)
{
    test.addAssertion(AssertKind::Forbid, condition);
    return *this;
}

LitmusTest
LitmusBuilder::build() const
{
    test.validate();
    return test;
}

} // namespace mixedproxy::litmus
