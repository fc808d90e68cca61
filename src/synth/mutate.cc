#include "mutate.hh"

#include "relation/error.hh"

namespace mixedproxy::synth {

namespace {

/** Copy aliases and init values (the address map) of @p test. */
litmus::LitmusTest
cloneSkeleton(const litmus::LitmusTest &test)
{
    // Avoid stacking suffixes across repeated mutations.
    std::string name = test.name();
    if (!name.ends_with("_shrunk"))
        name += "_shrunk";
    litmus::LitmusTest out(name);
    for (const auto &loc : test.locations()) {
        for (const auto &va : test.addressesOf(loc)) {
            if (va != loc)
                out.addAlias(va, loc);
        }
        if (test.initOf(loc) != 0)
            out.setInit(loc, test.initOf(loc));
    }
    return out;
}

} // namespace

litmus::LitmusTest
withoutInstruction(const litmus::LitmusTest &test, std::size_t thread,
                   std::size_t index)
{
    if (thread >= test.threads().size())
        panic("withoutInstruction: no thread ", thread);
    if (index >= test.threads()[thread].instructions.size())
        panic("withoutInstruction: no instruction ", index);

    litmus::LitmusTest out = cloneSkeleton(test);
    for (std::size_t t = 0; t < test.threads().size(); t++) {
        litmus::Thread copy = test.threads()[t];
        if (t == thread) {
            copy.instructions.erase(
                copy.instructions.begin() +
                static_cast<std::ptrdiff_t>(index));
        }
        if (!copy.instructions.empty())
            out.addThread(std::move(copy));
    }
    return out;
}

litmus::LitmusTest
withoutThread(const litmus::LitmusTest &test, std::size_t thread)
{
    if (thread >= test.threads().size())
        panic("withoutThread: no thread ", thread);
    litmus::LitmusTest out = cloneSkeleton(test);
    for (std::size_t t = 0; t < test.threads().size(); t++) {
        if (t != thread)
            out.addThread(test.threads()[t]);
    }
    return out;
}

} // namespace mixedproxy::synth
