/**
 * @file
 * The synthesizer's skeleton space — programs as per-thread lists of
 * (template, location) slots over the instruction alphabet — and the
 * orderly generator that walks it one symmetry class at a time.
 */

#ifndef MIXEDPROXY_SYNTH_SKELETONS_HH
#define MIXEDPROXY_SYNTH_SKELETONS_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "synth/generator.hh"

namespace mixedproxy::synth {

/** One entry of the instruction alphabet. */
struct Template
{
    enum class Kind {
        Store,
        Load,
        ReleaseStore,
        AcquireLoad,
        FenceAcqRel,
        FenceSc,
        ConstLoad,     ///< ld.const through the location's alias
        AliasStore,    ///< generic store through the location's alias
        AliasLoad,     ///< generic load through the location's alias
        ProxyFenceConstant,
        ProxyFenceAlias,
        AtomAdd,
        AsyncCopy,     ///< cp.async [L], [other location]
        AsyncWait,
        Barrier,
    };

    Kind kind;
    bool usesLocation = true;
    bool isLoad = false;
    bool isStore = false;
};

/** The instruction alphabet @p opts selects, in generation order. */
inline std::vector<Template>
alphabet(const SynthOptions &opts)
{
    using K = Template::Kind;
    std::vector<Template> out;
    out.push_back({K::Store, true, false, true});
    out.push_back({K::Load, true, true, false});
    if (opts.withReleaseAcquire) {
        out.push_back({K::ReleaseStore, true, false, true});
        out.push_back({K::AcquireLoad, true, true, false});
    }
    if (opts.withFences) {
        out.push_back({K::FenceAcqRel, false, false, false});
        out.push_back({K::FenceSc, false, false, false});
    }
    if (opts.withProxies) {
        out.push_back({K::ConstLoad, true, true, false});
        out.push_back({K::AliasStore, true, false, true});
        out.push_back({K::AliasLoad, true, true, false});
        out.push_back({K::ProxyFenceConstant, false, false, false});
        out.push_back({K::ProxyFenceAlias, false, false, false});
    }
    if (opts.withAtomics)
        out.push_back({K::AtomAdd, true, true, true});
    if (opts.withAsync) {
        out.push_back({K::AsyncCopy, true, true, true});
        out.push_back({K::AsyncWait, false, false, false});
    }
    if (opts.withBarriers)
        out.push_back({K::Barrier, false, false, false});
    return out;
}

/** One (template, location) slot of a skeleton. */
using Slot = std::pair<std::size_t, std::size_t>;

/** A program skeleton: per thread, a list of slots. */
using Skeleton = std::vector<std::vector<Slot>>;

/** Mild pruning: keep programs that can exhibit communication. */
inline bool
worthChecking(const Skeleton &program, const std::vector<Template> &alpha)
{
    bool has_load = false;
    bool has_store = false;
    // Location touched by >= 2 instructions (otherwise trivially boring)
    std::size_t touches[2] = {0, 0};
    for (const auto &thread : program) {
        for (const auto &[tmpl, loc] : thread) {
            has_load |= alpha[tmpl].isLoad;
            has_store |= alpha[tmpl].isStore;
            if (alpha[tmpl].usesLocation)
                touches[loc]++;
        }
    }
    if (!has_load || !has_store)
        return false;
    if (touches[0] < 2 && touches[1] < 2)
        return false;
    return true;
}

/**
 * The orderly generator: one serial walk over the skeleton space that
 * stops at each symmetry-class representative worth checking.
 *
 * Skeletons related by permuting threads of equal length (σ) or
 * renaming locations (ρ) behave identically. The walk goes through
 * thread compositions into nonincreasing parts, largest first part
 * first; then, slot by slot, (template, location) lexicographically,
 * location-free templates at location 0 only. Within a composition
 * that is lexicographic order, so a class's first occurrence is its
 * minimum, judged locally with no seen-set: equal-length threads are
 * sorted, and the sorted location swap is not smaller. The swap maps
 * skeletons onto skeletons only without location-free slots.
 */
class SkeletonGenerator
{
  public:
    /**
     * The skeletons of exactly @p instructions slots over @p alpha, in
     * at most @p maxThreads threads, with @p locations (1 or 2)
     * locations.
     */
    SkeletonGenerator(std::vector<Template> alpha,
                      std::size_t instructions, std::size_t maxThreads,
                      std::size_t locations)
        : alpha(std::move(alpha)), locations(locations)
    {
        // Partitions of `instructions` in reverse lexicographic order
        // (the largest first part first), keeping those that fit.
        std::vector<std::size_t> parts{instructions};
        for (;;) {
            if (parts.size() <= maxThreads)
                shapes.push_back(parts);
            std::size_t k = parts.size();
            while (k > 0 && parts[k - 1] == 1)
                k--;
            if (k == 0)
                break;
            std::size_t rest = parts.size() - k + 1;
            const std::size_t part = --parts[k - 1];
            parts.resize(k);
            for (; rest > part; rest -= part)
                parts.push_back(part);
            parts.push_back(rest);
        }
    }

    /**
     * Advance to the next representative worth checking; false once
     * the space is exhausted.
     */
    bool
    next()
    {
        while (step()) {
            enumeratedCount++;
            if (!worthChecking(program, alpha))
                continue;
            prunedCount++;
            if (isRepresentative())
                return true;
        }
        return false;
    }

    /** The current representative (valid after next() returned true). */
    const Skeleton &current() const { return program; }

    /** Every skeleton walked so far. */
    std::uint64_t enumerated() const { return enumeratedCount; }

    /** The walked skeletons that passed worthChecking. */
    std::uint64_t afterPruning() const { return prunedCount; }

  private:
    /** Move to the next skeleton in walk order; false when done. */
    bool
    step()
    {
        // Odometer increment, last slot fastest; a slot that wraps
        // resets to the first choice and carries into the one before.
        for (std::size_t t = program.size(); t-- > 0;) {
            for (std::size_t s = program[t].size(); s-- > 0;) {
                auto &[tmpl, loc] = program[t][s];
                if (alpha[tmpl].usesLocation && loc + 1 < locations) {
                    loc++;
                    return true;
                }
                loc = 0;
                if (++tmpl < alpha.size())
                    return true;
                tmpl = 0;
            }
        }
        if (shape == shapes.size())
            return false;
        program.clear();
        for (std::size_t part : shapes[shape++])
            program.emplace_back(part, Slot{0, 0});
        image = program;
        return true;
    }

    /** Whether the current skeleton is its class's lexicographic minimum. */
    bool
    isRepresentative()
    {
        // σ: each block of equal-length threads must be sorted.
        if (!std::is_sorted(program.begin(), program.end(), threadBefore))
            return false;
        if (locations < 2)
            return true;
        // ρ: the swap is a symmetry only without location-free slots.
        for (std::size_t t = 0; t < program.size(); t++) {
            for (std::size_t s = 0; s < program[t].size(); s++) {
                const auto [tmpl, loc] = program[t][s];
                if (!alpha[tmpl].usesLocation)
                    return true;
                image[t][s] = {tmpl, 1 - loc};
            }
        }
        std::sort(image.begin(), image.end(), threadBefore);
        return !(image < program);
    }

    /** Longer first, then lexicographic: reorders equal lengths only. */
    static bool
    threadBefore(const std::vector<Slot> &a, const std::vector<Slot> &b)
    {
        return a.size() != b.size() ? a.size() > b.size() : a < b;
    }

    std::vector<Template> alpha;
    std::size_t locations;
    std::vector<std::vector<std::size_t>> shapes; ///< thread compositions
    std::size_t shape = 0;                        ///< next shape to walk
    Skeleton program;
    Skeleton image; ///< scratch for the swap
    std::uint64_t enumeratedCount = 0;
    std::uint64_t prunedCount = 0;
};

} // namespace mixedproxy::synth

#endif // MIXEDPROXY_SYNTH_SKELETONS_HH
