/**
 * @file
 * Oracle for the synthesizer's orderly generator (synth/skeletons.hh).
 *
 * The reference is the dedup the generator replaced: walk every
 * skeleton in the same order with plain recursion, key each one that
 * passes worthChecking by its canonical form modulo thread and
 * location relabeling, and keep the first occurrence of every key in a
 * seen-set. The generator must emit exactly those skeletons, in the
 * same order, with the same enumerated and pruned counts — which is
 * what keeps test names (synth_<i>) and report bytes unchanged.
 */

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "synth/skeletons.hh"

namespace {

using namespace mixedproxy::synth;

/** Canonical key modulo thread permutation and location renaming. */
std::string
canonicalKey(const Skeleton &program, std::size_t locations)
{
    std::string best;
    std::vector<std::size_t> loc_perm(locations);
    for (std::size_t i = 0; i < locations; i++)
        loc_perm[i] = i;
    do {
        // Relabel locations (location-free slots included), then sort
        // threads for thread symmetry.
        std::vector<std::string> thread_keys;
        for (const auto &thread : program) {
            std::string key;
            for (const auto &[tmpl, loc] : thread) {
                key += static_cast<char>('A' + tmpl);
                key += static_cast<char>('0' + loc_perm[loc]);
            }
            thread_keys.push_back(key);
        }
        std::sort(thread_keys.begin(), thread_keys.end());
        std::string whole;
        for (const auto &key : thread_keys) {
            whole += key;
            whole += '|';
        }
        if (best.empty() || whole < best)
            best = whole;
    } while (std::next_permutation(loc_perm.begin(), loc_perm.end()));
    return best;
}

struct Walk
{
    std::uint64_t enumerated = 0;
    std::uint64_t pruned = 0;
    std::vector<Skeleton> unique;
};

/** The brute-force reference: recursive walk plus seen-set dedup. */
Walk
oracleWalk(const SynthOptions &opts)
{
    const auto alpha = alphabet(opts);
    Walk walk;
    std::set<std::string> seen;
    Skeleton program;
    std::function<void(std::size_t, std::size_t)> fill =
        [&](std::size_t thread, std::size_t slot) {
            if (thread == program.size()) {
                walk.enumerated++;
                if (!worthChecking(program, alpha))
                    return;
                walk.pruned++;
                if (seen.insert(canonicalKey(program, opts.maxLocations))
                        .second)
                    walk.unique.push_back(program);
                return;
            }
            std::size_t next_thread = thread;
            std::size_t next_slot = slot + 1;
            if (next_slot == program[thread].size()) {
                next_thread = thread + 1;
                next_slot = 0;
            }
            for (std::size_t tmpl = 0; tmpl < alpha.size(); tmpl++) {
                const std::size_t loc_count =
                    alpha[tmpl].usesLocation ? opts.maxLocations : 1;
                for (std::size_t loc = 0; loc < loc_count; loc++) {
                    program[thread][slot] = {tmpl, loc};
                    fill(next_thread, next_slot);
                }
            }
        };
    // Compositions into nonincreasing parts, largest first part first.
    std::vector<std::size_t> parts;
    std::function<void(std::size_t, std::size_t, std::size_t)> compose =
        [&](std::size_t remaining, std::size_t threads_left,
            std::size_t max_part) {
            if (remaining == 0) {
                program.clear();
                for (std::size_t part : parts)
                    program.emplace_back(part, Slot{0, 0});
                fill(0, 0);
                return;
            }
            if (threads_left == 0)
                return;
            for (std::size_t take = std::min(remaining, max_part);
                 take >= 1; take--) {
                parts.push_back(take);
                compose(remaining - take, threads_left - 1, take);
                parts.pop_back();
            }
        };
    compose(opts.instructions, opts.maxThreads, opts.instructions);
    return walk;
}

Walk
orderlyWalk(const SynthOptions &opts)
{
    SkeletonGenerator generator(alphabet(opts), opts.instructions,
                                opts.maxThreads, opts.maxLocations);
    Walk walk;
    while (generator.next())
        walk.unique.push_back(generator.current());
    walk.enumerated = generator.enumerated();
    walk.pruned = generator.afterPruning();
    return walk;
}

void
expectMatchesOracle(SynthOptions opts, std::size_t max_instructions)
{
    for (std::size_t n = 1; n <= max_instructions; n++) {
        SCOPED_TRACE("n=" + std::to_string(n));
        opts.instructions = n;
        const Walk expected = oracleWalk(opts);
        const Walk actual = orderlyWalk(opts);
        EXPECT_EQ(actual.enumerated, expected.enumerated);
        EXPECT_EQ(actual.pruned, expected.pruned);
        ASSERT_EQ(actual.unique.size(), expected.unique.size());
        for (std::size_t i = 0; i < expected.unique.size(); i++)
            ASSERT_EQ(actual.unique[i], expected.unique[i])
                << "program " << i;
    }
}

TEST(SkeletonOracle, DefaultAlphabetUpToFourInstructions)
{
    expectMatchesOracle(SynthOptions{}, 4);
}

TEST(SkeletonOracle, DefaultAlphabetCountsAtFourInstructions)
{
    // The §6.3 table's n=4 row (EXPERIMENTS.md E7).
    SynthOptions opts;
    opts.instructions = 4;
    const Walk walk = orderlyWalk(opts);
    EXPECT_EQ(walk.enumerated, 314928u);
    EXPECT_EQ(walk.unique.size(), 133488u);
}

TEST(SkeletonOracle, AtomicsAlphabet)
{
    SynthOptions opts;
    opts.withAtomics = true;
    expectMatchesOracle(opts, 3);
}

TEST(SkeletonOracle, AsyncAlphabet)
{
    SynthOptions opts;
    opts.withAsync = true;
    expectMatchesOracle(opts, 3);
}

TEST(SkeletonOracle, BarrierAlphabet)
{
    SynthOptions opts;
    opts.withBarriers = true;
    expectMatchesOracle(opts, 3);
}

TEST(SkeletonOracle, OneLocation)
{
    SynthOptions opts;
    opts.maxLocations = 1;
    expectMatchesOracle(opts, 4);
}

TEST(SkeletonOracle, ThreeThreads)
{
    // Brings in blocks of three equal-length threads ([1,1,1]).
    SynthOptions opts;
    opts.maxThreads = 3;
    expectMatchesOracle(opts, 4);
}

} // namespace
