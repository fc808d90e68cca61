/**
 * @file
 * Tests for the two-tier verdict cache: LRU behavior, fingerprint
 * sensitivity, in-flight coalescing, disk round trips, and the
 * collision and corruption guards on disk entries.
 */

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/cache.hh"
#include "engine/json.hh"
#include "nvlitmus/driver.hh"
#include "obs/obs.hh"

namespace {

using namespace mixedproxy;
using namespace mixedproxy::engine;

CachedVerdict
sampleVerdict(std::uint64_t seed)
{
    CachedVerdict verdict;
    litmus::Outcome outcome;
    outcome.registers["t0.r0"] = seed;
    outcome.registers["t1.r1"] = seed + 1;
    outcome.memory["m0"] = 42;
    verdict.outcomes.insert(outcome);
    litmus::Outcome other;
    other.registers["t0.r0"] = 0;
    verdict.outcomes.insert(other);
    verdict.budgetExceeded = (seed % 2) == 1;
    verdict.stats.rfAssignments = seed * 3;
    verdict.stats.candidateExecutions = seed * 5;
    verdict.stats.consistentExecutions = seed;
    verdict.stats.fastPathHits = 1;
    verdict.stats.fixpointIterations = 7;
    verdict.stats.causeEdges = 12345678901234ull;
    verdict.stats.layerBaseReuse = seed * 2;
    verdict.stats.layerRfDelta = seed * 9;
    verdict.stats.layerRfPrefixReject = 3;
    verdict.stats.layerCoPrefixReject = 4;
    return verdict;
}

/** RAII temp directory under the system temp root. */
struct TempDir
{
    std::filesystem::path path;

    TempDir()
    {
        path = std::filesystem::temp_directory_path() /
               ("mp_cache_test_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter++));
        std::filesystem::create_directories(path);
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    static inline std::atomic<int> counter{0};
};

TEST(Sha256, MatchesKnownVectors)
{
    // FIPS 180-4 test vectors.
    EXPECT_EQ(sha256Hex(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(sha256Hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(sha256Hex("abcdbcdecdefdefgefghfghighijhi"
                        "jkijkljklmklmnlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Fingerprint, SeparatesEveryKnob)
{
    const std::string key = "ck1|some-canonical-program";
    const std::string base = VerdictCache::fingerprint(
        key, model::ProxyMode::Ptx75, true, 1000);
    EXPECT_NE(base, VerdictCache::fingerprint(
                        key, model::ProxyMode::Ptx60, true, 1000));
    EXPECT_NE(base, VerdictCache::fingerprint(
                        key, model::ProxyMode::Ptx75, false, 1000));
    EXPECT_NE(base, VerdictCache::fingerprint(
                        key, model::ProxyMode::Ptx75, true, 1001));
    EXPECT_NE(base, VerdictCache::fingerprint(
                        "ck1|other", model::ProxyMode::Ptx75, true,
                        1000));
    EXPECT_NE(base, VerdictCache::fingerprint(
                        key, model::ProxyMode::Ptx75, true, 1000,
                        model::PresolvePolicy::On));
    EXPECT_NE(base, VerdictCache::fingerprint(
                        key, model::ProxyMode::Ptx75, true, 1000,
                        model::PresolvePolicy::Only));
    EXPECT_EQ(base, VerdictCache::fingerprint(
                        key, model::ProxyMode::Ptx75, true, 1000));
    EXPECT_EQ(base, VerdictCache::fingerprint(
                        key, model::ProxyMode::Ptx75, true, 1000,
                        model::PresolvePolicy::Off));
    EXPECT_EQ(base, VerdictCache::fingerprint(
                        key, model::ProxyMode::Ptx75, true, 1000,
                        model::PresolvePolicy::Off,
                        EnumCore::Incremental));
}

TEST(VerdictCache, MissComputesThenHits)
{
    VerdictCache cache;
    int computations = 0;
    auto compute = [&] {
        computations++;
        return sampleVerdict(3);
    };

    bool hit = true;
    CachedVerdict first = cache.lookupOrCompute("k", compute, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(computations, 1);
    EXPECT_EQ(cache.size(), 1u);

    CachedVerdict second = cache.lookupOrCompute("k", compute, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(computations, 1);
    EXPECT_EQ(second.outcomes, first.outcomes);
    EXPECT_EQ(second.budgetExceeded, first.budgetExceeded);
    EXPECT_EQ(second.stats.candidateExecutions,
              first.stats.candidateExecutions);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    cache.lookupOrCompute("k", compute, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(computations, 2);
}

TEST(VerdictCache, EvictsLeastRecentlyUsed)
{
    VerdictCache::Config config;
    config.capacity = 2;
    VerdictCache cache(config);

    auto computeFor = [](std::uint64_t seed) {
        return [seed] { return sampleVerdict(seed); };
    };
    cache.lookupOrCompute("a", computeFor(1));
    cache.lookupOrCompute("b", computeFor(2));
    // Touch "a" so "b" is the LRU entry, then insert "c".
    bool hit = false;
    cache.lookupOrCompute("a", computeFor(1), &hit);
    EXPECT_TRUE(hit);
    cache.lookupOrCompute("c", computeFor(3));
    EXPECT_EQ(cache.size(), 2u);

    cache.lookupOrCompute("a", computeFor(1), &hit);
    EXPECT_TRUE(hit); // survived
    cache.lookupOrCompute("b", computeFor(2), &hit);
    EXPECT_FALSE(hit); // evicted
}

TEST(VerdictCache, CapacityZeroDisablesMemoization)
{
    VerdictCache::Config config;
    config.capacity = 0;
    VerdictCache cache(config);
    int computations = 0;
    auto compute = [&] {
        computations++;
        return sampleVerdict(1);
    };
    bool hit = true;
    cache.lookupOrCompute("k", compute, &hit);
    EXPECT_FALSE(hit);
    cache.lookupOrCompute("k", compute, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(computations, 2);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(VerdictCache, ComputeExceptionReleasesInFlightMarker)
{
    VerdictCache cache;
    EXPECT_THROW(cache.lookupOrCompute(
                     "k",
                     []() -> CachedVerdict {
                         throw std::runtime_error("boom");
                     }),
                 std::runtime_error);
    // The key must not be wedged as pending: a later lookup computes.
    bool hit = true;
    cache.lookupOrCompute(
        "k", [] { return sampleVerdict(1); }, &hit);
    EXPECT_FALSE(hit);
    cache.lookupOrCompute(
        "k", [] { return sampleVerdict(1); }, &hit);
    EXPECT_TRUE(hit);
}

TEST(VerdictCache, CoalescesConcurrentDuplicates)
{
    VerdictCache cache;
    std::atomic<int> computations{0};
    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    std::vector<int> hits(kThreads, -1);
    for (int i = 0; i < kThreads; i++) {
        threads.emplace_back([&, i] {
            bool hit = false;
            cache.lookupOrCompute(
                "k",
                [&] {
                    computations++;
                    // Widen the race window so duplicates pile up.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                    return sampleVerdict(1);
                },
                &hit);
            hits[static_cast<std::size_t>(i)] = hit ? 1 : 0;
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(computations.load(), 1);
    int hitCount = 0;
    for (int h : hits)
        hitCount += h;
    EXPECT_EQ(hitCount, kThreads - 1);
}

TEST(VerdictCache, CountersFlowIntoBoundSession)
{
    obs::Session session;
    session.enable();
    {
        obs::ScopedSession bind(&session);
        VerdictCache cache;
        cache.lookupOrCompute("a", [] { return sampleVerdict(1); });
        cache.lookupOrCompute("a", [] { return sampleVerdict(1); });
        cache.lookupOrCompute("b", [] { return sampleVerdict(2); });
    }
    session.disable();
    EXPECT_EQ(session.metrics.counter("engine.cache.miss"), 2u);
    EXPECT_EQ(session.metrics.counter("engine.cache.hit"), 1u);
}

TEST(VerdictEntry, EncodeDecodeRoundTrips)
{
    const std::string key = "fp1|mode=0|fast=1|budget=100|ck1|prog";
    CachedVerdict verdict = sampleVerdict(9);
    const std::string text = encodeVerdictEntry(key, verdict);

    CachedVerdict decoded;
    ASSERT_TRUE(decodeVerdictEntry(text, key, decoded));
    EXPECT_EQ(decoded.outcomes, verdict.outcomes);
    EXPECT_EQ(decoded.budgetExceeded, verdict.budgetExceeded);
    EXPECT_EQ(decoded.stats.rfAssignments, verdict.stats.rfAssignments);
    EXPECT_EQ(decoded.stats.candidateExecutions,
              verdict.stats.candidateExecutions);
    EXPECT_EQ(decoded.stats.consistentExecutions,
              verdict.stats.consistentExecutions);
    EXPECT_EQ(decoded.stats.fastPathHits, verdict.stats.fastPathHits);
    EXPECT_EQ(decoded.stats.fixpointIterations,
              verdict.stats.fixpointIterations);
    EXPECT_EQ(decoded.stats.causeEdges, verdict.stats.causeEdges);
    EXPECT_EQ(decoded.stats.layerBaseReuse,
              verdict.stats.layerBaseReuse);
    EXPECT_EQ(decoded.stats.layerRfDelta, verdict.stats.layerRfDelta);
    EXPECT_EQ(decoded.stats.layerRfPrefixReject,
              verdict.stats.layerRfPrefixReject);
    EXPECT_EQ(decoded.stats.layerCoPrefixReject,
              verdict.stats.layerCoPrefixReject);
}

TEST(VerdictEntry, EmbeddedKeyGuardsAgainstCollisions)
{
    CachedVerdict verdict = sampleVerdict(1);
    const std::string text = encodeVerdictEntry("key-a", verdict);
    CachedVerdict decoded;
    // A file whose embedded key disagrees (a SHA collision, or a
    // foreign file dropped into the cache dir) must decode as a miss.
    EXPECT_FALSE(decodeVerdictEntry(text, "key-b", decoded));
    EXPECT_TRUE(decodeVerdictEntry(text, "key-a", decoded));
    EXPECT_FALSE(decodeVerdictEntry("not json", "key-a", decoded));
    EXPECT_FALSE(decodeVerdictEntry("{}", "key-a", decoded));
}

TEST(VerdictCache, DiskStoreSurvivesTheProcessBoundary)
{
    TempDir dir;
    VerdictCache::Config config;
    config.diskDir = dir.path.string();

    int computations = 0;
    auto compute = [&] {
        computations++;
        return sampleVerdict(4);
    };
    CachedVerdict cold;
    {
        VerdictCache cache(config);
        cold = cache.lookupOrCompute("k", compute);
    }
    EXPECT_EQ(computations, 1);

    // A different instance (a "new process") finds the entry on disk.
    VerdictCache warm(config);
    bool hit = false;
    CachedVerdict reloaded = warm.lookupOrCompute("k", compute, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(computations, 1);
    EXPECT_EQ(reloaded.outcomes, cold.outcomes);
    EXPECT_EQ(reloaded.budgetExceeded, cold.budgetExceeded);
    EXPECT_EQ(reloaded.stats.candidateExecutions,
              cold.stats.candidateExecutions);

    // Exactly one entry file, named by the key's SHA-256.
    std::size_t files = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir.path)) {
        EXPECT_EQ(entry.path().filename().string(),
                  sha256Hex("k") + ".json");
        files++;
    }
    EXPECT_EQ(files, 1u);
}

TEST(VerdictCache, CorruptDiskEntryDegradesToAMiss)
{
    TempDir dir;
    VerdictCache::Config config;
    config.diskDir = dir.path.string();
    {
        std::ofstream out(dir.path / (sha256Hex("k") + ".json"));
        out << "corrupted bytes";
    }
    VerdictCache cache(config);
    int computations = 0;
    bool hit = true;
    cache.lookupOrCompute(
        "k",
        [&] {
            computations++;
            return sampleVerdict(2);
        },
        &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(computations, 1);
}

TEST(VerdictCache, PreviousFormatDiskEntryIsAMiss)
{
    // v4 entries carry no digest, so a corrupted one could serve a
    // wrong verdict. An otherwise valid entry under the old format tag
    // must be recomputed, and the recomputation replaces it.
    CachedVerdict stale = sampleVerdict(3);
    std::string text = encodeVerdictEntry("k", stale);
    const std::string current = "mixedproxy.verdict.v5";
    const std::size_t at = text.find(current);
    ASSERT_NE(at, std::string::npos) << text;
    text.replace(at, current.size(), "mixedproxy.verdict.v4");
    CachedVerdict decoded;
    EXPECT_FALSE(decodeVerdictEntry(text, "k", decoded));

    TempDir dir;
    VerdictCache::Config config;
    config.diskDir = dir.path.string();
    const auto path = dir.path / (sha256Hex("k") + ".json");
    std::ofstream(path) << text;

    int computations = 0;
    bool hit = true;
    CachedVerdict fresh = VerdictCache(config).lookupOrCompute(
        "k",
        [&] {
            computations++;
            return sampleVerdict(4);
        },
        &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(computations, 1);
    EXPECT_EQ(fresh.stats.candidateExecutions,
              sampleVerdict(4).stats.candidateExecutions);

    std::ifstream in(path);
    std::ostringstream stored;
    stored << in.rdbuf();
    EXPECT_NE(stored.str().find(current), std::string::npos);
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/**
 * Check fig9_message_passing through the CLI with a --cache-dir, then
 * replace @p from with @p to (one byte) in the entry it wrote. A second
 * run must miss, recompute, rewrite the entry byte for byte and print
 * what the cold run printed.
 */
void
expectCorruptedEntryIsRecomputed(const std::string &from,
                                 const std::string &to)
{
    ASSERT_EQ(from.size(), to.size());
    TempDir dir;
    const std::string cacheDir = (dir.path / "verdicts").string();
    const std::filesystem::path stats = dir.path / "stats.json";
    auto run = [&](std::vector<std::string> args) {
        std::ostringstream out;
        std::ostringstream err;
        const int code = nvlitmus::runCli(args, out, err);
        EXPECT_EQ(code, 0) << err.str();
        return out.str();
    };

    // Both runs collect stats: that fills counters the entry stores.
    const std::string cold =
        run({"--cache-dir", cacheDir, "--stats-json", stats.string(),
             "fig9_message_passing"});
    std::vector<std::filesystem::path> entries;
    for (const auto &file : std::filesystem::directory_iterator(cacheDir))
        entries.push_back(file.path());
    ASSERT_EQ(entries.size(), 1u);
    const std::string stored = readFile(entries[0]);
    const std::size_t at = stored.find(from);
    ASSERT_NE(at, std::string::npos) << stored;
    std::string corrupted = stored;
    corrupted.replace(at, from.size(), to);
    std::ofstream(entries[0]) << corrupted;

    const std::string warm =
        run({"--cache-dir", cacheDir, "--stats-json", stats.string(),
             "fig9_message_passing"});
    EXPECT_EQ(warm, cold);
    EXPECT_EQ(readFile(entries[0]), stored);
    const auto doc = engine::json::parse(readFile(stats));
    ASSERT_TRUE(doc);
    const engine::json::Value *counters = doc->find("counters");
    ASSERT_TRUE(counters);
    EXPECT_EQ(counters->uintOr("engine.cache.miss", 0), 1u);
    EXPECT_EQ(counters->uintOr("engine.cache.hit", 0), 0u);
    EXPECT_EQ(counters->uintOr("engine.cache.disk_store", 0), 1u);
}

TEST(VerdictCache, FlippedOutcomeNameIsAMissAndRewritten)
{
    // Once a crash: the name no longer maps back to the test.
    expectCorruptedEntryIsRecomputed("\"t0.r1\"", "\"t0.r9\"");
}

TEST(VerdictCache, FlippedOutcomeValueIsAMissAndRewritten)
{
    // Once a silently different outcome set.
    expectCorruptedEntryIsRecomputed("\"t0.r1\":42", "\"t0.r1\":43");
}

TEST(VerdictCache, FlippedStatsCounterIsAMissAndRewritten)
{
    expectCorruptedEntryIsRecomputed("\"candidate_executions\":4",
                                     "\"candidate_executions\":5");
}

} // namespace
