#include "cache.hh"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "engine/json.hh"
#include "obs/obs.hh"
#include "relation/error.hh"

namespace mixedproxy::engine {

namespace {

/**
 * SHA-256 (FIPS 180-4). Self-contained so the disk store stays
 * dependency-free; litmus-test fingerprints are tiny, so throughput is
 * irrelevant here.
 */
class Sha256
{
  public:
    Sha256() { reset(); }

    void update(const unsigned char *data, std::size_t length)
    {
        for (std::size_t i = 0; i < length; i++) {
            block[blockLen++] = data[i];
            if (blockLen == 64) {
                transform();
                bitLen += 512;
                blockLen = 0;
            }
        }
    }

    std::string hexDigest()
    {
        // Pad: 0x80, zeros, 64-bit big-endian message length.
        std::uint64_t totalBits = bitLen + blockLen * 8;
        std::size_t i = blockLen;
        block[i++] = 0x80;
        if (i > 56) {
            while (i < 64)
                block[i++] = 0;
            transform();
            i = 0;
        }
        while (i < 56)
            block[i++] = 0;
        for (int b = 7; b >= 0; b--)
            block[i++] =
                static_cast<unsigned char>(totalBits >> (b * 8));
        transform();

        std::string hex;
        hex.reserve(64);
        for (std::uint32_t word : state) {
            char buffer[16];
            std::snprintf(buffer, sizeof buffer, "%08x", word);
            hex += buffer;
        }
        return hex;
    }

  private:
    void reset()
    {
        state[0] = 0x6a09e667;
        state[1] = 0xbb67ae85;
        state[2] = 0x3c6ef372;
        state[3] = 0xa54ff53a;
        state[4] = 0x510e527f;
        state[5] = 0x9b05688c;
        state[6] = 0x1f83d9ab;
        state[7] = 0x5be0cd19;
    }

    static std::uint32_t rotr(std::uint32_t x, int n)
    {
        return (x >> n) | (x << (32 - n));
    }

    void transform()
    {
        static constexpr std::uint32_t k[64] = {
            0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
            0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
            0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
            0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
            0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
            0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
            0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
            0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
            0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
            0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
            0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
            0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
            0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
        };

        std::uint32_t w[64];
        for (int t = 0; t < 16; t++) {
            w[t] = (std::uint32_t(block[t * 4]) << 24) |
                   (std::uint32_t(block[t * 4 + 1]) << 16) |
                   (std::uint32_t(block[t * 4 + 2]) << 8) |
                   std::uint32_t(block[t * 4 + 3]);
        }
        for (int t = 16; t < 64; t++) {
            std::uint32_t s0 = rotr(w[t - 15], 7) ^ rotr(w[t - 15], 18) ^
                               (w[t - 15] >> 3);
            std::uint32_t s1 = rotr(w[t - 2], 17) ^ rotr(w[t - 2], 19) ^
                               (w[t - 2] >> 10);
            w[t] = w[t - 16] + s0 + w[t - 7] + s1;
        }

        std::uint32_t a = state[0], b = state[1], c = state[2],
                      d = state[3], e = state[4], f = state[5],
                      g = state[6], h = state[7];
        for (int t = 0; t < 64; t++) {
            std::uint32_t s1 =
                rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
            std::uint32_t ch = (e & f) ^ (~e & g);
            std::uint32_t temp1 = h + s1 + ch + k[t] + w[t];
            std::uint32_t s0 =
                rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
            std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            std::uint32_t temp2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + temp1;
            d = c;
            c = b;
            b = a;
            a = temp1 + temp2;
        }
        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }

    std::uint32_t state[8];
    unsigned char block[64] = {};
    std::size_t blockLen = 0;
    std::uint64_t bitLen = 0;
};

/** Disk-entry format tag; bump on any layout change. */
constexpr const char *kEntryFormat = "mixedproxy.verdict.v5";

json::Value
encodeOutcome(const litmus::Outcome &outcome)
{
    json::Value entry = json::Value::makeObject();
    for (const auto &[field, values] :
         {std::pair{"registers", &outcome.registers},
          {"memory", &outcome.memory}}) {
        json::Value &map = entry.object[field] = json::Value::makeObject();
        for (const auto &[name, value] : *values)
            map.object[name] = json::Value::makeUint(value);
    }
    return entry;
}

bool
decodeOutcome(const json::Value &value, litmus::Outcome &out)
{
    for (const auto &[field, values] :
         {std::pair{"registers", &out.registers}, {"memory", &out.memory}}) {
        const json::Value *map = value.find(field);
        if (!map || !map->isObject())
            return false;
        for (const auto &[name, member] : map->object) {
            if (!member.isInteger)
                return false;
            (*values)[name] = member.integer;
        }
    }
    return true;
}

/**
 * The CheckStats counters an entry carries, by member name. All are
 * deterministic per (test, options): the enumeration-profiler (v2) and
 * layered-engine (v3) counters included, so replaying them on a cache
 * hit keeps stats reports jobs- and cache-invariant. Sampled
 * wall-clock numbers never enter CheckStats.
 */
constexpr std::pair<const char *, std::uint64_t model::CheckStats::*>
    kStatFields[] = {
        {"rf_assignments", &model::CheckStats::rfAssignments},
        {"candidate_executions", &model::CheckStats::candidateExecutions},
        {"consistent_executions",
         &model::CheckStats::consistentExecutions},
        {"fast_path_hits", &model::CheckStats::fastPathHits},
        {"fast_path_misses", &model::CheckStats::fastPathMisses},
        {"fixpoint_iterations", &model::CheckStats::fixpointIterations},
        {"bcause_edges", &model::CheckStats::bcauseEdges},
        {"ppbc_edges", &model::CheckStats::ppbcEdges},
        {"cause_edges", &model::CheckStats::causeEdges},
        {"reject_no_thin_air", &model::CheckStats::rejectNoThinAir},
        {"reject_value_infeasible",
         &model::CheckStats::rejectValueInfeasible},
        {"reject_causality_a", &model::CheckStats::rejectCausalityA},
        {"reject_coherence_unembeddable",
         &model::CheckStats::rejectCoherenceUnembeddable},
        {"reject_causality_b", &model::CheckStats::rejectCausalityB},
        {"reject_sc_per_location", &model::CheckStats::rejectScPerLocation},
        {"reject_atomicity", &model::CheckStats::rejectAtomicity},
        {"reject_fence_sc", &model::CheckStats::rejectFenceSc},
        {"enum_reads", &model::CheckStats::enumReads},
        {"enum_source_slots", &model::CheckStats::enumSourceSlots},
        {"co_locations", &model::CheckStats::coLocations},
        {"co_orders", &model::CheckStats::coOrders},
        {"layer_base_reuse", &model::CheckStats::layerBaseReuse},
        {"layer_rf_delta", &model::CheckStats::layerRfDelta},
        {"layer_rf_prefix_reject", &model::CheckStats::layerRfPrefixReject},
        {"layer_co_prefix_reject", &model::CheckStats::layerCoPrefixReject},
};

json::Value
encodeStats(const model::CheckStats &stats)
{
    json::Value entry = json::Value::makeObject();
    for (const auto &[name, field] : kStatFields)
        entry.object[name] = json::Value::makeUint(stats.*field);
    json::Value depth = json::Value::makeArray();
    for (std::uint64_t bucket : stats.depthHistogram)
        depth.array.push_back(json::Value::makeUint(bucket));
    entry.object["depth_histogram"] = std::move(depth);
    return entry;
}

void
decodeStats(const json::Value &value, model::CheckStats &out)
{
    for (const auto &[name, field] : kStatFields)
        out.*field = value.uintOr(name, 0);
    const json::Value *depth = value.find("depth_histogram");
    if (!depth || depth->kind != json::Value::Kind::Array)
        return;
    const std::size_t limit =
        std::min(depth->array.size(), out.depthHistogram.size());
    for (std::size_t d = 0; d < limit; d++) {
        if (depth->array[d].isInteger)
            out.depthHistogram[d] = depth->array[d].integer;
    }
}

} // namespace

std::string
sha256Hex(const std::string &data)
{
    Sha256 hasher;
    hasher.update(reinterpret_cast<const unsigned char *>(data.data()),
                  data.size());
    return hasher.hexDigest();
}

std::string
encodeVerdictEntry(const std::string &key, const CachedVerdict &verdict)
{
    json::Value entry = json::Value::makeObject();
    entry.object["format"] = json::Value::makeString(kEntryFormat);
    entry.object["key"] = json::Value::makeString(key);
    entry.object["budget_exceeded"] =
        json::Value::makeBool(verdict.budgetExceeded);

    json::Value outcomes = json::Value::makeArray();
    for (const litmus::Outcome &outcome : verdict.outcomes)
        outcomes.array.push_back(encodeOutcome(outcome));
    entry.object["outcomes"] = std::move(outcomes);
    entry.object["stats"] = encodeStats(verdict.stats);
    // The digest covers every other member, so a flipped byte anywhere
    // in the entry is a miss rather than a different verdict.
    entry.object["digest"] = json::Value::makeString(sha256Hex(entry.dump()));
    return entry.dump();
}

bool
decodeVerdictEntry(const std::string &text, const std::string &key,
                   CachedVerdict &out)
{
    std::unique_ptr<json::Value> doc = json::parse(text);
    if (!doc || !doc->isObject())
        return false;
    if (doc->stringOr("format", "") != kEntryFormat)
        return false;
    // The embedded key is the collision guard: a filename collision
    // (or a truncated/foreign file) must degrade to a miss.
    if (doc->stringOr("key", "") != key)
        return false;
    // Re-serializing the parsed members reproduces the bytes the digest
    // was taken over: members are key-sorted and numbers are integers.
    const std::string digest = doc->stringOr("digest", "");
    doc->object.erase("digest");
    if (sha256Hex(doc->dump()) != digest)
        return false;

    CachedVerdict verdict;
    verdict.budgetExceeded = doc->boolOr("budget_exceeded", false);
    const json::Value *outcomes = doc->find("outcomes");
    if (!outcomes || outcomes->kind != json::Value::Kind::Array)
        return false;
    for (const json::Value &element : outcomes->array) {
        litmus::Outcome outcome;
        if (!decodeOutcome(element, outcome))
            return false;
        verdict.outcomes.insert(std::move(outcome));
    }
    if (const json::Value *stats = doc->find("stats"))
        decodeStats(*stats, verdict.stats);
    out = std::move(verdict);
    return true;
}

VerdictCache::VerdictCache() : VerdictCache(Config{}) {}

VerdictCache::VerdictCache(Config config) : cfg(std::move(config)) {}

std::string
VerdictCache::fingerprint(const std::string &canonicalKey,
                          model::ProxyMode mode, bool staticFastPath,
                          std::uint64_t maxExecutions,
                          model::PresolvePolicy presolve,
                          EnumCore enumCore)
{
    // "fp3" guards this layout the way the canonical key's own version
    // tag guards its serialization; any knob added to CheckOptions that
    // can change the outcome set must be appended here.
    std::ostringstream os;
    os << "fp3|mode=" << static_cast<int>(mode)
       << "|fast=" << (staticFastPath ? 1 : 0)
       << "|budget=" << maxExecutions
       << "|presolve=" << static_cast<int>(presolve)
       << "|core=" << static_cast<int>(enumCore) << '|' << canonicalKey;
    return os.str();
}

bool
VerdictCache::memoryLookup(const std::string &key, CachedVerdict &out)
{
    auto it = index.find(key);
    if (it == index.end())
        return false;
    lru.splice(lru.begin(), lru, it->second);
    out = it->second->second;
    return true;
}

std::size_t
VerdictCache::memoryInsert(const std::string &key,
                           const CachedVerdict &verdict)
{
    if (cfg.capacity == 0)
        return 0;
    auto it = index.find(key);
    if (it != index.end()) {
        it->second->second = verdict;
        lru.splice(lru.begin(), lru, it->second);
        return 0;
    }
    lru.emplace_front(key, verdict);
    index[key] = lru.begin();
    std::size_t evictions = 0;
    while (lru.size() > cfg.capacity) {
        index.erase(lru.back().first);
        lru.pop_back();
        evictions++;
    }
    return evictions;
}

std::string
VerdictCache::diskPath(const std::string &key) const
{
    return cfg.diskDir + "/" + sha256Hex(key) + ".json";
}

bool
VerdictCache::diskLoad(const std::string &key, CachedVerdict &out) const
{
    if (cfg.diskDir.empty())
        return false;
    std::ifstream in(diskPath(key));
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return decodeVerdictEntry(buffer.str(), key, out);
}

void
VerdictCache::diskStore(const std::string &key,
                        const CachedVerdict &verdict) const
{
    if (cfg.diskDir.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(cfg.diskDir, ec);
    if (ec)
        return; // Unwritable store degrades to memory-only.

    // Write-then-rename so a concurrent reader (another daemon sharing
    // the store) never sees a torn entry.
    const std::string finalPath = diskPath(key);
    const std::string tempPath =
        finalPath + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream outFile(tempPath, std::ios::trunc);
        if (!outFile)
            return;
        outFile << encodeVerdictEntry(key, verdict) << '\n';
        if (!outFile)
            return;
    }
    std::filesystem::rename(tempPath, finalPath, ec);
    if (ec)
        std::filesystem::remove(tempPath, ec);
}

CachedVerdict
VerdictCache::lookupOrCompute(
    const std::string &key,
    const std::function<CachedVerdict()> &compute, bool *wasHit)
{
    if (wasHit)
        *wasHit = false;
    {
        std::unique_lock lock(mutex);
        for (;;) {
            CachedVerdict cached;
            if (memoryLookup(key, cached)) {
                obs::count("engine.cache.hit");
                if (wasHit)
                    *wasHit = true;
                return cached;
            }
            if (!pending.contains(key))
                break;
            // A twin is computing this key right now: wait for it,
            // then re-check. (If it failed, the entry stays absent and
            // this requester takes over.)
            pendingDone.wait(lock);
        }
        pending.insert(key);
    }

    // Disk probe and compute both run outside the lock; the pending
    // marker keeps duplicate requesters parked meanwhile.
    CachedVerdict fromDisk;
    if (diskLoad(key, fromDisk)) {
        std::size_t evictions;
        {
            std::lock_guard lock(mutex);
            evictions = memoryInsert(key, fromDisk);
            pending.erase(key);
        }
        pendingDone.notify_all();
        obs::count("engine.cache.hit");
        obs::count("engine.cache.disk_hit");
        if (wasHit)
            *wasHit = true;
        if (evictions > 0)
            obs::count("engine.cache.evict", evictions);
        return fromDisk;
    }

    CachedVerdict computed;
    try {
        computed = compute();
    } catch (...) {
        {
            std::lock_guard lock(mutex);
            pending.erase(key);
        }
        pendingDone.notify_all();
        throw;
    }

    std::size_t evictions;
    {
        std::lock_guard lock(mutex);
        evictions = memoryInsert(key, computed);
        pending.erase(key);
    }
    pendingDone.notify_all();
    diskStore(key, computed);
    obs::count("engine.cache.miss");
    if (!cfg.diskDir.empty())
        obs::count("engine.cache.disk_store");
    if (evictions > 0)
        obs::count("engine.cache.evict", evictions);
    return computed;
}

std::size_t
VerdictCache::size() const
{
    std::lock_guard lock(mutex);
    return lru.size();
}

} // namespace mixedproxy::engine
