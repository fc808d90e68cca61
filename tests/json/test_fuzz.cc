/**
 * @file
 * Seeded mutational fuzz of the one JSON reader through both of its
 * callers: engine::json::parse (daemon requests, verdict-cache entries)
 * and the trace parser (TraceReader, parseTraceLine).
 *
 * Seeds are real inputs: daemon requests, one on-disk cache entry and
 * recorded trace lines. Each mutant takes one to four byte flips,
 * inserts, deletions, truncations or bracket duplications from a fixed
 * mt19937_64 stream, so a failure replays exactly. Properties: nothing
 * crashes (the sanitizer CI job runs this too), an accepted document
 * dumps to text that parses back to the same dump, and an error always
 * comes with a message.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "conform/trace.hh"
#include "engine/engine.hh"
#include "engine/json.hh"
#include "json/reader.hh"
#include "litmus/registry.hh"
#include "microarch/simulator.hh"

namespace {

using namespace mixedproxy;

constexpr std::size_t kMutantsPerSeed = 800;

std::vector<std::string>
daemonRequests()
{
    const std::string source =
        "name: wire_mp\\nthread t0 cta 0 gpu 0:\\n  st.global.u32 [x], 1\\n"
        "  st.release.gpu.u32 [f], 1\\nthread t1 cta 1 gpu 0:\\n"
        "  ld.acquire.gpu.u32 r0, [f]\\n  ld.global.u32 r1, [x]\\n"
        "require: !(t1.r0 == 1) || t1.r1 == 1\\n";
    return {
        R"({"cmd":"ping","id":7})",
        R"({"op":"metrics"})",
        R"({"id":3,"test":"no_such_test"})",
        R"({"test":"fig9_message_passing","mode":"ptx60","witness":true})",
        R"({"test":"fig9_message_passing","max_executions":1e30})",
        R"({"test":"fig2_iriw_weak","presolve":"on","sim":false,)"
        R"("sim_iterations":50,"enum_core":"legacy","id":[1,{"a":null}]})",
        R"({"cmd":"conform","path":"t.trace","window":64,)"
        R"("max_violations":2})",
        "{\"litmus\":\"" + source + "\"}",
    };
}

/** One verdict-cache entry, written by a real engine. */
std::string
cacheEntry()
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "mp_json_fuzz_cache";
    std::filesystem::remove_all(dir);
    {
        engine::EngineConfig config;
        config.cacheDir = dir.string();
        engine::Engine engine(config);
        engine.submit(engine::Request::forCheck(
            litmus::testByName("fig9_message_passing")));
    }
    std::string text;
    for (const auto &file : std::filesystem::directory_iterator(dir)) {
        std::ifstream in(file.path());
        std::ostringstream buffer;
        buffer << in.rdbuf();
        text = buffer.str();
    }
    std::filesystem::remove_all(dir);
    return text;
}

/** Recorded traces of tests covering every line shape. */
std::vector<std::string>
traces()
{
    std::vector<std::string> out;
    for (const char *name :
         {"fig9_message_passing", "fig2_iriw_fence_sc", "fig8a_alias_fence",
          "atom_cas_mutex", "barrier_mp", "fig4_const_alias_proxy_fence"}) {
        std::ostringstream trace;
        microarch::Simulator().runTraced(litmus::testByName(name), 1,
                                         trace);
        out.push_back(trace.str());
    }
    return out;
}

std::vector<std::string>
seeds()
{
    std::vector<std::string> out = daemonRequests();
    out.push_back(cacheEntry());
    for (const std::string &trace : traces()) {
        out.push_back(trace); // whole, for the multi-line reader
        std::istringstream lines(trace);
        for (std::string line; std::getline(lines, line);)
            out.push_back(line);
    }
    return out;
}

std::string
mutate(std::string text, std::mt19937_64 &rng)
{
    static const std::string alphabet = "{}[]\",:\\/0123456789-+.eE"
                                        "truefalsn u\n\t\x01\x7f\xc3\xff";
    const int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits; e++) {
        const std::size_t at = text.empty() ? 0 : rng() % text.size();
        switch (rng() % 5) {
          case 0: // flip one bit
            if (!text.empty())
                text[at] = static_cast<char>(text[at] ^ (1 << (rng() % 8)));
            break;
          case 1: // insert a grammar-relevant byte
            text.insert(at, 1, alphabet[rng() % alphabet.size()]);
            break;
          case 2: // delete a byte
            if (!text.empty())
                text.erase(at, 1);
            break;
          case 3: // truncate
            text.resize(at);
            break;
          case 4: { // duplicate a bracket, up to past the depth limit
            const std::size_t open = text.find_first_of("[{", at);
            if (open == std::string::npos)
                break;
            static const std::size_t counts[] = {1, 8, 300};
            text.insert(open, counts[rng() % 3], text[open]);
            break;
          }
        }
    }
    return text;
}

/** Drive @p text through both callers and check the properties. */
void
check(const std::string &text)
{
    std::string error;
    auto doc = engine::json::parse(text, &error);
    if (doc) {
        const std::string dumped = doc->dump();
        auto again = engine::json::parse(dumped, &error);
        ASSERT_TRUE(again) << error << "\ninput: " << text
                           << "\ndump: " << dumped;
        ASSERT_EQ(again->dump(), dumped) << "input: " << text;
    } else {
        ASSERT_FALSE(error.empty()) << text;
    }

    conform::TraceLine line;
    if (!conform::parseTraceLine(text, line, error)) {
        ASSERT_FALSE(error.empty()) << text;
    }

    std::istringstream in(text);
    conform::TraceReader reader(in);
    std::uint64_t lines = 0;
    for (;;) {
        const auto status = reader.next(line);
        if (status == conform::TraceReader::Status::Eof)
            break;
        if (status == conform::TraceReader::Status::Error) {
            ASSERT_FALSE(reader.error().empty()) << text;
        }
        ASSERT_LE(++lines, text.size() + 1);
    }
}

TEST(JsonFuzz, SeedsParseAndRoundTrip)
{
    for (const std::string &seed : seeds()) {
        ASSERT_FALSE(seed.empty());
        std::string error;
        EXPECT_TRUE(engine::json::parse(seed, &error) ||
                    seed.find('\n') != std::string::npos)
            << error << "\n" << seed;
        check(seed);
    }
}

TEST(JsonFuzz, MutantsNeverCrashAndRoundTrip)
{
    const std::vector<std::string> inputs = seeds();
    for (std::uint64_t seed = 0; seed < inputs.size(); seed++) {
        std::mt19937_64 rng(0x6a736f6e + seed);
        for (std::size_t i = 0; i < kMutantsPerSeed; i++) {
            check(mutate(inputs[seed], rng));
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(JsonFuzz, DepthBombAndUnterminatedStringAreRejected)
{
    std::string error;
    EXPECT_FALSE(engine::json::parse(std::string(400000, '['), &error));
    EXPECT_EQ(error, "nesting deeper than " +
                         std::to_string(json::kMaxDepth) + " at offset " +
                         std::to_string(json::kMaxDepth));
    const std::string open = "\"" + std::string(1 << 20, 'a');
    EXPECT_FALSE(engine::json::parse(open, &error));
    EXPECT_EQ(error,
              "unterminated string at offset " + std::to_string(open.size()));

    conform::TraceLine line;
    EXPECT_FALSE(conform::parseTraceLine(
        "{\"future\":" + std::string(400000, '[') + "}", line, error));
    EXPECT_NE(error.find("nesting deeper than"), std::string::npos)
        << error;
    EXPECT_FALSE(conform::parseTraceLine("{\"test\":" + open, line, error));
    EXPECT_NE(error.find("unterminated string"), std::string::npos)
        << error;
}

} // namespace
