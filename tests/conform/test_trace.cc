/**
 * @file
 * Tests for the mixedproxy.trace.v1 writer and reader: round-tripping,
 * field-order independence, forward compatibility, and error recovery.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "conform/trace.hh"
#include "json/reader.hh"

namespace {

using namespace mixedproxy;
using conform::TraceHeader;
using conform::TraceLine;
using conform::TraceLocation;
using conform::TraceOp;
using conform::TraceReader;
using conform::TraceThread;
using conform::TraceWriter;

TraceHeader
sampleHeader()
{
    TraceHeader hdr;
    hdr.test = "mp";
    hdr.threads = {TraceThread{"t0", 0, 0}, TraceThread{"t1", 1, 0}};
    hdr.locations = {TraceLocation{"x", 0}, TraceLocation{"y", 7}};
    return hdr;
}

TEST(TraceWriter, RoundTripsThroughReader)
{
    std::stringstream ss;
    TraceWriter writer(ss);
    writer.header(sampleHeader());
    EXPECT_EQ(writer.nextUid(), 2u); // after the two init writes

    const std::uint64_t w0 = writer.store(
        0, 0, 1, litmus::Semantics::Relaxed, litmus::Scope::Gpu,
        litmus::ProxyKind::Generic);
    EXPECT_EQ(w0, 2u);
    writer.commit(w0);
    writer.load(1, 0, 1, w0, litmus::Semantics::Acquire,
                litmus::Scope::Gpu, litmus::ProxyKind::Generic, "r0");
    const std::uint64_t w1 =
        writer.rmw(1, 1, 9, 7, 1, litmus::Semantics::AcqRel,
                   litmus::Scope::Sys, "r1");
    EXPECT_EQ(w1, 3u);
    writer.fence(0, litmus::Semantics::Sc, litmus::Scope::Sys);
    writer.proxyFence(1, litmus::ProxyFenceKind::Texture,
                      litmus::Scope::Cta);
    writer.barrier(0, 0);
    litmus::Outcome outcome;
    outcome.registers["t1.r0"] = 1;
    outcome.registers["t1.r1"] = 7;
    outcome.memory["x"] = 1;
    outcome.memory["y"] = 9;
    writer.finish(outcome);

    TraceReader reader(ss);
    TraceLine line;

    ASSERT_EQ(reader.next(line), TraceReader::Status::Ok);
    ASSERT_EQ(line.kind, TraceLine::Kind::Header);
    EXPECT_EQ(line.header.test, "mp");
    ASSERT_EQ(line.header.threads.size(), 2u);
    EXPECT_EQ(line.header.threads[1].name, "t1");
    EXPECT_EQ(line.header.threads[1].cta, 1);
    ASSERT_EQ(line.header.locations.size(), 2u);
    EXPECT_EQ(line.header.locations[1].name, "y");
    EXPECT_EQ(line.header.locations[1].init, 7u);

    ASSERT_EQ(reader.next(line), TraceReader::Status::Ok);
    ASSERT_EQ(line.kind, TraceLine::Kind::Event);
    EXPECT_EQ(line.event.op, TraceOp::Store);
    EXPECT_EQ(line.event.thread, 0u);
    EXPECT_EQ(line.event.location, 0u);
    EXPECT_EQ(line.event.value, 1u);
    EXPECT_EQ(line.event.uid, 2u);
    EXPECT_EQ(line.event.sem, litmus::Semantics::Relaxed);
    EXPECT_EQ(line.event.scope, litmus::Scope::Gpu);
    EXPECT_EQ(line.event.proxy, litmus::ProxyKind::Generic);

    ASSERT_EQ(reader.next(line), TraceReader::Status::Ok);
    EXPECT_EQ(line.event.op, TraceOp::Commit);
    EXPECT_EQ(line.event.uid, 2u);

    ASSERT_EQ(reader.next(line), TraceReader::Status::Ok);
    EXPECT_EQ(line.event.op, TraceOp::Load);
    EXPECT_EQ(line.event.rf, 2u);
    EXPECT_EQ(line.event.destReg, "r0");
    EXPECT_EQ(line.event.sem, litmus::Semantics::Acquire);

    ASSERT_EQ(reader.next(line), TraceReader::Status::Ok);
    EXPECT_EQ(line.event.op, TraceOp::Rmw);
    EXPECT_EQ(line.event.value, 9u);
    EXPECT_EQ(line.event.oldValue, 7u);
    EXPECT_EQ(line.event.rf, 1u);
    EXPECT_EQ(line.event.uid, 3u);
    EXPECT_EQ(line.event.destReg, "r1");

    // The RMW's immediate commit.
    ASSERT_EQ(reader.next(line), TraceReader::Status::Ok);
    EXPECT_EQ(line.event.op, TraceOp::Commit);
    EXPECT_EQ(line.event.uid, 3u);

    ASSERT_EQ(reader.next(line), TraceReader::Status::Ok);
    EXPECT_EQ(line.event.op, TraceOp::Fence);
    EXPECT_EQ(line.event.sem, litmus::Semantics::Sc);
    EXPECT_EQ(line.event.scope, litmus::Scope::Sys);

    ASSERT_EQ(reader.next(line), TraceReader::Status::Ok);
    EXPECT_EQ(line.event.op, TraceOp::FenceProxy);
    EXPECT_EQ(line.event.proxyFence, litmus::ProxyFenceKind::Texture);
    EXPECT_EQ(line.event.scope, litmus::Scope::Cta);

    ASSERT_EQ(reader.next(line), TraceReader::Status::Ok);
    EXPECT_EQ(line.event.op, TraceOp::Barrier);
    EXPECT_EQ(line.event.thread, 0u);

    ASSERT_EQ(reader.next(line), TraceReader::Status::Ok);
    ASSERT_EQ(line.kind, TraceLine::Kind::Footer);
    EXPECT_EQ(line.footer.registers.at("t1.r0"), 1u);
    EXPECT_EQ(line.footer.registers.at("t1.r1"), 7u);
    EXPECT_EQ(line.footer.memory.at("x"), 1u);
    EXPECT_EQ(line.footer.memory.at("y"), 9u);

    EXPECT_EQ(reader.next(line), TraceReader::Status::Eof);
}

TEST(TraceWriter, SeqNumbersAreMonotone)
{
    std::stringstream ss;
    TraceWriter writer(ss);
    writer.header(sampleHeader());
    const std::uint64_t uid = writer.store(
        0, 0, 1, litmus::Semantics::Weak, litmus::Scope::None,
        litmus::ProxyKind::Generic);
    writer.commit(uid);
    writer.fence(0, litmus::Semantics::AcqRel, litmus::Scope::Cta);

    TraceReader reader(ss);
    TraceLine line;
    ASSERT_EQ(reader.next(line), TraceReader::Status::Ok); // header
    for (std::uint64_t expected = 0; expected < 3; expected++) {
        ASSERT_EQ(reader.next(line), TraceReader::Status::Ok);
        EXPECT_EQ(line.event.seq, expected);
    }
}

TEST(TraceReader, AcceptsFieldsInAnyOrder)
{
    std::stringstream ss;
    ss << R"({"uid":5,"val":3,"loc":1,"t":0,"ev":"st","seq":12,)"
       << R"("proxy":"texture","scope":"cta","sem":"weak"})" << '\n';
    TraceReader reader(ss);
    TraceLine line;
    ASSERT_EQ(reader.next(line), TraceReader::Status::Ok);
    EXPECT_EQ(line.event.op, TraceOp::Store);
    EXPECT_EQ(line.event.seq, 12u);
    EXPECT_EQ(line.event.uid, 5u);
    EXPECT_EQ(line.event.proxy, litmus::ProxyKind::Texture);
    EXPECT_EQ(line.event.sem, litmus::Semantics::Weak);
}

TEST(TraceReader, SkipsUnknownFieldsAndBlankLines)
{
    std::stringstream ss;
    ss << '\n'
       << R"({"seq":0,"ev":"commit","uid":2,"future":[1,{"a":"b"}],)"
       << R"("note":"ignored"})" << '\n'
       << "   \n";
    TraceReader reader(ss);
    TraceLine line;
    ASSERT_EQ(reader.next(line), TraceReader::Status::Ok);
    EXPECT_EQ(line.event.op, TraceOp::Commit);
    EXPECT_EQ(line.event.uid, 2u);
    EXPECT_EQ(reader.next(line), TraceReader::Status::Eof);
}

TEST(TraceReader, ReportsErrorsAndRecovers)
{
    std::stringstream ss;
    ss << "this is not json\n"
       << R"({"seq":1,"ev":"nonsense"})" << '\n'
       << R"({"seq":2,"ev":"bar","t":0,"bar":1})" << '\n';
    TraceReader reader(ss);
    TraceLine line;
    EXPECT_EQ(reader.next(line), TraceReader::Status::Error);
    EXPECT_EQ(reader.lineNumber(), 1u);
    EXPECT_EQ(reader.next(line), TraceReader::Status::Error);
    EXPECT_NE(reader.error().find("nonsense"), std::string::npos);
    ASSERT_EQ(reader.next(line), TraceReader::Status::Ok);
    EXPECT_EQ(line.event.op, TraceOp::Barrier);
    EXPECT_EQ(line.event.barrier, 1u);
}

TEST(TraceReader, RejectsUnsupportedSchema)
{
    std::stringstream ss;
    ss << R"({"schema":"mixedproxy.trace.v999","test":"mp"})" << '\n';
    TraceReader reader(ss);
    TraceLine line;
    EXPECT_EQ(reader.next(line), TraceReader::Status::Error);
    EXPECT_NE(reader.error().find("schema"), std::string::npos);
}

TEST(TraceReader, AcceptsEscapedStrings)
{
    std::stringstream ss;
    ss << R"({"seq":0,"ev":"l\u0064","t":0,"loc":0,"val":0,"rf":0,)"
       << R"("rd":"r\u0030","sem":"rel\u0061xed","scope":"gpu"})" << '\n';
    TraceReader reader(ss);
    TraceLine line;
    ASSERT_EQ(reader.next(line), TraceReader::Status::Ok) << reader.error();
    EXPECT_EQ(line.event.op, TraceOp::Load);
    EXPECT_EQ(line.event.destReg, "r0");
    EXPECT_EQ(line.event.sem, litmus::Semantics::Relaxed);
}

TEST(TraceReader, SyntaxErrorsComeFromTheSharedReader)
{
    // Unknown fields must hold valid JSON; syntax errors carry the
    // shared reader's text and offset, and the next line still parses.
    std::stringstream ss;
    ss << R"({"seq":0,"ev":"commit","uid":2,"future":garbage})" << '\n'
       << R"({"seq":1,"ev":"commit","uid":-2})" << '\n'
       << R"({"seq":2,"ev":"commit","uid":3,"x":[1,}]})" << '\n'
       << R"({"seq":3,"ev":"bar","t":0,"bar":1})" << '\n';
    TraceReader reader(ss);
    TraceLine line;
    ASSERT_EQ(reader.next(line), TraceReader::Status::Error);
    EXPECT_EQ(reader.error(), "malformed number at offset 40");
    ASSERT_EQ(reader.next(line), TraceReader::Status::Error);
    EXPECT_EQ(reader.error(), "expected unsigned integer at offset 29");
    ASSERT_EQ(reader.next(line), TraceReader::Status::Error);
    EXPECT_EQ(reader.error(), "malformed number at offset 38");
    ASSERT_EQ(reader.next(line), TraceReader::Status::Ok);
    EXPECT_EQ(line.event.op, TraceOp::Barrier);
    EXPECT_EQ(reader.lineNumber(), 4u);
}

TEST(TraceReader, TraceLevelErrorTextsAreUnchanged)
{
    const std::pair<const char *, const char *> cases[] = {
        {R"({"seq":0})", "event line missing \"ev\""},
        {R"({"seq":0,"ev":"jump"})", "unknown event \"jump\""},
        {R"({"ev":"ld","sem":"firm"})", "unknown semantics \"firm\""},
        {R"({"ev":"ld","scope":"galaxy"})", "unknown scope \"galaxy\""},
        {R"({"ev":"ld","proxy":"psychic"})", "unknown proxy \"psychic\""},
        {R"({"ev":"fence_proxy","kind":"odd"})",
         "unknown proxy fence kind \"odd\""},
        {R"({"ev":"bar"} {})", "trailing content after line object"},
        {R"({"schema":"mixedproxy.trace.v0"})",
         "unsupported trace schema \"mixedproxy.trace.v0\""},
    };
    for (const auto &[text, message] : cases) {
        TraceLine line;
        std::string error;
        EXPECT_FALSE(conform::parseTraceLine(text, line, error)) << text;
        EXPECT_EQ(error, message) << text;
    }
}

TEST(TraceReader, OverCapLineIsMalformedAndReadingContinues)
{
    // One byte over the line cap: the line is discarded unread and
    // reported; the following line is read as usual.
    std::string text = R"({"seq":0,"ev":"commit","uid":2})";
    text.resize(json::kMaxLineBytes + 1, ' ');
    text += "\n";
    text += R"({"seq":1,"ev":"bar","t":0,"bar":1})";
    text += "\n";
    std::istringstream ss(std::move(text));
    TraceReader reader(ss);
    TraceLine line;
    ASSERT_EQ(reader.next(line), TraceReader::Status::Error);
    EXPECT_EQ(reader.error(), "line longer than " +
                                  std::to_string(json::kMaxLineBytes) +
                                  " bytes");
    ASSERT_EQ(reader.next(line), TraceReader::Status::Ok);
    EXPECT_EQ(line.event.op, TraceOp::Barrier);
    EXPECT_EQ(reader.lineNumber(), 2u);
    EXPECT_EQ(reader.next(line), TraceReader::Status::Eof);
}

} // namespace
