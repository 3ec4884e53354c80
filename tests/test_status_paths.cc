/**
 * @file
 * Exhaustive error-path coverage for the Status/StatusOr surfaces of
 * the trace parsers (ISSUE satellite 3): every field boundary of the
 * APTR format truncated in turn, mid-token VCD EOF, forged headers,
 * and arity mismatches — each asserting the *code*, not just failure,
 * so the ParseError/IoError/InvalidArgument contract documented in
 * trace/stream_reader.hh stays pinned.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trace/dataset_io.hh"
#include "trace/stream_reader.hh"
#include "trace/vcd.hh"

namespace apollo {
namespace {

/** Drain a chunk reader until end-of-trace or the first error. */
Status
drain(ProxyChunkReader &reader, size_t chunk_rows = 64)
{
    ProxyChunk chunk;
    for (int guard = 0; guard < 1 << 16; ++guard) {
        StatusOr<size_t> got = reader.next(chunk_rows, chunk);
        if (!got.ok())
            return got.status();
        if (*got == 0)
            return Status::okStatus();
    }
    ADD_FAILURE() << "reader never terminated";
    return Status::okStatus();
}

std::string
validAptrBytes(size_t rows = 10, size_t cols = 2)
{
    BitColumnMatrix Xq(rows, cols);
    for (size_t r = 0; r < rows; ++r)
        Xq.setBit(r, r % cols);
    std::ostringstream os;
    ProxyTraceWriter writer(os, cols);
    EXPECT_TRUE(writer.append(Xq).ok());
    EXPECT_TRUE(writer.finish().ok());
    return os.str();
}

void
patchU32(std::string &bytes, size_t offset, uint32_t v)
{
    ASSERT_LE(offset + 4, bytes.size());
    bytes.replace(offset, 4,
                  std::string(reinterpret_cast<const char *>(&v), 4));
}

void
patchU64(std::string &bytes, size_t offset, uint64_t v)
{
    ASSERT_LE(offset + 8, bytes.size());
    bytes.replace(offset, 8,
                  std::string(reinterpret_cast<const char *>(&v), 8));
}

// --- APTR: truncation at every field boundary ------------------------

TEST(AptrStatus, EveryPrefixTruncationHasTheDocumentedCode)
{
    const std::string bytes = validAptrBytes();
    // Layout: magic[4] version[4] q[4] cycles[8] | rows[4] data[16] |
    // terminator[4] — 44 bytes total for 10 x 2.
    ASSERT_EQ(bytes.size(), 44u);
    for (size_t len = 0; len < bytes.size(); ++len) {
        std::istringstream is(bytes.substr(0, len));
        ProxyTraceReader reader(is);
        const Status s = drain(reader);
        ASSERT_FALSE(s.ok()) << "prefix of " << len << " bytes parsed";
        // Inside the magic the stream is indistinguishable from a
        // non-APTR file (ParseError); past it, every cut is a
        // premature end of a well-identified stream (IoError).
        const StatusCode want =
            len < 4 ? StatusCode::ParseError : StatusCode::IoError;
        EXPECT_EQ(s.code(), want)
            << "prefix len " << len << ": " << s.toString();
    }
    std::istringstream whole(bytes);
    ProxyTraceReader reader(whole);
    EXPECT_TRUE(drain(reader).ok());
}

TEST(AptrStatus, BadMagicIsParseError)
{
    std::string bytes = validAptrBytes();
    bytes[0] = 'X';
    std::istringstream is(bytes);
    ProxyTraceReader reader(is);
    EXPECT_EQ(drain(reader).code(), StatusCode::ParseError);
}

TEST(AptrStatus, BadVersionIsParseError)
{
    std::string bytes = validAptrBytes();
    patchU32(bytes, 4, 999);
    std::istringstream is(bytes);
    ProxyTraceReader reader(is);
    EXPECT_EQ(drain(reader).code(), StatusCode::ParseError);
}

TEST(AptrStatus, ZeroOrHugeProxyCountIsParseError)
{
    for (uint32_t q : {uint32_t{0}, (uint32_t{1} << 24) + 1}) {
        std::string bytes = validAptrBytes();
        patchU32(bytes, 8, q);
        std::istringstream is(bytes);
        ProxyTraceReader reader(is);
        EXPECT_EQ(drain(reader).code(), StatusCode::ParseError)
            << "q = " << q;
    }
}

TEST(AptrStatus, CycleCountMismatchIsParseError)
{
    std::string bytes = validAptrBytes();
    patchU64(bytes, 12, 99); // header claims 99, blocks hold 10
    std::istringstream is(bytes);
    ProxyTraceReader reader(is);
    EXPECT_EQ(drain(reader).code(), StatusCode::ParseError);
}

TEST(AptrStatus, BlockOverrunningHeaderIsParseError)
{
    std::string bytes = validAptrBytes();
    patchU64(bytes, 12, 4); // header claims 4, first block holds 10
    std::istringstream is(bytes);
    ProxyTraceReader reader(is);
    EXPECT_EQ(drain(reader).code(), StatusCode::ParseError);
}

TEST(AptrStatus, ZeroChunkRequestIsInvalidArgument)
{
    const std::string bytes = validAptrBytes();
    std::istringstream is(bytes);
    ProxyTraceReader reader(is);
    ProxyChunk chunk;
    StatusOr<size_t> got = reader.next(0, chunk);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::InvalidArgument);
}

TEST(AptrStatus, WriterArityMismatchIsInvalidArgument)
{
    std::ostringstream os;
    ProxyTraceWriter writer(os, 3);
    BitColumnMatrix wrong(8, 2);
    EXPECT_EQ(writer.append(wrong).code(),
              StatusCode::InvalidArgument);
    BitColumnMatrix right(8, 3);
    EXPECT_TRUE(writer.append(right).ok());
    EXPECT_TRUE(writer.finish().ok());
    EXPECT_EQ(writer.append(right).code(),
              StatusCode::InvalidArgument);
}

// --- VCD: mid-token EOF and malformed bodies -------------------------

const char kVcdHeader[] = "$timescale 1ns $end\n"
                          "$var wire 1 ! sig_a $end\n"
                          "$var wire 1 \" sig_b $end\n"
                          "$enddefinitions $end\n";

TEST(VcdStatus, TruncatedVarDeclarationIsIoError)
{
    // EOF mid-way through the $var field list: the parser knows what
    // it was reading, so this is a premature end, not bad grammar.
    for (const char *frag : {"$var", "$var wire", "$var wire 1",
                             "$var wire 1 !"}) {
        {
            std::istringstream is(frag);
            StatusOr<VcdTrace> got = tryParseVcd(is);
            ASSERT_FALSE(got.ok());
            EXPECT_EQ(got.status().code(), StatusCode::IoError)
                << frag;
        }
        {
            std::istringstream is(frag);
            VcdChunkReader reader(is);
            EXPECT_EQ(drain(reader).code(), StatusCode::IoError)
                << frag;
        }
    }
}

TEST(VcdStatus, NoVarDeclarationsIsParseError)
{
    for (const char *body :
         {"", "$timescale 1ns $end\n$enddefinitions $end\n#0\n"}) {
        {
            std::istringstream is(body);
            StatusOr<VcdTrace> got = tryParseVcd(is);
            ASSERT_FALSE(got.ok());
            EXPECT_EQ(got.status().code(), StatusCode::ParseError);
        }
        {
            std::istringstream is(body);
            VcdChunkReader reader(is);
            EXPECT_EQ(drain(reader).code(), StatusCode::ParseError);
        }
    }
}

TEST(VcdStatus, UnknownIdIsParseError)
{
    const std::string body = std::string(kVcdHeader) + "#0\n1z\n#1\n";
    {
        std::istringstream is(body);
        StatusOr<VcdTrace> got = tryParseVcd(is);
        ASSERT_FALSE(got.ok());
        EXPECT_EQ(got.status().code(), StatusCode::ParseError);
    }
    {
        std::istringstream is(body);
        VcdChunkReader reader(is);
        EXPECT_EQ(drain(reader).code(), StatusCode::ParseError);
    }
}

TEST(VcdStatus, BadTimestampIsParseError)
{
    const std::string body = std::string(kVcdHeader) + "#zzz\n1!\n";
    {
        std::istringstream is(body);
        StatusOr<VcdTrace> got = tryParseVcd(is);
        ASSERT_FALSE(got.ok());
        EXPECT_EQ(got.status().code(), StatusCode::ParseError);
    }
    {
        std::istringstream is(body);
        VcdChunkReader reader(is);
        EXPECT_EQ(drain(reader).code(), StatusCode::ParseError);
    }
}

TEST(VcdStatus, NonMonotonicTimestampIsParseErrorWhenStreaming)
{
    const std::string body =
        std::string(kVcdHeader) + "#5\n1!\n#2\n0!\n";
    std::istringstream is(body);
    VcdChunkReader reader(is);
    EXPECT_EQ(drain(reader).code(), StatusCode::ParseError);
}

TEST(VcdStatus, DuplicateIdIsParseErrorWhenStreaming)
{
    const std::string body = "$var wire 1 ! sig_a $end\n"
                             "$var wire 1 ! sig_b $end\n"
                             "$enddefinitions $end\n#0\n";
    std::istringstream is(body);
    VcdChunkReader reader(is);
    EXPECT_EQ(drain(reader).code(), StatusCode::ParseError);
}

TEST(VcdStatus, MidTokenBodyEofIsCleanEndOfTrace)
{
    // The body grammar is whitespace-delimited, so a cut mid-token
    // yields a shorter final token and the trace simply ends at the
    // last complete timestamp — defined, non-erroring behavior.
    const std::string body =
        std::string(kVcdHeader) + "#0\n1!\n#4\n0!\n#8";
    std::istringstream is(body);
    VcdChunkReader reader(is);
    EXPECT_TRUE(drain(reader).ok());
}

// --- Dataset loader --------------------------------------------------

std::string
validDatasetBytes()
{
    Dataset ds;
    ds.X.reset(4, 1);
    ds.X.setBit(1, 0);
    ds.X.setBit(3, 0);
    ds.y = {0.5f, 1.5f, 2.5f, 3.5f};
    ds.segments = {{"seg", 0, 4}};
    std::ostringstream os;
    saveDataset(os, ds);
    return os.str();
}

TEST(DatasetStatus, EveryPrefixTruncationHasTheDocumentedCode)
{
    const std::string bytes = validDatasetBytes();
    // magic[4] version[4] rows[8] cols[8] col words[8] y[16]
    // n_segments[8] name_len[8] name[3] begin[8] end[8] — 83 bytes.
    ASSERT_EQ(bytes.size(), 83u);
    for (size_t len = 0; len < bytes.size(); ++len) {
        std::istringstream is(bytes.substr(0, len));
        StatusOr<Dataset> got = tryLoadDataset(is);
        ASSERT_FALSE(got.ok()) << "prefix of " << len << " bytes";
        const StatusCode want =
            len < 4 ? StatusCode::ParseError : StatusCode::IoError;
        EXPECT_EQ(got.status().code(), want)
            << "prefix len " << len << ": "
            << got.status().toString();
    }
    std::istringstream whole(bytes);
    StatusOr<Dataset> got = tryLoadDataset(whole);
    ASSERT_TRUE(got.ok()) << got.status().toString();
    EXPECT_EQ(got->X.rows(), 4u);
    EXPECT_EQ(got->segments.size(), 1u);
}

TEST(DatasetStatus, ForgedFieldsAreParseErrors)
{
    {
        std::string bytes = validDatasetBytes();
        bytes[2] = 'X'; // magic
        std::istringstream is(bytes);
        EXPECT_EQ(tryLoadDataset(is).status().code(),
                  StatusCode::ParseError);
    }
    {
        std::string bytes = validDatasetBytes();
        patchU32(bytes, 4, 42); // version
        std::istringstream is(bytes);
        EXPECT_EQ(tryLoadDataset(is).status().code(),
                  StatusCode::ParseError);
    }
    {
        std::string bytes = validDatasetBytes();
        patchU64(bytes, 8, 0); // rows = 0
        std::istringstream is(bytes);
        EXPECT_EQ(tryLoadDataset(is).status().code(),
                  StatusCode::ParseError);
    }
    {
        std::string bytes = validDatasetBytes();
        patchU64(bytes, 48, 1000); // n_segments > rows
        std::istringstream is(bytes);
        EXPECT_EQ(tryLoadDataset(is).status().code(),
                  StatusCode::ParseError);
    }
    {
        std::string bytes = validDatasetBytes();
        patchU64(bytes, 56, 1 << 20); // name_len
        std::istringstream is(bytes);
        EXPECT_EQ(tryLoadDataset(is).status().code(),
                  StatusCode::ParseError);
    }
    {
        std::string bytes = validDatasetBytes();
        patchU64(bytes, 75, 99); // segment end > rows
        std::istringstream is(bytes);
        EXPECT_EQ(tryLoadDataset(is).status().code(),
                  StatusCode::ParseError);
    }
}

TEST(DatasetStatus, ForgedTailBitsAreParseErrors)
{
    // rows = 4: bits 4..63 of the column's only word must be zero, or
    // colPopcount (and every popcount kernel) would count phantom
    // toggles.
    for (const int bit : {4, 63}) {
        std::string bytes = validDatasetBytes();
        patchU64(bytes, 24, 0b1010 | (uint64_t{1} << bit));
        std::istringstream is(bytes);
        StatusOr<Dataset> got = tryLoadDataset(is);
        ASSERT_FALSE(got.ok()) << "tail bit " << bit;
        EXPECT_EQ(got.status().code(), StatusCode::ParseError)
            << got.status().toString();
    }
}

} // namespace
} // namespace apollo
