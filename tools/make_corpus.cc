/**
 * @file
 * Regenerates the checked-in fuzz seed corpus (tests/corpus/): small
 * valid APTR / VCD / APDS / APSH artifacts, serve wire request lines
 * and model files, plus systematically malformed variants
 * (truncations at interesting offsets, bad magics, absurd declared
 * sizes, forged tail bits, non-finite weights). Deterministic —
 * running it twice produces identical bytes, so the corpus only
 * changes when the formats do.
 *
 * Usage: make_corpus <output-dir>
 */

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/apollo_model.hh"
#include "serve/wire.hh"
#include "trace/dataset.hh"
#include "trace/dataset_io.hh"
#include "trace/shard_store.hh"
#include "trace/stream_reader.hh"
#include "util/bitvec.hh"
#include "util/rng.hh"

namespace fs = std::filesystem;
using namespace apollo;

namespace {

void
writeFile(const fs::path &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
    std::printf("  %s (%zu bytes)\n", path.string().c_str(),
                bytes.size());
}

std::string
patch(std::string bytes, size_t at, const void *data, size_t len)
{
    bytes.replace(at, len,
                  std::string(static_cast<const char *>(data), len));
    return bytes;
}

void
makeAptrCorpus(const fs::path &dir)
{
    Xoshiro256StarStar rng(hashMix(0xa9712));
    BitColumnMatrix Xq(37, 3);
    for (size_t c = 0; c < Xq.cols(); ++c)
        for (size_t r = 0; r < Xq.rows(); ++r)
            if (rng.nextDouble() < 0.3)
                Xq.setBit(r, c);

    std::ostringstream one_block;
    {
        ProxyTraceWriter w(one_block, Xq.cols());
        (void)w.append(Xq);
        (void)w.finish();
    }
    const std::string valid = one_block.str();
    writeFile(dir / "valid_small.aptr", valid);

    std::ostringstream multi;
    {
        ProxyTraceWriter w(multi, Xq.cols());
        BitColumnMatrix block(8, Xq.cols());
        for (size_t begin = 0; begin < Xq.rows(); begin += 8) {
            const size_t rows = std::min<size_t>(8, Xq.rows() - begin);
            block.reset(rows, Xq.cols());
            for (size_t c = 0; c < Xq.cols(); ++c)
                for (size_t r = 0; r < rows; ++r)
                    if (Xq.get(begin + r, c))
                        block.setBit(r, c);
            (void)w.append(block);
        }
        (void)w.finish();
    }
    writeFile(dir / "valid_multiblock.aptr", multi.str());

    writeFile(dir / "empty.aptr", "");
    writeFile(dir / "trunc_header.aptr", valid.substr(0, 7));
    writeFile(dir / "trunc_midblock.aptr",
              valid.substr(0, valid.size() * 3 / 5));
    writeFile(dir / "no_terminator.aptr",
              valid.substr(0, valid.size() - 4));
    writeFile(dir / "bad_magic.aptr", "XPTR" + valid.substr(4));

    // Header fields: "APTR" u32 version u32 q u64 cycles.
    const uint32_t huge_q = 0x7fffffffu;
    writeFile(dir / "huge_q.aptr", patch(valid, 8, &huge_q, 4));
    const uint64_t huge_cycles = ~uint64_t{0};
    writeFile(dir / "huge_cycles.aptr",
              patch(valid, 12, &huge_cycles, 8));
    // First block row count (u32 right after the 20-byte header).
    const uint32_t huge_rows = 0xffffffffu;
    writeFile(dir / "huge_block_rows.aptr",
              patch(valid, 20, &huge_rows, 4));
}

void
makeVcdCorpus(const fs::path &dir)
{
    const std::string header = "$timescale 1ns $end\n"
                               "$scope module top $end\n"
                               "$var wire 1 ! sig_a $end\n"
                               "$var wire 1 \" sig_b $end\n"
                               "$upscope $end\n"
                               "$enddefinitions $end\n"
                               "$dumpvars\n0!\n0\"\n$end\n";
    const std::string body = "#0\n1!\n#1\n0!\n1\"\n#2\n1!\n#5\n0\"\n#6\n";
    writeFile(dir / "valid_small.vcd", header + body);
    writeFile(dir / "empty.vcd", "");
    writeFile(dir / "no_vars.vcd", "$enddefinitions $end\n#0\n#1\n");
    writeFile(dir / "unknown_id.vcd", header + "#0\n1%\n#2\n");
    writeFile(dir / "backwards_ts.vcd", header + "#4\n1!\n#2\n0!\n#6\n");
    writeFile(dir / "huge_ts.vcd",
              header + "#0\n1!\n#18446744073709551615\n0!\n");
    writeFile(dir / "big_gap_ts.vcd",
              header + "#0\n1!\n#4294968000\n0!\n#4294969000\n");
    writeFile(dir / "trunc_mid_token.vcd",
              header + "#0\n1!\n#1\n1");
    writeFile(dir / "bad_ts.vcd", header + "#zzz\n1!\n");
    writeFile(dir / "header_only.vcd", header);
}

void
makeDatasetCorpus(const fs::path &dir)
{
    Xoshiro256StarStar rng(hashMix(0xa9d5));
    Dataset ds;
    ds.X.reset(24, 5);
    for (size_t c = 0; c < 5; ++c)
        for (size_t r = 0; r < 24; ++r)
            if (rng.nextDouble() < 0.4)
                ds.X.setBit(r, c);
    ds.y.resize(24);
    for (float &v : ds.y)
        v = static_cast<float>(rng.nextRange(0.0, 3.0));
    ds.segments = {{"warm", 0, 10}, {"hot", 10, 24}};

    std::ostringstream os;
    saveDataset(os, ds);
    const std::string valid = os.str();
    writeFile(dir / "valid_small.apds", valid);
    writeFile(dir / "empty.apds", "");
    writeFile(dir / "bad_magic.apds", "XPDS" + valid.substr(4));
    writeFile(dir / "trunc_header.apds", valid.substr(0, 9));
    writeFile(dir / "trunc_matrix.apds",
              valid.substr(0, valid.size() / 3));
    writeFile(dir / "trunc_labels.apds",
              valid.substr(0, valid.size() * 2 / 3));
    writeFile(dir / "trunc_tail.apds",
              valid.substr(0, valid.size() - 3));

    // Header: "APDS" u32 version u64 rows u64 cols.
    const uint64_t huge = ~uint64_t{0} / 2;
    writeFile(dir / "huge_rows.apds", patch(valid, 8, &huge, 8));
    writeFile(dir / "huge_cols.apds", patch(valid, 16, &huge, 8));
    // rows = 24: an all-ones column 0 word (at byte 24) sets bits
    // 24..63 past the last row, which the zero-tail rule forbids.
    const uint64_t forged_word = ~uint64_t{0};
    writeFile(dir / "forged_tail.apds", patch(valid, 24, &forged_word, 8));
}

void
makeShardCorpus(const fs::path &dir)
{
    Xoshiro256StarStar rng(hashMix(0xa95b));
    BitColumnMatrix X(37, 3);
    for (size_t c = 0; c < X.cols(); ++c)
        for (size_t r = 0; r < X.rows(); ++r)
            if (rng.nextDouble() < 0.3)
                X.setBit(r, c);
    // The real writer makes the valid file, so the corpus follows the
    // format.
    const std::string base = (dir / "make_corpus_tmp").string();
    saveShardedMatrix(base, X, 1, X.cols()).orFatal();
    std::string valid;
    {
        std::ifstream is(shardPath(base, 0), std::ios::binary);
        std::ostringstream os;
        os << is.rdbuf();
        valid = os.str();
    }
    fs::remove(shardPath(base, 0));
    writeFile(dir / "valid_one_shard.apsh", valid);

    // Header: "APSH" u32 version u64 rows u64 colsTotal u32 shardIndex
    // u32 shardCount u64 firstCol u64 cols, then the payload at 48.
    writeFile(dir / "bad_magic.apsh", "XPSH" + valid.substr(4));
    const uint32_t version = 2;
    writeFile(dir / "bad_version.apsh", patch(valid, 4, &version, 4));
    writeFile(dir / "trunc_header.apsh", valid.substr(0, 20));
    writeFile(dir / "payload_word_short.apsh",
              valid.substr(0, valid.size() - 8));
    writeFile(dir / "payload_word_long.apsh",
              valid + std::string(8, '\0'));
    const uint64_t max_rows = kShardMaxRows;
    writeFile(dir / "rows_past_max.apsh", patch(valid, 8, &max_rows, 8));
    const uint64_t max_cols = kShardMaxCols;
    writeFile(dir / "cols_past_max.apsh", patch(valid, 16, &max_cols, 8));
    const uint32_t index = 1;
    writeFile(dir / "index_past_count.apsh", patch(valid, 24, &index, 4));
    // rows = 37: an all-ones column 0 word sets bits 37..63 past the
    // last row, which the zero-tail rule forbids.
    const uint64_t forged_word = ~uint64_t{0};
    writeFile(dir / "forged_tail.apsh", patch(valid, 48, &forged_word, 8));
}

void
makeWireCorpus(const fs::path &dir)
{
    writeFile(dir / "list_models.ndjson",
              "{\"schema_version\":1,\"op\":\"list_models\"}\n");
    serve::WireRequest create;
    create.op = serve::RequestOp::CreateSession;
    create.session = "s0";
    create.model = "n1_q10";
    create.windowT = 32;
    writeFile(dir / "create_session.ndjson", serve::encodeRequest(create));
    serve::WireRequest close;
    close.op = serve::RequestOp::CloseSession;
    close.session = "s0";
    writeFile(dir / "close_session.ndjson", serve::encodeRequest(close));
    close.op = serve::RequestOp::CancelSession;
    writeFile(dir / "cancel_session.ndjson", serve::encodeRequest(close));

    // 70 cycles x 2 proxies: the second word of each column is a
    // 6-row tail, kept zero past row 70.
    serve::WireRequest submit;
    submit.op = serve::RequestOp::SubmitChunk;
    submit.session = "s0";
    submit.bits.reset(70, 2);
    Xoshiro256StarStar rng(0x3172e);
    for (size_t c = 0; c < 2; ++c)
        for (size_t r = 0; r < 70; ++r)
            if (rng.nextDouble() < 0.4)
                submit.bits.setBit(r, c);
    submit.bits.setBit(69, 1);
    const std::string zero_tail = serve::encodeRequest(submit);
    writeFile(dir / "submit_zero_tail.ndjson", zero_tail);
    submit.bits.reset(128, 1);
    for (size_t r = 0; r < 128; r += 3)
        submit.bits.setBit(r, 0);
    writeFile(dir / "submit_full_words.ndjson",
              serve::encodeRequest(submit));
    // Row 70 of column 0 set: bit 6 of the tail word, past the
    // declared cycles. The word's hex digits start 16 digits into the
    // payload, most significant first, so bit 6 is digit 14 ("4").
    std::string forged = zero_tail;
    const size_t payload = forged.find("\"bits\":\"") + 8;
    forged[payload + 16 + 14] = '4';
    writeFile(dir / "submit_forged_tail.ndjson", forged);
    // Declared sizes past the protocol bounds, and one whose payload
    // size overflows 64 bits, each with a tiny payload.
    writeFile(dir / "submit_huge_cycles.ndjson",
              "{\"schema_version\":1,\"op\":\"submit_chunk\",\"session\":"
              "\"s0\",\"cycles\":4294967297,\"proxies\":1,\"bits\":"
              "\"0000000000000000\"}\n");
    writeFile(dir / "submit_huge_proxies.ndjson",
              "{\"schema_version\":1,\"op\":\"submit_chunk\",\"session\":"
              "\"s0\",\"cycles\":64,\"proxies\":1048577,\"bits\":"
              "\"0000000000000000\"}\n");
    writeFile(dir / "submit_max_dims.ndjson",
              "{\"schema_version\":1,\"op\":\"submit_chunk\",\"session\":"
              "\"s0\",\"cycles\":4294967296,\"proxies\":1048576,"
              "\"bits\":\"00\"}\n");
    // The payload decoder's own framing (fuzz_wire.cc): rows = 70 as a
    // little-endian u16, cols = 1, then 32 hex digits.
    writeFile(dir / "payload_direct.bin",
              std::string("\x46\x00\x01", 3) +
                  "00000000000000010000000000000020");
}

void
makeModelCorpus(const fs::path &dir)
{
    ApolloModel model;
    model.designName = "n1ish";
    model.intercept = 0.8125;
    model.proxyIds = {17, 4, 23001};
    model.weights = {0.25f, -1.5f, 3.0517578e-05f};
    std::ostringstream os;
    model.save(os);
    const std::string valid = os.str();
    writeFile(dir / "valid.model", valid);
    model.intercept = -0.0;
    model.weights = {-0.0f, 1e-40f, 0.0f};
    std::ostringstream edge;
    model.save(edge);
    writeFile(dir / "negzero_subnormal.model", edge.str());
    for (const auto &[file, name] :
         {std::pair{"empty_name.model", ""},
          std::pair{"spaced_name.model", "two words\tand a tab"}}) {
        model.designName = name;
        std::ostringstream named;
        model.save(named);
        writeFile(dir / file, named.str());
    }
    writeFile(dir / "empty.model", "");
    writeFile(dir / "bad_magic.model", "apollo-modle 1\nd\n0 0\n");
    writeFile(dir / "bad_version.model", "apollo-model 2\nd\n0 0\n");
    writeFile(dir / "trunc_header.model", "apollo-model 1\nd\n3\n");
    writeFile(dir / "trunc_entries.model",
              valid.substr(0, valid.rfind('\n', valid.size() - 2) + 1));
    writeFile(dir / "huge_count.model",
              "apollo-model 1\nd\n4611686018427387904 0\n1 0.5\n");
    writeFile(dir / "nan_weight.model", "apollo-model 1\nd\n1 0\n3 nan\n");
    writeFile(dir / "inf_weight.model", "apollo-model 1\nd\n1 0\n3 -inf\n");
    writeFile(dir / "huge_weight.model",
              "apollo-model 1\nd\n1 0\n3 1e99\n");
    writeFile(dir / "nan_intercept.model",
              "apollo-model 1\nd\n1 nan\n3 0.5\n");
    writeFile(dir / "duplicate_id.model",
              "apollo-model 1\nd\n2 0\n3 0.25\n3 0.5\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: make_corpus <output-dir>\n");
        return 2;
    }
    const fs::path root(argv[1]);
    for (const char *sub :
         {"aptr", "vcd", "dataset", "wire", "model", "shard"})
        fs::create_directories(root / sub);
    makeAptrCorpus(root / "aptr");
    makeVcdCorpus(root / "vcd");
    makeDatasetCorpus(root / "dataset");
    makeWireCorpus(root / "wire");
    makeModelCorpus(root / "model");
    makeShardCorpus(root / "shard");
    return 0;
}
