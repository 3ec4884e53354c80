/**
 * @file
 * Regenerates the checked-in fuzz seed corpus (tests/corpus/): small
 * valid APTR / VCD / APDS artifacts plus systematically malformed
 * variants (truncations at interesting offsets, bad magics, absurd
 * declared sizes). Deterministic — running it twice produces identical
 * bytes, so the corpus only changes when the formats do.
 *
 * Usage: make_corpus <output-dir>
 */

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "trace/dataset.hh"
#include "trace/dataset_io.hh"
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

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: make_corpus <output-dir>\n");
        return 2;
    }
    const fs::path root(argv[1]);
    for (const char *sub : {"aptr", "vcd", "dataset"})
        fs::create_directories(root / sub);
    makeAptrCorpus(root / "aptr");
    makeVcdCorpus(root / "vcd");
    makeDatasetCorpus(root / "dataset");
    return 0;
}
