/**
 * @file
 * Property tests for the packed column-major 64-cycle toggle layout
 * that the bit-parallel streaming kernels consume (docs/INTERNALS.md
 * §12): pack -> unpack roundtrips, the zero-tail masking rule at
 * word-boundary trace lengths, cross-chunk partial-word carry
 * equivalence against single-chunk runs, popcount-kernel agreement
 * across implementations, and rejection of forged tail bits in the
 * APTR trace decoder.
 */

#include <gtest/gtest.h>

#include <bit>
#include <sstream>

#include "apollo.hh"

#include "activity/toggle_columns.hh"
#include "ref/reference_ga.hh"
#include "ref/reference_kernels.hh"
#include "util/popcnt_kernels.hh"

namespace apollo {
namespace {

BitColumnMatrix
randomMatrix(size_t rows, size_t cols, uint64_t seed,
             uint32_t density_pct = 30)
{
    Xoshiro256StarStar rng(seed);
    BitColumnMatrix m(rows, cols);
    for (size_t c = 0; c < cols; ++c)
        for (size_t r = 0; r < rows; ++r)
            if (rng() % 100 < density_pct)
                m.setBit(r, c);
    return m;
}

ApolloModel
randomModel(size_t q, uint64_t seed)
{
    Xoshiro256StarStar rng(seed);
    ApolloModel model;
    model.intercept = 0.41;
    for (size_t i = 0; i < q; ++i) {
        model.proxyIds.push_back(static_cast<uint32_t>(i));
        const double u =
            static_cast<double>(rng() % 2000) / 1000.0 - 1.0;
        model.weights.push_back(
            i % 6 == 2 ? 0.0f : static_cast<float>(u));
    }
    return model;
}

std::vector<ActivityFrame>
randomFrames(size_t n, uint64_t seed)
{
    Xoshiro256StarStar rng(seed);
    std::vector<ActivityFrame> frames(n);
    for (size_t i = 0; i < n; ++i) {
        ActivityFrame &f = frames[i];
        f.cycle = i;
        for (size_t u = 0; u < numUnits; ++u) {
            f.activity[u] = static_cast<float>(rng() % 1000) / 1000.0f;
            f.clockEnabled[u] = rng() % 100 < 85;
            f.dataToggle[u] = static_cast<float>(rng() % 1000) / 1000.0f;
        }
    }
    return frames;
}

/** Every signal id of the tiny design, in order. */
std::vector<uint32_t>
allSignals(const Netlist &netlist)
{
    std::vector<uint32_t> ids(netlist.signalCount());
    for (uint32_t s = 0; s < netlist.signalCount(); ++s)
        ids[s] = s;
    return ids;
}

// Word-boundary trace lengths the packed layout must handle: the
// empty trace, a single cycle, one bit below/at/above a word, and a
// multi-word length with a partial tail.
constexpr size_t kEdgeLengths[] = {0, 1, 63, 64, 65, 200};

/**
 * Segment tables over @p n rows: one segment (empty), every row its
 * own segment, and 63-row segments.
 */
std::vector<std::vector<uint32_t>>
segmentTables(size_t n)
{
    std::vector<uint32_t> each(n), by63(n);
    for (size_t i = 0; i < n; ++i) {
        each[i] = static_cast<uint32_t>(i);
        by63[i] = static_cast<uint32_t>(i - i % 63);
    }
    return {{}, each, by63};
}

TEST(StreamInferPackedColumns, TraceProxiesMatchesReferenceColumns)
{
    const Netlist netlist = DesignBuilder::build(DesignConfig::tiny());
    const ActivityEngine engine(netlist);
    const std::vector<uint32_t> ids = allSignals(netlist);

    for (const size_t n : kEdgeLengths) {
        const std::vector<ActivityFrame> frames =
            randomFrames(n, 0x9a0 + n);
        for (const std::vector<uint32_t> &table : segmentTables(n)) {
            const BitColumnMatrix packed =
                DatasetBuilder::traceProxies(engine, frames, ids, table);
            ASSERT_EQ(packed.rows(), n);
            ASSERT_EQ(packed.cols(), ids.size());
            for (size_t k = 0; k < ids.size(); ++k) {
                const std::vector<uint8_t> want =
                    ref::toggleColumn(engine, frames, ids[k], table);
                for (size_t i = 0; i < n; ++i)
                    ASSERT_EQ(packed.get(i, k), want[i] != 0)
                        << "n=" << n << " segments=" << table.size()
                        << " sig=" << ids[k] << " cycle=" << i;
            }
        }
    }
}

TEST(StreamInferPackedColumns, FillColumnMatchesReferenceOverWindows)
{
    const Netlist netlist = DesignBuilder::build(DesignConfig::tiny());
    const ActivityEngine engine(netlist);
    const std::vector<ActivityFrame> frames = randomFrames(321, 0xb5);
    std::vector<uint32_t> table;
    uint32_t start = 0;
    for (const uint32_t len : {1u, 64u, 65u, 2u, 189u}) {
        table.insert(table.end(), len, start);
        start += len;
    }
    ASSERT_EQ(table.size(), frames.size());
    const std::pair<size_t, size_t> windows[] = {
        {0, 321}, {1, 200}, {63, 65}, {64, 64}, {66, 70}, {131, 190},
        {320, 1}};

    ToggleColumnGenerator gen(engine);
    for (const auto &[first, count] : windows) {
        gen.bind(frames, table, first, count);
        std::vector<uint64_t> col(gen.wordCount());
        for (uint32_t sig = 0; sig < netlist.signalCount(); ++sig) {
            gen.fillColumn(sig, col.data());
            const std::vector<uint8_t> want =
                ref::toggleColumn(engine, frames, sig, table);
            for (size_t i = 0; i < count; ++i)
                ASSERT_EQ((col[i >> 6] >> (i & 63)) & 1, want[first + i])
                    << "window=[" << first << ",+" << count
                    << ") sig=" << sig << " row=" << first + i;
            if (count & 63) {
                ASSERT_EQ(col[count >> 6] >> (count & 63), 0u)
                    << "window=[" << first << ",+" << count
                    << ") sig=" << sig;
            }
        }
    }
}

TEST(StreamInferPackedColumns, TailBitsAreZeroAtWordBoundaries)
{
    const Netlist netlist = DesignBuilder::build(DesignConfig::tiny());
    const ActivityEngine engine(netlist);
    const std::vector<uint32_t> ids = allSignals(netlist);

    for (const size_t n : kEdgeLengths) {
        const std::vector<ActivityFrame> frames =
            randomFrames(n, 0xc70 + n);
        const BitColumnMatrix packed =
            DatasetBuilder::traceProxies(engine, frames, ids, {});
        ASSERT_EQ(packed.wordsPerCol(), (n + 63) / 64) << "n=" << n;
        if (n == 0 || (n & 63) == 0)
            continue;
        for (size_t k = 0; k < ids.size(); ++k) {
            const uint64_t tail =
                packed.colWords(k)[packed.wordsPerCol() - 1] >> (n & 63);
            ASSERT_EQ(tail, 0u) << "n=" << n << " sig=" << ids[k];
        }
    }
}

TEST(StreamInferPackedColumns, MaskTailWordsEnforcesTheRule)
{
    for (const size_t n : kEdgeLengths) {
        const size_t words = (n + 63) / 64;
        std::vector<uint64_t> col(words, ~uint64_t{0});
        maskTailWords(col.data(), words, n);
        for (size_t i = 0; i < words * 64; ++i) {
            const bool set = (col[i >> 6] >> (i & 63)) & 1;
            ASSERT_EQ(set, i < n) << "n=" << n << " bit=" << i;
        }
    }
}

TEST(StreamInferPackedColumns, CrossChunkCarryMatchesSingleChunk)
{
    // Chunk sizes that are not multiples of 64 force the stream engine
    // to carry partial packed words (and a mid-window phase) across
    // chunk boundaries; every schedule must equal the single-chunk run
    // and the naive per-cycle reference bit for bit.
    const size_t n = 777, q = 33;
    const uint32_t T = 16;
    const BitColumnMatrix Xq = randomMatrix(n, q, 0xd1);
    const QuantizedModel qm = quantizeModel(randomModel(q, 0xd2), 10);
    const std::vector<float> batch = ref::opmSimulate(qm, Xq, T);

    const StreamingInference engine(qm, T);
    std::vector<float> single;
    {
        MatrixChunkReader reader(Xq);
        VectorSink sink;
        ASSERT_TRUE(engine
                        .run(reader, sink,
                             StreamConfig().withChunkCycles(n))
                        .ok());
        single = sink.takeValues();
    }
    ASSERT_EQ(single, batch);

    for (const size_t chunk :
         {size_t{1}, size_t{3}, size_t{63}, size_t{65}, size_t{97}}) {
        MatrixChunkReader reader(Xq);
        VectorSink sink;
        ASSERT_TRUE(engine
                        .run(reader, sink,
                             StreamConfig().withChunkCycles(chunk))
                        .ok());
        ASSERT_EQ(sink.values(), single) << "chunk=" << chunk;
    }
}

TEST(StreamInferPackedColumns, AptrRoundTripAtOddBlockSizes)
{
    // Writer blocks and reader chunks on different, non-64-multiple
    // granularities: the reassembled matrix must be bit-identical,
    // and every served chunk must honor the zero-tail rule.
    const size_t n = 517, q = 9;
    const BitColumnMatrix Xq = randomMatrix(n, q, 0xe3);

    std::ostringstream os;
    ProxyTraceWriter writer(os, q);
    static constexpr size_t kBlocks[] = {1, 63, 65, 97, 200, 91};
    size_t at = 0;
    for (size_t b = 0; at < n; b++) {
        const size_t len =
            std::min(kBlocks[b % std::size(kBlocks)], n - at);
        ASSERT_TRUE(writer.append(Xq.sliceRows(at, len)).ok());
        at += len;
    }
    ASSERT_TRUE(writer.finish().ok());

    std::istringstream is(os.str());
    ProxyTraceReader reader(is);
    ProxyChunk chunk;
    BitColumnMatrix rebuilt(n, q);
    size_t rows = 0;
    for (;;) {
        StatusOr<size_t> got = reader.next(59, chunk);
        ASSERT_TRUE(got.ok()) << got.status().toString();
        if (*got == 0)
            break;
        if (*got & 63) {
            for (size_t c = 0; c < q; ++c)
                ASSERT_EQ(chunk.bits.colWords(
                              c)[chunk.bits.wordsPerCol() - 1] >>
                              (*got & 63),
                          0u)
                    << "served chunk leaks tail bits";
        }
        for (size_t c = 0; c < q; ++c)
            for (size_t r = 0; r < *got; ++r)
                if (chunk.bits.get(r, c))
                    rebuilt.setBit(rows + r, c);
        rows += *got;
    }
    ASSERT_EQ(rows, n);
    for (size_t c = 0; c < q; ++c)
        for (size_t r = 0; r < n; ++r)
            ASSERT_EQ(rebuilt.get(r, c), Xq.get(r, c));
}

TEST(StreamInferPackedColumns, RejectsForgedTailBits)
{
    // A block declaring 100 rows but setting a bit at row >= 100 in a
    // column's last word violates the zero-tail contract the popcount
    // kernels rely on; the decoder must reject it, not mask it.
    const size_t n = 100, q = 3;
    std::ostringstream os;
    ProxyTraceWriter writer(os, q);
    ASSERT_TRUE(writer.append(randomMatrix(n, q, 0xf4)).ok());
    ASSERT_TRUE(writer.finish().ok());
    std::string bytes = os.str();

    // Header is 20 bytes (magic + version + q + cycles); the block is
    // u32 rows then q columns of 2 words each. Set bit 63 of column
    // 0's last word = row 127, past the declared 100 rows.
    const size_t tail_byte = 20 + 4 + 8 + 7;
    ASSERT_LT(tail_byte, bytes.size());
    bytes[tail_byte] = static_cast<char>(
        static_cast<unsigned char>(bytes[tail_byte]) | 0x80u);

    std::istringstream is(bytes);
    ProxyTraceReader reader(is);
    ProxyChunk chunk;
    Status err = Status::okStatus();
    for (;;) {
        StatusOr<size_t> got = reader.next(64, chunk);
        if (!got.ok()) {
            err = got.status();
            break;
        }
        ASSERT_NE(*got, 0u) << "forged tail bits parsed to EOF";
    }
    EXPECT_EQ(err.code(), StatusCode::ParseError);
}

TEST(StreamInferPackedKernels, ImplsAgreeWithPortablePopcount)
{
    Xoshiro256StarStar rng(0xabc);
    std::vector<uint64_t> words(300);
    for (uint64_t &w : words)
        w = rng();
    const size_t nbits_full = words.size() * 64;

    static constexpr popkernels::Impl kImpls[] = {
        popkernels::Impl::Scalar, popkernels::Impl::Avx2,
        popkernels::Impl::Avx512};
    for (const popkernels::Impl impl : kImpls) {
        if (!popkernels::implAvailable(impl))
            continue;
        const popkernels::Kernels &k = popkernels::implKernels(impl);
        SCOPED_TRACE(popkernels::implName(impl));

        uint64_t want = 0;
        for (uint64_t w : words)
            want += std::popcount(w);
        EXPECT_EQ(k.countWords(words.data(), words.size()), want);

        for (const auto &[b, e] : {std::pair<size_t, size_t>{0, 0},
                                   {0, 1},
                                   {5, 5},
                                   {0, 64},
                                   {1, 63},
                                   {63, 65},
                                   {64, 128},
                                   {100, nbits_full - 3},
                                   {0, nbits_full}}) {
            uint64_t range = 0;
            for (size_t i = b; i < e; ++i)
                range += (words[i >> 6] >> (i & 63)) & 1;
            EXPECT_EQ(k.countRange(words.data(), b, e), range)
                << "begin=" << b << " end=" << e;
        }

        // accumWindowSums against a per-bit walk, at tail lengths and
        // phases around the word size. The buffer is tail-masked per
        // nbits to honor the kernel's zero-tail requirement.
        for (const size_t nbits : {size_t{1}, size_t{63}, size_t{64},
                                   size_t{65}, size_t{1000}}) {
            std::vector<uint64_t> bits(
                words.begin(), words.begin() + (nbits + 63) / 64);
            maskTailWords(bits.data(), bits.size(), nbits);
            for (const uint32_t T : {1u, 4u, 32u, 64u, 128u}) {
                for (const uint32_t phase0 : {0u, 1u, T - 1}) {
                    if (phase0 >= T)
                        continue;
                    const int64_t weight = -12345;
                    const size_t nseg =
                        popkernels::windowSegments(nbits, T, phase0);
                    std::vector<int64_t> got(nseg, 7);
                    std::vector<int64_t> want_sums(nseg, 7);
                    k.accumWindowSums(bits.data(), nbits, T, phase0,
                                      weight, got.data());
                    size_t s = 0;
                    uint32_t phase = phase0;
                    for (size_t i = 0; i < nbits; ++i) {
                        if ((bits[i >> 6] >> (i & 63)) & 1)
                            want_sums[s] += weight;
                        if (++phase == T) {
                            phase = 0;
                            s++;
                        }
                    }
                    EXPECT_EQ(got, want_sums)
                        << "nbits=" << nbits << " T=" << T
                        << " phase0=" << phase0;
                }
            }
        }
    }
}

} // namespace
} // namespace apollo
