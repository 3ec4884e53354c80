/**
 * @file
 * Chunked proxy-trace ingestion for the streaming inference pipeline.
 *
 * A ProxyChunkReader produces consecutive row blocks ("chunks") of a
 * cycles x Q proxy-toggle matrix, so multi-million-cycle traces are
 * never resident in full. Four sources are provided:
 *
 *  - MatrixChunkReader      slices an in-memory proxy matrix (tests,
 *                           short traces, re-chunking),
 *  - FrameProxyChunkReader  generates proxy bits on demand from
 *                           simulated ActivityFrames via the
 *                           ActivityEngine — the emulator-assisted flow
 *                           of Fig. 7(c) without materializing the
 *                           trace,
 *  - ProxyTraceReader       incremental reader of the blocked binary
 *                           trace format written by ProxyTraceWriter
 *                           (magic "APTR"),
 *  - VcdChunkReader         incremental reader of VcdWriter-style VCD
 *                           dumps (cycle-at-a-time, bounded memory).
 *
 * All readers report data problems as Status values (util/status.hh)
 * rather than throwing: a malformed trace is an expected condition for
 * a service ingesting third-party artifacts.
 *
 * Chunking is value-preserving: whatever chunk sizes a reader serves,
 * the concatenated rows equal the underlying trace bit for bit (see
 * BitColumnMatrix::sliceRowsInto), which is what lets the streaming
 * engine guarantee bit-identical results to the batch path.
 */

#ifndef APOLLO_TRACE_STREAM_READER_HH
#define APOLLO_TRACE_STREAM_READER_HH

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "activity/activity_engine.hh"
#include "uarch/activity_frame.hh"
#include "util/bitvec.hh"
#include "util/status.hh"

namespace apollo {

/** One row block of a proxy-toggle trace. */
struct ProxyChunk
{
    /** Global cycle index of row 0 of this chunk. */
    uint64_t firstCycle = 0;
    /**
     * rows() x Q toggle bits; column q follows the proxy order of the
     * producing model/trace. Trailing bits past rows() are zero.
     */
    BitColumnMatrix bits;

    size_t rows() const { return bits.rows(); }
    size_t proxies() const { return bits.cols(); }
};

/** Pull-based source of consecutive proxy-trace chunks. */
class ProxyChunkReader
{
  public:
    virtual ~ProxyChunkReader() = default;

    /** Number of proxy columns every chunk will have. */
    virtual size_t proxyCount() const = 0;

    /** Total trace length, or kUnknownCycles for open-ended streams. */
    virtual uint64_t totalCycles() const { return kUnknownCycles; }

    /**
     * Produce the next chunk with 1..max_rows rows, or 0 rows at end
     * of trace; the returned count must equal chunk.rows()
     * (StreamingInference::run rejects a mismatch). Chunks are
     * consecutive: the next chunk's firstCycle is this chunk's
     * firstCycle + rows().
     */
    virtual StatusOr<size_t> next(size_t max_rows, ProxyChunk &chunk) = 0;

    static constexpr uint64_t kUnknownCycles = ~0ULL;
};

/** Serves row slices of an in-memory proxy-layout matrix. */
class MatrixChunkReader : public ProxyChunkReader
{
  public:
    /** @p Xq is kept by reference and must outlive the reader. */
    explicit MatrixChunkReader(const BitColumnMatrix &Xq) : Xq_(Xq) {}

    size_t proxyCount() const override { return Xq_.cols(); }
    uint64_t totalCycles() const override { return Xq_.rows(); }
    StatusOr<size_t> next(size_t max_rows, ProxyChunk &chunk) override;

  private:
    const BitColumnMatrix &Xq_;
    size_t pos_ = 0;
};

/**
 * Generates proxy toggle bits chunk by chunk from simulated frames —
 * the streaming backbone of the emulator-assisted flow. Produces bits
 * identical to DatasetBuilder::traceProxies over the same frames at
 * any chunk size (the ActivityEngine is stateless per (signal, cycle)).
 */
class FrameProxyChunkReader : public ProxyChunkReader
{
  public:
    /**
     * @p engine and @p frames must outlive the reader; a malformed
     * @p segment_begin_of is a FatalError.
     */
    FrameProxyChunkReader(const ActivityEngine &engine,
                          std::span<const ActivityFrame> frames,
                          std::vector<uint32_t> proxy_ids,
                          std::vector<uint32_t> segment_begin_of);

    size_t proxyCount() const override { return proxyIds_.size(); }
    uint64_t totalCycles() const override { return frames_.size(); }
    StatusOr<size_t> next(size_t max_rows, ProxyChunk &chunk) override;

  private:
    const ActivityEngine &engine_;
    std::span<const ActivityFrame> frames_;
    std::vector<uint32_t> proxyIds_;
    std::vector<uint32_t> segmentBeginOf_;
    size_t pos_ = 0;
};

/**
 * Incremental writer of the blocked binary proxy-trace format:
 *
 *   "APTR" | u32 version | u32 q | u64 cycles | blocks... | u32 0
 *
 * where each block is `u32 rows` followed by q packed columns of
 * ceil(rows/64) u64 words (little-endian, same layout as
 * BitColumnMatrix columns). The cycles field is patched on finish()
 * when the stream is seekable, and kUnknownCycles otherwise — readers
 * rely on the rows=0 terminator either way. Blocks are written as
 * appended, so a producer can emit whatever chunk granularity it has.
 */
class ProxyTraceWriter
{
  public:
    /** @p os is kept by reference; binary mode expected. */
    ProxyTraceWriter(std::ostream &os, size_t q);

    /** Append one chunk (bits.cols() must equal q). */
    Status append(const BitColumnMatrix &chunk);

    /** Write the terminator and patch the cycle count. */
    Status finish();

    uint64_t cyclesWritten() const { return cycles_; }

  private:
    std::ostream &os_;
    size_t q_;
    uint64_t cycles_ = 0;
    std::ostream::pos_type cyclesPos_;
    bool headerDone_ = false;
    bool finished_ = false;

    Status writeHeader();
};

/** Convenience: stream an entire proxy matrix to @p path. */
Status saveProxyTraceFile(const std::string &path,
                          const BitColumnMatrix &Xq,
                          size_t block_cycles = 1 << 14);

/**
 * Incremental reader of the "APTR" format. Holds at most one file
 * block plus the chunk being served; re-slices blocks to honor the
 * engine's requested chunk size.
 */
class ProxyTraceReader : public ProxyChunkReader
{
  public:
    /** @p is is kept by reference; binary mode expected. */
    explicit ProxyTraceReader(std::istream &is) : is_(is) {}

    size_t proxyCount() const override { return q_; }
    uint64_t totalCycles() const override { return totalCycles_; }
    StatusOr<size_t> next(size_t max_rows, ProxyChunk &chunk) override;

  private:
    std::istream &is_;
    size_t q_ = 0;
    uint64_t totalCycles_ = kUnknownCycles;
    uint64_t pos_ = 0;
    bool headerDone_ = false;
    bool atEnd_ = false;
    BitColumnMatrix block_;
    size_t blockPos_ = 0;

    Status readHeader();
    Status readBlock();
};

/** File-owning variant of ProxyTraceReader. */
class ProxyTraceFileReader : public ProxyChunkReader
{
  public:
    explicit ProxyTraceFileReader(const std::string &path)
        : is_(path, std::ios::binary), path_(path), reader_(is_)
    {}

    size_t proxyCount() const override { return reader_.proxyCount(); }
    uint64_t totalCycles() const override
    {
        return reader_.totalCycles();
    }
    StatusOr<size_t> next(size_t max_rows, ProxyChunk &chunk) override;

  private:
    std::ifstream is_;
    std::string path_;
    ProxyTraceReader reader_;
};

/**
 * Incremental VCD ingestion (the VcdWriter subset of the grammar:
 * 1-bit wires, monotonic timestamps). A toggle is recorded at cycle c
 * when a signal's value flips at timestamp c outside $dumpvars;
 * matching parseVcd(), the trace length is the last timestamp seen, so
 * flips at the final timestamp are dropped. Memory is bounded by one
 * chunk regardless of trace length.
 */
class VcdChunkReader : public ProxyChunkReader
{
  public:
    /** @p is is kept by reference. */
    explicit VcdChunkReader(std::istream &is) : is_(is) {}

    /** Valid after the first next() call. */
    size_t proxyCount() const override { return names_.size(); }
    /** Signal names in column order (valid after the first next()). */
    const std::vector<std::string> &names() const { return names_; }

    StatusOr<size_t> next(size_t max_rows, ProxyChunk &chunk) override;

  private:
    std::istream &is_;
    std::vector<std::string> names_;
    std::map<std::string, size_t> idToIndex_;
    std::vector<uint8_t> value_;
    std::vector<uint32_t> pendingFlips_; ///< flips at cycle curTs_
    std::vector<uint32_t> completedFlips_; ///< flips of a finished cycle
    uint64_t completedTs_ = 0;
    bool completedValid_ = false;
    uint64_t curTs_ = 0;    ///< timestamp whose flips are being read
    uint64_t nextRow_ = 0;  ///< next cycle index to emit
    bool headerDone_ = false;
    bool inDumpvars_ = false;
    bool atEof_ = false;

    Status readHeader();
};

} // namespace apollo

#endif // APOLLO_TRACE_STREAM_READER_HH
