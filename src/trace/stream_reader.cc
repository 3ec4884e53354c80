#include "trace/stream_reader.hh"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>

#include "activity/toggle_columns.hh"
#include "trace/vcd.hh"

namespace apollo {

namespace {

constexpr char kTraceMagic[4] = {'A', 'P', 'T', 'R'};
constexpr uint32_t kTraceVersion = 1;

template <typename T>
bool
writePod(std::ostream &os, const T &value)
{
    os.write(reinterpret_cast<const char *>(&value), sizeof(T));
    return static_cast<bool>(os);
}

template <typename T>
bool
readPod(std::istream &is, T &value)
{
    is.read(reinterpret_cast<char *>(&value), sizeof(T));
    return static_cast<bool>(is);
}

} // namespace

// --- MatrixChunkReader ---

StatusOr<size_t>
MatrixChunkReader::next(size_t max_rows, ProxyChunk &chunk)
{
    if (max_rows == 0)
        return Status::invalidArgument("chunk size must be positive");
    const size_t n = std::min(max_rows, Xq_.rows() - pos_);
    chunk.firstCycle = pos_;
    Xq_.sliceRowsInto(pos_, n, chunk.bits);
    pos_ += n;
    return n;
}

// --- FrameProxyChunkReader ---

FrameProxyChunkReader::FrameProxyChunkReader(
    const ActivityEngine &engine, std::span<const ActivityFrame> frames,
    std::vector<uint32_t> proxy_ids,
    std::vector<uint32_t> segment_begin_of)
    : engine_(engine), frames_(frames), proxyIds_(std::move(proxy_ids)),
      segmentBeginOf_(std::move(segment_begin_of))
{
    requireSegmentTable(segmentBeginOf_, frames_.size(), 0,
                        frames_.size());
}

StatusOr<size_t>
FrameProxyChunkReader::next(size_t max_rows, ProxyChunk &chunk)
{
    if (max_rows == 0)
        return Status::invalidArgument("chunk size must be positive");
    const size_t n = std::min(max_rows, frames_.size() - pos_);
    chunk.firstCycle = pos_;
    fillToggleColumns(engine_, frames_, segmentBeginOf_, pos_, n,
                      proxyIds_, chunk.bits);
    pos_ += n;
    return n;
}

// --- ProxyTraceWriter ---

ProxyTraceWriter::ProxyTraceWriter(std::ostream &os, size_t q)
    : os_(os), q_(q)
{
    APOLLO_REQUIRE(q > 0, "proxy trace needs at least one column");
}

Status
ProxyTraceWriter::writeHeader()
{
    os_.write(kTraceMagic, sizeof(kTraceMagic));
    writePod(os_, kTraceVersion);
    writePod(os_, static_cast<uint32_t>(q_));
    cyclesPos_ = os_.tellp();
    if (!writePod(os_, ProxyChunkReader::kUnknownCycles))
        return Status::ioError("proxy trace header write failed");
    headerDone_ = true;
    return Status::okStatus();
}

Status
ProxyTraceWriter::append(const BitColumnMatrix &chunk)
{
    if (finished_)
        return Status::invalidArgument("append after finish()");
    if (chunk.cols() != q_)
        return Status::invalidArgument("chunk has ", chunk.cols(),
                                       " columns, trace has ", q_);
    if (!headerDone_) {
        if (Status s = writeHeader(); !s.ok())
            return s;
    }
    if (chunk.rows() == 0)
        return Status::okStatus();
    if (chunk.rows() >= ~uint32_t{0})
        return Status::outOfRange("block too large");
    writePod(os_, static_cast<uint32_t>(chunk.rows()));
    for (size_t c = 0; c < q_; ++c)
        os_.write(reinterpret_cast<const char *>(chunk.colWords(c)),
                  static_cast<std::streamsize>(chunk.wordsPerCol() *
                                               sizeof(uint64_t)));
    if (!os_)
        return Status::ioError("proxy trace block write failed");
    cycles_ += chunk.rows();
    return Status::okStatus();
}

Status
ProxyTraceWriter::finish()
{
    if (finished_)
        return Status::okStatus();
    if (!headerDone_) {
        if (Status s = writeHeader(); !s.ok())
            return s;
    }
    if (!writePod(os_, uint32_t{0}))
        return Status::ioError("proxy trace terminator write failed");
    // Patch the cycle count when the sink is seekable (plain files);
    // pipe-like sinks keep kUnknownCycles and rely on the terminator.
    const std::ostream::pos_type end = os_.tellp();
    if (end != std::ostream::pos_type(-1)) {
        os_.seekp(cyclesPos_);
        writePod(os_, cycles_);
        os_.seekp(end);
    }
    os_.flush();
    if (!os_)
        return Status::ioError("proxy trace finish failed");
    finished_ = true;
    return Status::okStatus();
}

Status
saveProxyTraceFile(const std::string &path, const BitColumnMatrix &Xq,
                   size_t block_cycles)
{
    if (block_cycles == 0)
        return Status::invalidArgument("block_cycles must be positive");
    std::ofstream os(path, std::ios::binary);
    if (!os.is_open())
        return Status::ioError("cannot open ", path, " for writing");
    ProxyTraceWriter writer(os, Xq.cols());
    BitColumnMatrix block;
    for (size_t first = 0; first < Xq.rows(); first += block_cycles) {
        const size_t n = std::min(block_cycles, Xq.rows() - first);
        Xq.sliceRowsInto(first, n, block);
        if (Status s = writer.append(block); !s.ok())
            return s;
    }
    return writer.finish();
}

// --- ProxyTraceReader ---

Status
ProxyTraceReader::readHeader()
{
    char header[4] = {};
    is_.read(header, sizeof(header));
    if (!is_ || std::memcmp(header, kTraceMagic, sizeof(header)) != 0)
        return Status::parseError("not an apollo proxy trace (bad "
                                  "magic)");
    uint32_t version = 0;
    uint32_t q = 0;
    if (!readPod(is_, version) || !readPod(is_, q) ||
        !readPod(is_, totalCycles_))
        return Status::ioError("truncated proxy trace header");
    if (version != kTraceVersion)
        return Status::parseError("unsupported proxy trace version ",
                                  version);
    if (q == 0 || q > (1u << 24))
        return Status::parseError("implausible proxy count ", q);
    q_ = q;
    headerDone_ = true;
    return Status::okStatus();
}

Status
ProxyTraceReader::readBlock()
{
    uint32_t rows = 0;
    if (!readPod(is_, rows))
        return Status::ioError("truncated proxy trace (missing "
                               "terminator)");
    if (rows == 0) {
        atEnd_ = true;
        if (totalCycles_ != kUnknownCycles && pos_ != totalCycles_)
            return Status::parseError("proxy trace cycle count "
                                      "mismatch: header says ",
                                      totalCycles_, ", blocks held ",
                                      pos_);
        return Status::okStatus();
    }
    // Validate the declared block size BEFORE allocating for it: both
    // rows and q come from untrusted input, and a forged header must
    // not translate into a multi-gigabyte reset().
    if (totalCycles_ != kUnknownCycles && pos_ + rows > totalCycles_)
        return Status::parseError("proxy trace block overruns declared "
                                  "cycle count: block of ", rows,
                                  " rows at cycle ", pos_,
                                  " exceeds header total ",
                                  totalCycles_);
    if (static_cast<uint64_t>(rows) * q_ > (uint64_t{1} << 30))
        return Status::parseError("implausible proxy trace block: ",
                                  rows, " rows x ", q_, " proxies");
    block_.reset(rows, q_);
    for (size_t c = 0; c < q_; ++c) {
        is_.read(reinterpret_cast<char *>(block_.colWordsMutable(c)),
                 static_cast<std::streamsize>(block_.wordsPerCol() *
                                              sizeof(uint64_t)));
    }
    if (!is_)
        return Status::ioError("truncated proxy trace block at cycle ",
                               pos_);
    // Enforce the packed zero-tail contract on untrusted input: the
    // whole-block fast path in next() hands this matrix to consumers
    // without re-slicing, and the word-at-a-time kernels (popcount
    // windows, float axpy) trust that bits past `rows` in each
    // column's last word are zero — a forged tail word would count
    // phantom cycles or index past per-row accumulators.
    if (rows & 63) {
        const uint64_t tail_mask =
            ~uint64_t{0} << (rows & 63);
        const size_t last = block_.wordsPerCol() - 1;
        for (size_t c = 0; c < q_; ++c) {
            if (block_.colWords(c)[last] & tail_mask)
                return Status::parseError(
                    "proxy trace block declares ", rows,
                    " rows but sets bits past the last row in "
                    "column ", c);
        }
    }
    blockPos_ = 0;
    return Status::okStatus();
}

StatusOr<size_t>
ProxyTraceReader::next(size_t max_rows, ProxyChunk &chunk)
{
    if (max_rows == 0)
        return Status::invalidArgument("chunk size must be positive");
    if (!headerDone_) {
        if (Status s = readHeader(); !s.ok())
            return s;
    }
    if (!atEnd_ && blockPos_ >= block_.rows()) {
        if (Status s = readBlock(); !s.ok())
            return s;
    }
    if (atEnd_) {
        chunk.firstCycle = pos_;
        chunk.bits.reset(0, q_);
        return size_t{0};
    }
    const size_t n = std::min(max_rows, block_.rows() - blockPos_);
    chunk.firstCycle = pos_;
    if (n == block_.rows() && blockPos_ == 0) {
        // Whole-block fast path: hand the block over without copying.
        std::swap(chunk.bits, block_);
        block_.reset(0, q_);
        blockPos_ = 0;
    } else {
        block_.sliceRowsInto(blockPos_, n, chunk.bits);
        blockPos_ += n;
    }
    pos_ += n;
    return n;
}

StatusOr<size_t>
ProxyTraceFileReader::next(size_t max_rows, ProxyChunk &chunk)
{
    if (!is_.is_open())
        return Status::ioError("cannot open ", path_);
    return reader_.next(max_rows, chunk);
}

// --- VcdChunkReader ---

Status
VcdChunkReader::readHeader()
{
    std::string token;
    while (is_ >> token) {
        if (token == "$var") {
            std::string type, width, id, name;
            if (!(is_ >> type >> width >> id >> name))
                return Status::ioError("truncated VCD $var");
            if (idToIndex_.count(id))
                return Status::parseError("duplicate VCD id ", id);
            idToIndex_[id] = names_.size();
            names_.push_back(name);
            while (is_ >> token && token != "$end") {}
        } else if (token == "$enddefinitions") {
            while (is_ >> token && token != "$end") {}
            break;
        }
    }
    if (names_.empty())
        return Status::parseError("VCD has no $var declarations");
    value_.assign(names_.size(), 0);
    headerDone_ = true;
    return Status::okStatus();
}

StatusOr<size_t>
VcdChunkReader::next(size_t max_rows, ProxyChunk &chunk)
{
    if (max_rows == 0)
        return Status::invalidArgument("chunk size must be positive");
    if (!headerDone_) {
        if (Status s = readHeader(); !s.ok())
            return s;
    }

    // (chunk-row, column) pairs accumulated for this chunk.
    std::vector<std::pair<uint32_t, uint32_t>> rows_set;
    const uint64_t first = nextRow_;
    size_t produced = 0;

    // Emit finalized cycles up to @p boundary (exclusive) or until the
    // chunk is full.
    const auto emit_until = [&](uint64_t boundary) {
        while (nextRow_ < boundary && produced < max_rows) {
            if (completedValid_ && nextRow_ == completedTs_) {
                for (uint32_t col : completedFlips_)
                    rows_set.emplace_back(
                        static_cast<uint32_t>(produced), col);
                completedFlips_.clear();
                completedValid_ = false;
            }
            nextRow_++;
            produced++;
        }
    };

    std::string token;
    while (produced < max_rows) {
        if (atEof_) {
            emit_until(curTs_);
            break;
        }
        if (!(is_ >> token)) {
            // End of stream: the trace length is the last timestamp
            // seen; flips at that timestamp are dropped (parseVcd
            // semantics — VcdWriter::finish() emits a final "#N").
            atEof_ = true;
            pendingFlips_.clear();
            continue;
        }
        if (token == "$dumpvars") {
            inDumpvars_ = true;
        } else if (token == "$end") {
            inDumpvars_ = false;
        } else if (token[0] == '#') {
            uint64_t ts = 0;
            try {
                ts = std::stoull(token.substr(1));
            } catch (...) {
                return Status::parseError("bad VCD timestamp ", token);
            }
            if (ts < curTs_)
                return Status::parseError(
                    "non-monotonic VCD timestamp ", ts, " after ",
                    curTs_, " (streaming reader requires ordered "
                            "timestamps)");
            if (ts > kMaxVcdCycles)
                return Status::parseError("implausible VCD timestamp ",
                                          ts, " (limit ",
                                          kMaxVcdCycles, ")");
            if (ts > curTs_) {
                if (!pendingFlips_.empty()) {
                    completedTs_ = curTs_;
                    completedFlips_.swap(pendingFlips_);
                    completedValid_ = true;
                }
                curTs_ = ts;
                emit_until(curTs_);
            }
        } else if (token[0] == '0' || token[0] == '1') {
            const std::string id = token.substr(1);
            const auto it = idToIndex_.find(id);
            if (it == idToIndex_.end())
                return Status::parseError("unknown VCD id ", id);
            const uint8_t v = token[0] == '1' ? 1 : 0;
            if (!inDumpvars_ && v != value_[it->second])
                pendingFlips_.push_back(
                    static_cast<uint32_t>(it->second));
            value_[it->second] = v;
        }
        // Other tokens (comments, unknown directives) are skipped.
    }

    chunk.firstCycle = first;
    chunk.bits.reset(produced, names_.size());
    for (const auto &[row, col] : rows_set)
        chunk.bits.setBit(row, col);
    return produced;
}

} // namespace apollo
