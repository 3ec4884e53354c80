#include "trace/dataset_io.hh"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "util/logging.hh"

namespace apollo {

namespace {

constexpr char magic[4] = {'A', 'P', 'D', 'S'};
constexpr uint32_t version = 1;

template <typename T>
void
writePod(std::ostream &os, const T &value)
{
    os.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

template <typename T>
bool
readPod(std::istream &is, T &value)
{
    is.read(reinterpret_cast<char *>(&value), sizeof(T));
    return static_cast<bool>(is);
}

} // namespace

DatasetStreamWriter::DatasetStreamWriter(std::ostream &os, uint64_t rows,
                                         uint64_t cols)
    : os_(&os), rows_(rows), cols_(cols),
      wordsPerCol_(static_cast<size_t>((rows + 63) / 64))
{}

StatusOr<DatasetStreamWriter>
DatasetStreamWriter::open(std::ostream &os, uint64_t rows, uint64_t cols)
{
    // Mirror of the decode-side bounds: both dimensions AND the
    // product are checked before anything is emitted, so the writer
    // can never produce a header the loader rejects — and a huge
    // generation run fails fast instead of after streaming gigabytes.
    // (rows * cols cannot overflow: both factors are individually
    // bounded below 2^28 first.)
    if (rows == 0 || cols == 0 || rows >= (1ULL << 28) ||
        cols >= (1ULL << 24) || rows * cols > (1ULL << 33))
        return Status::invalidArgument("implausible dataset dimensions ",
                                       rows, " x ", cols);
    DatasetStreamWriter w(os, rows, cols);
    os.write(magic, sizeof(magic));
    writePod(os, version);
    writePod<uint64_t>(os, rows);
    writePod<uint64_t>(os, cols);
    if (!os)
        return Status::ioError("dataset write failed");
    return StatusOr<DatasetStreamWriter>(std::move(w));
}

Status
DatasetStreamWriter::appendColumnsRaw(const uint64_t *words,
                                      uint64_t n_cols)
{
    if (finished_ || labelsWritten_)
        return Status::invalidArgument(
            "dataset columns must precede labels");
    if (n_cols > cols_ - nextCol_)
        return Status::invalidArgument(
            "dataset append of ", n_cols, " columns past declared ",
            cols_, " (", nextCol_, " written)");
    os_->write(reinterpret_cast<const char *>(words),
               static_cast<std::streamsize>(n_cols * wordsPerCol_ *
                                            sizeof(uint64_t)));
    if (!*os_)
        return Status::ioError("dataset write failed");
    nextCol_ += n_cols;
    return Status::okStatus();
}

Status
DatasetStreamWriter::appendColumns(const BitColumnMatrix &block)
{
    if (block.rows() != rows_)
        return Status::invalidArgument("dataset block has ",
                                       block.rows(),
                                       " rows, writer expects ", rows_);
    if (block.cols() == 0)
        return Status::okStatus();
    return appendColumnsRaw(block.colWords(0), block.cols());
}

Status
DatasetStreamWriter::writeLabels(std::span<const float> y)
{
    if (finished_ || labelsWritten_)
        return Status::invalidArgument("dataset labels already written");
    if (nextCol_ != cols_)
        return Status::invalidArgument("dataset incomplete: ", nextCol_,
                                       " of ", cols_,
                                       " columns written");
    if (y.size() != rows_)
        return Status::invalidArgument("dataset labels have ", y.size(),
                                       " rows, writer expects ", rows_);
    os_->write(reinterpret_cast<const char *>(y.data()),
               static_cast<std::streamsize>(y.size() * sizeof(float)));
    if (!*os_)
        return Status::ioError("dataset write failed");
    labelsWritten_ = true;
    return Status::okStatus();
}

Status
DatasetStreamWriter::finish(std::span<const SegmentInfo> segments)
{
    if (finished_)
        return Status::invalidArgument("dataset already finished");
    if (!labelsWritten_)
        return Status::invalidArgument(
            "dataset labels must precede segments");
    if (segments.size() > rows_)
        return Status::invalidArgument("implausible segment count ",
                                       segments.size());
    writePod<uint64_t>(*os_, segments.size());
    for (const SegmentInfo &seg : segments) {
        if (seg.begin > seg.end || seg.end > rows_)
            return Status::invalidArgument("segment [", seg.begin, ", ",
                                           seg.end, ") out of range");
        writePod<uint64_t>(*os_, seg.name.size());
        os_->write(seg.name.data(),
                   static_cast<std::streamsize>(seg.name.size()));
        writePod<uint64_t>(*os_, seg.begin);
        writePod<uint64_t>(*os_, seg.end);
    }
    if (!*os_)
        return Status::ioError("dataset write failed");
    finished_ = true;
    return Status::okStatus();
}

Status
trySaveDataset(std::ostream &os, const Dataset &dataset)
{
    // One-shot wrapper over the streaming writer (identical bytes) —
    // except that pre-existing oversized in-memory datasets, which the
    // loader could never round-trip anyway, now fail fast at open().
    StatusOr<DatasetStreamWriter> w = DatasetStreamWriter::open(
        os, dataset.X.rows(), dataset.X.cols());
    if (!w.ok())
        return w.status();
    Status st = w->appendColumns(dataset.X);
    if (!st.ok())
        return st;
    st = w->writeLabels(dataset.y);
    if (!st.ok())
        return st;
    return w->finish(dataset.segments);
}

StatusOr<Dataset>
tryLoadDataset(std::istream &is)
{
    char header[4] = {};
    is.read(header, sizeof(header));
    if (!is || std::memcmp(header, magic, sizeof(header)) != 0)
        return Status::parseError("not an apollo dataset stream");
    uint32_t file_version = 0;
    if (!readPod(is, file_version))
        return Status::ioError("truncated dataset stream");
    if (file_version != version)
        return Status::parseError("unsupported dataset version ",
                                  file_version);

    Dataset ds;
    uint64_t rows = 0;
    uint64_t cols = 0;
    if (!readPod(is, rows) || !readPod(is, cols))
        return Status::ioError("truncated dataset stream");
    // Each dimension AND the product are bounded before allocating:
    // rows and cols individually below 2^32 can still multiply to a
    // forged multi-gigabyte matrix.
    if (rows == 0 || cols == 0 || rows >= (1ULL << 28) ||
        cols >= (1ULL << 24) || rows * cols > (1ULL << 33))
        return Status::parseError("implausible dataset dimensions ",
                                  rows, " x ", cols);
    ds.X.reset(rows, cols);
    for (size_t c = 0; c < cols; ++c) {
        is.read(reinterpret_cast<char *>(ds.X.colWordsMutable(c)),
                static_cast<std::streamsize>(ds.X.wordsPerCol() *
                                             sizeof(uint64_t)));
    }
    ds.y.resize(rows);
    is.read(reinterpret_cast<char *>(ds.y.data()),
            static_cast<std::streamsize>(rows * sizeof(float)));
    if (!is)
        return Status::ioError("truncated dataset stream");
    // The packed zero-tail rule, enforced like the APTR and APSH
    // readers: a forged tail word would inflate colPopcount (and the
    // solver's column norms) and feed phantom toggles to the
    // popcount kernels.
    for (size_t c = 0; c < cols; ++c)
        if (!tailWordsClean(ds.X.colWords(c), ds.X.wordsPerCol(), rows))
            return Status::parseError(
                "dataset declares ", rows,
                " rows but sets bits past the last row in column ", c);

    uint64_t n_segments = 0;
    if (!readPod(is, n_segments))
        return Status::ioError("truncated dataset stream");
    if (n_segments > rows)
        return Status::parseError("implausible segment count ",
                                  n_segments);
    ds.segments.resize(n_segments);
    for (SegmentInfo &seg : ds.segments) {
        uint64_t name_len = 0;
        if (!readPod(is, name_len))
            return Status::ioError("truncated dataset stream");
        if (name_len >= 4096)
            return Status::parseError("implausible segment name length ",
                                      name_len);
        seg.name.resize(name_len);
        is.read(seg.name.data(),
                static_cast<std::streamsize>(name_len));
        if (!readPod(is, seg.begin) || !readPod(is, seg.end))
            return Status::ioError("truncated dataset stream");
        if (seg.begin > seg.end || seg.end > rows)
            return Status::parseError("segment [", seg.begin, ", ",
                                      seg.end, ") out of range");
    }
    if (!is)
        return Status::ioError("truncated dataset stream");
    return ds;
}

Status
trySaveDatasetFile(const std::string &path, const Dataset &dataset)
{
    std::ofstream os(path, std::ios::binary);
    if (!os.is_open())
        return Status::ioError("cannot open ", path, " for writing");
    return trySaveDataset(os, dataset);
}

StatusOr<Dataset>
tryLoadDatasetFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is.is_open())
        return Status::ioError("cannot open ", path);
    return tryLoadDataset(is);
}

void
saveDataset(std::ostream &os, const Dataset &dataset)
{
    trySaveDataset(os, dataset).orFatal();
}

Dataset
loadDataset(std::istream &is)
{
    StatusOr<Dataset> ds = tryLoadDataset(is);
    if (!ds.ok())
        fatal(ds.status().toString());
    return std::move(*ds);
}

void
saveDatasetFile(const std::string &path, const Dataset &dataset)
{
    trySaveDatasetFile(path, dataset).orFatal();
}

Dataset
loadDatasetFile(const std::string &path)
{
    StatusOr<Dataset> ds = tryLoadDatasetFile(path);
    if (!ds.ok())
        fatal(ds.status().toString());
    return std::move(*ds);
}

} // namespace apollo
