/**
 * @file
 * Column-sharded, memory-mappable storage for huge packed toggle
 * matrices (docs/INTERNALS.md §13). The paper's substrate is
 * M > 5e5 RTL signals; an N x M bit matrix at that scale must never
 * fully materialize in RAM, so columns are partitioned into K
 * contiguous shards, each stored as one "APSH" file whose payload is
 * laid out exactly like BitColumnMatrix columns (ceil(N/64) packed
 * little-endian u64 words per column, zero-tail rule included).
 *
 * Producers stream column blocks through ShardSetWriter — a block is
 * appended to whichever shard files it overlaps, so a generator only
 * ever holds one block in RAM. Consumers open the files read-only via
 * MappedShardSet, which validates every header field with
 * overflow-checked arithmetic BEFORE mapping (a forged header must
 * not translate into a huge mapping or an out-of-bounds read — the
 * file size must match the declared dims exactly, so no access can
 * fault past the mapping) and then serves columns as raw word
 * pointers straight out of the page cache. Hot (active-set) columns
 * stay resident; cold shards are dropped with advise(DontNeed) after
 * each streaming pass so peak RSS tracks the working set, not M.
 *
 * File layout (little-endian):
 *   "APSH" | u32 version | u64 rows | u64 colsTotal
 *   | u32 shardIndex | u32 shardCount | u64 firstCol | u64 cols
 *   | cols * ceil(rows/64) u64 column words
 */

#ifndef APOLLO_TRACE_SHARD_STORE_HH
#define APOLLO_TRACE_SHARD_STORE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/bitvec.hh"
#include "util/status.hh"

namespace apollo {

/** Hard dimension ceilings shared by the write and read sides, so a
 *  file the writer accepts is always one the reader accepts. */
inline constexpr uint64_t kShardMaxRows = uint64_t{1} << 28;
inline constexpr uint64_t kShardMaxCols = uint64_t{1} << 24;
inline constexpr uint32_t kShardMaxShards = 4096;

/** Contiguous column partition: shard k of @p shards owns
 *  [shardFirstCol(k), shardFirstCol(k+1)) of @p cols columns, sizes
 *  differing by at most one (leading shards take the remainder). */
uint64_t shardFirstCol(uint64_t cols, uint32_t shards, uint32_t k);

/** Shard file path: "<base>.<k>.apsh". */
std::string shardPath(const std::string &base, uint32_t k);

/**
 * Streams a column-partitioned matrix into K shard files. Columns
 * must be appended in ascending order as BitColumnMatrix blocks of
 * consecutive columns (any block granularity — one column to one
 * shard's worth); the writer routes each block's columns to the shard
 * files they fall in. Dimensions are validated against the shared
 * ceilings at construction (overflow-checked), mirroring the decode
 * side, so a successful write() sequence always produces loadable
 * files.
 */
class ShardSetWriter
{
  public:
    static StatusOr<ShardSetWriter> open(const std::string &base,
                                         uint64_t rows, uint64_t cols,
                                         uint32_t shards);

    ~ShardSetWriter(); // out of line: Impl is incomplete here
    ShardSetWriter(ShardSetWriter &&) noexcept;
    ShardSetWriter &operator=(ShardSetWriter &&) noexcept;

    /** Append the next @p block.cols() columns (block.rows() must
     *  equal rows; columns past cols are an error). */
    Status append(const BitColumnMatrix &block);

    /** Zero-copy variant: append @p n_cols columns of packed words
     *  (n_cols * wordsPerCol consecutive u64, BitColumnMatrix column
     *  layout, zero-tail rule enforced). */
    Status appendRaw(const uint64_t *words, uint64_t n_cols);

    /** All columns must have been appended; flushes and closes. */
    Status finish();

    uint64_t columnsWritten() const { return nextCol_; }

  private:
    ShardSetWriter() = default;

    struct Impl;
    std::unique_ptr<Impl> impl_;
    uint64_t rows_ = 0;
    uint64_t cols_ = 0;
    uint32_t shards_ = 0;
    uint64_t nextCol_ = 0;
    size_t wordsPerCol_ = 0;
};

/**
 * Read-only memory-mapped view of a complete shard set. open()
 * validates each file's header and exact size, checks the shards are
 * mutually consistent and cover [0, cols) contiguously, and maps each
 * payload read-only. Column word pointers are valid for the lifetime
 * of the set; the mapping is never written.
 */
class MappedShardSet
{
  public:
    MappedShardSet() = default;
    ~MappedShardSet();

    MappedShardSet(MappedShardSet &&other) noexcept;
    MappedShardSet &operator=(MappedShardSet &&other) noexcept;
    MappedShardSet(const MappedShardSet &) = delete;
    MappedShardSet &operator=(const MappedShardSet &) = delete;

    /** Map the shard files of @p base (all of shardCount, discovered
     *  from shard 0's header). */
    static StatusOr<MappedShardSet> open(const std::string &base);

    /** Map an explicit file list (must form one complete set). */
    static StatusOr<MappedShardSet> openFiles(
        const std::vector<std::string> &paths);

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }
    size_t wordsPerCol() const { return wordsPerCol_; }
    uint32_t shardCount() const
    {
        return static_cast<uint32_t>(shards_.size());
    }

    /** Total bytes of payload mapped across all shards. */
    uint64_t bytesMapped() const { return bytesMapped_; }

    /** First global column of shard @p k. */
    uint64_t shardFirst(uint32_t k) const { return shards_[k].firstCol; }
    /** Columns held by shard @p k. */
    uint64_t shardCols(uint32_t k) const { return shards_[k].cols; }
    /** Shard owning global column @p col. */
    uint32_t shardOf(uint64_t col) const;

    /** Packed words of global column @p col (wordsPerCol() words). */
    const uint64_t *
    colWords(uint64_t col) const
    {
        const Shard &s = shards_[shardOf(col)];
        return s.words + (col - s.firstCol) * wordsPerCol_;
    }

    /** Single bit (slow path; tests and FeatureView::value). */
    bool
    get(size_t row, size_t col) const
    {
        return (colWords(col)[row >> 6] >> (row & 63)) & 1ULL;
    }

    /** Page-residency advice for one shard's payload. */
    enum class Advice
    {
        Normal,     ///< default kernel policy
        Sequential, ///< aggressive readahead for streaming passes
        Random,     ///< no readahead: faults bring exactly one page
        DontNeed,   ///< drop resident pages (refault on next touch)
    };
    void adviseShard(uint32_t k, Advice advice) const;
    /** Advice for the pages backing columns [first, first+n) of shard
     *  @p k (rounded out to page boundaries). */
    void adviseColumns(uint32_t k, uint64_t first, uint64_t n,
                       Advice advice) const;

    /**
     * Verify the packed zero-tail rule for every column (bits past
     * rows() in a column's last word must be zero — the word-at-a-time
     * kernels rely on it). Streams the whole payload; the sharded
     * screen pass performs the same check incrementally instead.
     */
    Status validateTails() const;

    /** Tail-rule check for one column (used by the screen pass). */
    bool
    columnTailClean(uint64_t col) const
    {
        return tailWordsClean(colWords(col), wordsPerCol_, rows_);
    }

  private:
    struct Shard
    {
        uint64_t firstCol = 0;
        uint64_t cols = 0;
        const uint64_t *words = nullptr; ///< payload (into mapBase)
        void *mapBase = nullptr;
        size_t mapLen = 0;
    };

    void releaseAll();

    size_t rows_ = 0;
    size_t cols_ = 0;
    size_t wordsPerCol_ = 0;
    uint64_t bytesMapped_ = 0;
    std::vector<Shard> shards_;
};

/** Convenience: shard an in-memory matrix (tests, the M=24k identity
 *  gates) into "<base>.<k>.apsh" files, streaming @p block_cols
 *  columns at a time. */
Status saveShardedMatrix(const std::string &base,
                         const BitColumnMatrix &X, uint32_t shards,
                         size_t block_cols = 4096);

} // namespace apollo

#endif // APOLLO_TRACE_SHARD_STORE_HH
