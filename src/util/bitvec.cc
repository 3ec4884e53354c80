#include "util/bitvec.hh"

namespace apollo {

BitColumnMatrix
BitColumnMatrix::selectColumns(std::span<const uint32_t> selected) const
{
    BitColumnMatrix out(rows_, selected.size());
    for (size_t j = 0; j < selected.size(); ++j) {
        APOLLO_REQUIRE(selected[j] < cols_,
                       "selected column ", selected[j], " out of range ",
                       cols_);
        const uint64_t *src = colWords(selected[j]);
        uint64_t *dst = out.colWordsMutable(j);
        for (size_t k = 0; k < wordsPerCol_; ++k)
            dst[k] = src[k];
    }
    return out;
}

void
BitColumnMatrix::sliceRowsInto(size_t first, size_t n,
                               BitColumnMatrix &out) const
{
    APOLLO_REQUIRE(first <= rows_ && n <= rows_ - first,
                   "row slice [", first, ", ", first + n,
                   ") out of range ", rows_);
    out.reset(n, cols_);
    if (n == 0)
        return;
    const size_t shift = first & 63;
    const size_t w0 = first >> 6;
    const size_t out_wpc = out.wordsPerCol_;
    const size_t src_words = wordsPerCol_ - w0;
    const size_t tail = n & 63;
    const uint64_t tail_mask = tail ? (1ULL << tail) - 1 : ~0ULL;
    for (size_t c = 0; c < cols_; ++c) {
        const uint64_t *src = colWords(c) + w0;
        uint64_t *dst = out.colWordsMutable(c);
        if (shift == 0) {
            for (size_t k = 0; k < out_wpc; ++k)
                dst[k] = src[k];
        } else {
            for (size_t k = 0; k < out_wpc; ++k) {
                uint64_t w = src[k] >> shift;
                if (k + 1 < src_words)
                    w |= src[k + 1] << (64 - shift);
                dst[k] = w;
            }
        }
        dst[out_wpc - 1] &= tail_mask;
    }
}

} // namespace apollo
