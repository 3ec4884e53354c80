/**
 * @file
 * Deliberately naive, obviously-correct reference implementations of
 * every production inference / quantization path. These are the
 * independent oracles of the differential-testing layer
 * (docs/INTERNALS.md §8): each function is a literal transcription of
 * the paper equation it implements — per-element loops, no screening,
 * no SIMD kernels, no chunking, no shared code with the fast paths
 * beyond the data containers — so a bug in an optimized path cannot
 * hide in its oracle.
 *
 * Where a production path is *defined* to be bit-exact (per-cycle
 * float inference, Eq. (9) windows, integer OPM arithmetic), the
 * reference reproduces the same abstract accumulation order (ascending
 * proxy index, then ascending cycle) so the differential comparison is
 * exact equality; see each function's contract.
 */

#ifndef APOLLO_REF_REFERENCE_KERNELS_HH
#define APOLLO_REF_REFERENCE_KERNELS_HH

#include <cstdint>
#include <span>
#include <vector>

#include "core/apollo_model.hh"
#include "opm/quantize.hh"
#include "trace/dataset.hh"
#include "util/bitvec.hh"

namespace apollo::ref {

/**
 * Eq. (1) per-cycle inference over a proxy-layout matrix, one row at a
 * time: out[i] = float(intercept) then += weights[q] for every set bit
 * in ascending q (zero weights skipped). This is the same per-element
 * float addition sequence the production column-axpy kernel performs,
 * so results must equal ApolloModel::predictProxies bit for bit.
 */
std::vector<float> predictProxies(const ApolloModel &model,
                                  const BitColumnMatrix &Xq);

/** Same over a full M-signal matrix (only proxy columns read);
 *  bit-exact oracle for ApolloModel::predictFull. */
std::vector<float> predictFull(const ApolloModel &model,
                               const BitColumnMatrix &X);

/**
 * Literal tau-window averaging — NOT the Eq. (9) rearrangement: for
 * each full T-cycle window (never straddling segment boundaries), sum
 * the per-cycle weighted sums in a double accumulator, divide by T,
 * add the intercept. Oracle for
 * MultiCycleModel::predictWindowsProxies and the streaming windowed
 * engine; bit-exact because the per-cycle float sums share the
 * ascending-q order and the window accumulation shares the
 * ascending-cycle double order.
 */
std::vector<float> predictWindowsProxies(
    const ApolloModel &model, const BitColumnMatrix &Xq, uint32_t T,
    std::span<const SegmentInfo> segments);

/**
 * Straightforward B-bit quantizer, written independently of
 * opm/quantize.cc: symmetric scale max|w| / (2^(B-1) - 1), round half
 * away from zero, clamp; intercept on the same scale. Field-exact
 * oracle for quantizeModel().
 */
QuantizedModel quantizeModel(const ApolloModel &model, uint32_t bits);

/**
 * Literal OPM evaluation: per cycle the integer sum of qintercept plus
 * every toggled proxy's qweight (ascending q; integer addition is
 * exact in any order), accumulated over T cycles, then an arithmetic
 * shift by log2(T) and dequantization. One output per complete
 * window. Bit-exact oracle for OpmSimulator::simulate and the
 * quantized streaming engine. @p T must be a power of two.
 */
std::vector<float> opmSimulate(const QuantizedModel &model,
                               const BitColumnMatrix &Xq, uint32_t T);

/**
 * Naive transcription of the bit-parallel kernel's contract
 * (opm/opm_bitparallel.hh): per-cycle integer sums (qintercept plus
 * every toggled proxy's qweight), grouped into T-cycle window
 * segments starting @p phase0 cycles into a window — one entry per
 * segment, including a trailing partial one. No popcounts, no packed
 * words: one cycle at a time via get(). Bit-exact oracle for
 * opmSegmentSums() under every kernel implementation.
 */
std::vector<int64_t> opmSegmentSums(const QuantizedModel &model,
                                    const BitColumnMatrix &Xq,
                                    uint32_t T, uint32_t phase0);

/**
 * Exact worst-case bounds of the OPM per-cycle sum: qintercept plus
 * the sum of all positive (resp. negative) quantized weights. Used to
 * verify the declared hardware widths actually cover every input.
 */
struct CycleSumBounds
{
    int64_t minSum = 0;
    int64_t maxSum = 0;
};
CycleSumBounds opmCycleSumBounds(const QuantizedModel &model);

/**
 * The exact packed-bit dot's lane order (util/bitvec_kernels.hh),
 * written out row by row: every set row r of column @p col adds
 * double(dense[r]) to double chain r mod 32 in ascending row order,
 * and the 32 chains (all starting at +0.0) are reduced pairwise,
 * chain[i] = chain[i] + chain[i + w] for w = 16, 8, 4, 2, 1. Bit-exact
 * oracle for every implementation of bitkernels::dotWords and
 * dotWordsBatch.
 */
double dotLaneOrder(const BitColumnMatrix &X, size_t col,
                    std::span<const float> dense);

/**
 * The fast packed-bit dot's order, row by row: every set row r adds
 * dense[r] to FLOAT chain r mod 64 in ascending row order; the 64
 * chains are reduced pairwise in float for w = 32, 16, ..., 1 and the
 * result is widened to double. Bit-exact oracle for every
 * implementation of bitkernels::dotWordsFast.
 */
double dotFastOrder(const BitColumnMatrix &X, size_t col,
                    std::span<const float> dense);

} // namespace apollo::ref

#endif // APOLLO_REF_REFERENCE_KERNELS_HH
