/**
 * @file
 * Bit-true simulator of the APOLLO OPM hardware (Fig. 8): per cycle the
 * quantized weights are AND-gated by the proxy toggle bits and summed
 * (bit width B + ceil(log2 Q)); a T-cycle accumulator (width
 * B + ceil(log2 Q) + ceil(log2 T)) adds cycle sums and, every T cycles,
 * emits the window average by dropping the low log2(T) bits — T is a
 * power of two so the division is a shift. Output latency is two
 * cycles (registered proxy inputs + pipelined sum), matching §7.5.
 */

#ifndef APOLLO_OPM_OPM_SIMULATOR_HH
#define APOLLO_OPM_OPM_SIMULATOR_HH

#include <cstdint>
#include <span>
#include <vector>

#include "opm/quantize.hh"
#include "util/bitvec.hh"

namespace apollo {

/** Hardware-accurate OPM evaluation. */
class OpmSimulator
{
  public:
    /**
     * @param model the quantized model
     * @param T     measurement window in cycles; must be a power of two
     */
    OpmSimulator(const QuantizedModel &model, uint32_t T);

    /** One output sample (valid every T cycles). */
    struct Output
    {
        bool valid = false;
        int64_t raw = 0;   ///< accumulator >> log2(T)
        double power = 0.0;
    };

    /**
     * Advance one cycle. @p proxy_bits holds Q packed toggle bits
     * (bit q = proxy q toggled this cycle).
     */
    Output step(const uint64_t *proxy_bits);

    /**
     * The combinational "power computation" stage alone: the AND-gated
     * weighted sum of one cycle's proxy bits (plus the quantized
     * intercept), without touching accumulator state. The constructor
     * sizes cycleSumBits() for the worst case of this sum.
     */
    int64_t cycleSum(const uint64_t *proxy_bits) const;

    /**
     * The sequential accumulate-then-shift stage: advance @p len
     * cycles at once with their precomputed total @p segment_sum.
     * Integer addition is exact in any order, so one segment add
     * equals len per-cycle adds bit for bit; step() is the len = 1
     * case. The segment must not straddle a window boundary
     * (phase() + len <= T), which is how windows straddling chunk
     * edges carry across calls. The accumulator-width check runs per
     * segment.
     */
    Output stepSegment(int64_t segment_sum, uint32_t len);

    /**
     * Replay the segment sums of @p rows cycles, laid out from the
     * current phase() the way opmSegmentSums() splits them (leading
     * segment min(rows, T - phase()), then up to T each), appending
     * every completed window's power to @p out.
     */
    void replaySegments(std::span<const int64_t> seg_sums, size_t rows,
                        std::vector<float> &out);

    void reset();

    /** Cycles into the current window (0 <= phase < T). */
    uint32_t phase() const { return phase_; }

    /** Bit width of the per-cycle weighted sum. */
    uint32_t cycleSumBits() const { return cycleSumBits_; }
    /** Bit width of the T-cycle accumulator. */
    uint32_t accumulatorBits() const { return accumBits_; }
    /** Fixed pipeline latency in cycles. */
    static constexpr uint32_t latencyCycles = 2;

    uint32_t windowCycles() const { return T_; }

    /**
     * Run over a proxy-toggle matrix (columns ordered like the model's
     * proxyIds); returns one power value per complete T-window. The
     * whole matrix goes through the streaming engine's kernel:
     * opmSegmentSums() at phase 0, then replaySegments().
     */
    std::vector<float> simulate(const BitColumnMatrix &Xq);

  private:
    QuantizedModel model_;
    uint32_t T_;
    uint32_t shift_;
    uint32_t cycleSumBits_;
    uint32_t accumBits_;
    int64_t accumulator_ = 0;
    uint32_t phase_ = 0;
};

} // namespace apollo

#endif // APOLLO_OPM_OPM_SIMULATOR_HH
