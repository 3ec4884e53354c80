#include "opm/opm_simulator.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "obs/metrics.hh"
#include "opm/opm_bitparallel.hh"
#include "util/logging.hh"

namespace apollo {

namespace {

uint32_t
ceilLog2(uint64_t v)
{
    uint32_t bits = 0;
    while ((1ULL << bits) < v)
        bits++;
    return bits;
}

} // namespace

OpmSimulator::OpmSimulator(const QuantizedModel &model, uint32_t T)
    : model_(model), T_(T)
{
    APOLLO_REQUIRE(T >= 1 && std::has_single_bit(T),
                   "T must be a power of two");
    APOLLO_REQUIRE(!model.proxyIds.empty(), "empty model");
    shift_ = ceilLog2(T);
    // Full-precision widths per §6: B + ceil(log Q) (+1 sign margin),
    // then + ceil(log T) for the accumulator. The §6 formula assumes
    // the intercept is on the weight scale; a quantized intercept of
    // larger magnitude (|b| >> max|w| after scaling) shifts the whole
    // cycle-sum range, so the width must also cover the exact
    // worst-case sum including qintercept.
    int64_t min_sum = model.qintercept;
    int64_t max_sum = model.qintercept;
    for (int32_t qw : model.qweights) {
        if (qw > 0)
            max_sum += qw;
        else
            min_sum += qw;
    }
    const uint64_t max_abs =
        std::max(static_cast<uint64_t>(max_sum < 0 ? -max_sum : max_sum),
                 static_cast<uint64_t>(min_sum < 0 ? -min_sum : min_sum));
    cycleSumBits_ =
        std::max(model.bits + ceilLog2(model.proxyCount()) + 1,
                 static_cast<uint32_t>(std::bit_width(max_abs)));
    accumBits_ = cycleSumBits_ + shift_;
    APOLLO_REQUIRE(accumBits_ <= 62,
                   "accumulator width exceeds 62 bits for this "
                   "model/T combination");
}

void
OpmSimulator::reset()
{
    accumulator_ = 0;
    phase_ = 0;
}

int64_t
OpmSimulator::cycleSum(const uint64_t *proxy_bits) const
{
    // "Power computation": AND-gated weight accumulation — no
    // multipliers, the weight either enters the adder tree or not.
    int64_t cycle_sum = model_.qintercept;
    const size_t q_count = model_.proxyCount();
    for (size_t w = 0; w * 64 < q_count; ++w) {
        uint64_t bits = proxy_bits[w];
        while (bits) {
            const size_t q =
                w * 64 + static_cast<size_t>(std::countr_zero(bits));
            bits &= bits - 1;
            if (q >= q_count)
                break;
            cycle_sum += model_.qweights[q];
        }
    }
    return cycle_sum;
}

OpmSimulator::Output
OpmSimulator::step(const uint64_t *proxy_bits)
{
    return stepSegment(cycleSum(proxy_bits), 1);
}

OpmSimulator::Output
OpmSimulator::stepSegment(int64_t segment_sum, uint32_t len)
{
    APOLLO_ASSERT(len >= 1 && phase_ + len <= T_,
                  "segment must stay within one window");

    // "T-cycle average": accumulate, emit every T cycles with the
    // divide realized by dropping the low log2(T) bits. One add for
    // the whole segment is exact, so bit-identical to len per-cycle
    // adds. The accumulator width covers the partial window (|acc
    // after k <= T cycles| <= T * max|cycle sum|, the bound the
    // constructor sized accumBits_ with).
    accumulator_ += segment_sum;
    const int64_t accum_limit = 1LL << accumBits_;
    APOLLO_ASSERT(accumulator_ > -accum_limit &&
                      accumulator_ < accum_limit,
                  "accumulator overflows declared width");
    phase_ += len;

    Output out;
    if (phase_ == T_) {
        out.valid = true;
        out.raw = accumulator_ >> shift_;
        out.power = model_.dequantize(out.raw);
        accumulator_ = 0;
        phase_ = 0;
    }
    return out;
}

void
OpmSimulator::replaySegments(std::span<const int64_t> seg_sums,
                             size_t rows, std::vector<float> &out)
{
    size_t a = 0;
    size_t s = 0;
    size_t b = std::min<size_t>(rows, T_ - phase_);
    while (a < rows) {
        const Output sample =
            stepSegment(seg_sums[s++], static_cast<uint32_t>(b - a));
        if (sample.valid)
            out.push_back(static_cast<float>(sample.power));
        a = b;
        b = std::min<size_t>(rows, a + T_);
    }
}

std::vector<float>
OpmSimulator::simulate(const BitColumnMatrix &Xq)
{
    APOLLO_REQUIRE(Xq.cols() == model_.proxyCount(),
                   "proxy matrix arity mismatch");
    reset();
    const size_t n = Xq.rows();
    const popkernels::Kernels &kernels = popkernels::kernels();
    std::vector<int64_t> seg_sums;
    opmSegmentSums(model_, T_, 0, Xq, n, kernels, seg_sums);

    std::vector<float> out;
    out.reserve(n / T_);
    replaySegments(seg_sums, n, out);
    APOLLO_COUNT("apollo.opm.simulations", 1);
    APOLLO_COUNT("apollo.opm.cycles", n);
    APOLLO_COUNT("apollo.opm.windows", out.size());
    if (APOLLO_OBS_ON() && n > 0 && Xq.cols() > 0) {
        uint64_t ones = 0;
        for (size_t q = 0; q < Xq.cols(); ++q)
            ones += kernels.countWords(Xq.colWords(q), Xq.wordsPerCol());
        APOLLO_OBSERVE("apollo.opm.toggle_density",
                       static_cast<double>(ones) /
                           (static_cast<double>(n) *
                            static_cast<double>(Xq.cols())),
                       ::apollo::obs::ratioBounds());
    }
    return out;
}

} // namespace apollo
