/**
 * @file
 * Multi-cycle power modeling (§4.5). APOLLO_tau is trained on tau-cycle
 * averaged toggles/labels; at inference, Eq. (9) rearranges the T-cycle
 * window average so only per-cycle binary accumulate + a final divide
 * by T (a shift, since T is a power of two) is needed:
 *
 *   p_T = b + (1/T) * sum over the T cycles of sum_j w_j x_j[i]
 *
 * The same machinery expresses the two straw-man baselines of Fig. 11:
 * tau = 1 is "average of per-cycle predictions" and tau = T is
 * "averaged inputs".
 */

#ifndef APOLLO_CORE_MULTI_CYCLE_HH
#define APOLLO_CORE_MULTI_CYCLE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "core/apollo_model.hh"
#include "core/apollo_trainer.hh"
#include "trace/dataset.hh"
#include "util/status.hh"

namespace apollo {

/** APOLLO_tau: a linear model trained at interval size tau. */
struct MultiCycleModel
{
    ApolloModel base;
    uint32_t tau = 1;

    /**
     * Eq. (9) inference: window-average predictions over consecutive
     * T-cycle windows of a *full* per-cycle feature matrix; windows
     * never straddle the @p segments boundaries.
     *
     * Data errors return a Status instead of aborting: InvalidArgument
     * when T is zero or no segment holds a full T-cycle window,
     * OutOfRange when a segment exceeds the matrix rows.
     */
    StatusOr<std::vector<float>> predictWindowsFull(
        const BitColumnMatrix &X, uint32_t T,
        std::span<const SegmentInfo> segments) const;

    /** Same over a proxy-only matrix (columns follow base.proxyIds). */
    StatusOr<std::vector<float>> predictWindowsProxies(
        const BitColumnMatrix &Xq, uint32_t T,
        std::span<const SegmentInfo> segments) const;
};

/**
 * The Eq. (9) window fold: a double accumulator and a window phase,
 * carried across push() calls. Every T-th folded value completes a
 * window and emits float(offset + acc / T). This is the one
 * production loop behind every float window average —
 * predictWindows*, windowAverageLabels and the windowed streaming
 * pipeline — so they agree bit for bit. Drop the fold (or reset() it)
 * to discard a trailing partial window.
 */
class WindowFold
{
  public:
    WindowFold(uint32_t T, double offset) : T_(T), offset_(offset) {}

    /** Fold @p values in order, appending completed windows to @p out. */
    void push(std::span<const float> values, std::vector<float> &out);

    /** Discard the partial window. */
    void
    reset()
    {
        acc_ = 0.0;
        phase_ = 0;
    }

  private:
    uint32_t T_;
    double offset_;
    double acc_ = 0.0;
    uint32_t phase_ = 0;
};

/** Train APOLLO_tau from a per-cycle dataset. */
MultiCycleModel trainMultiCycle(const Dataset &train, uint32_t tau,
                                const ApolloTrainConfig &config,
                                const std::string &design_name = "");

/**
 * Ground-truth labels for Fig. 11: window-average power over
 * consecutive T-cycle windows (per segment, full windows only).
 * Same error contract as predictWindowsFull; segments are
 * bounds-checked against y.size().
 */
StatusOr<std::vector<float>> windowAverageLabels(
    std::span<const float> y, uint32_t T,
    std::span<const SegmentInfo> segments);

} // namespace apollo

#endif // APOLLO_CORE_MULTI_CYCLE_HH
