/**
 * @file
 * FitnessEvaluator: ground-truth power of simulated frame windows —
 * the GA fitness (average finalized oracle power from every stride-th
 * signal, scaled back up; relative ordering is all the GA needs) and
 * the droop lab's truth power (stride 1).
 *
 * One implementation (INTERNALS.md §9): column-major toggle generation
 * (ToggleColumnGenerator, whose fused kernels draw, threshold and
 * compare 16 rows at a time into register words) feeding the one
 * ground-truth power kernel (LabelAccumulator), which sums each row in
 * the dataset label order. It scores a *batch* of runs whose frames
 * carry the same cycle stamp at each row, as the timing core stamps
 * every run 0, 1, 2, ...:
 *  - identical runs (same length, every frame field equal) are scored
 *    once, and the duplicates copy the first one's powers;
 *  - the other runs share each 64-row word's draws through one
 *    multi-run bind;
 *  - the batch is split into tiles, 64-aligned row blocks sized by
 *    toggleBlockRows(), that run on the caller's pool; each tile binds
 *    every distinct run that reaches it, fills kChunkColumns strided
 *    signals' columns at a time and adds them to each run's sums.
 * Each row is finalized with the run's own row index, so every power
 * is independent of the tile size and thread count. At stride 1 a
 * run's powers, cast to float, are the dataset labels of the same
 * frames as one segment, and at any stride they are bit-exact against
 * the per-cycle transcription in src/ref (ref::fitnessCyclePowers),
 * which serves as both the differential oracle and the perf bench's
 * baseline.
 *
 * The evaluator holds no scratch: each pool chunk copies an unbound
 * generator and accumulators (whose per-signal terms the copies
 * share), so one instance may score batches from several threads.
 */

#ifndef APOLLO_GEN_FITNESS_EVAL_HH
#define APOLLO_GEN_FITNESS_EVAL_HH

#include <cstdint>
#include <span>
#include <vector>

#include "activity/toggle_columns.hh"
#include "power/label_accumulator.hh"

namespace apollo {

class ThreadPool;

/** Batched ground-truth power over simulated runs. */
class FitnessEvaluator
{
  public:
    /** What one batch scored. */
    struct BatchStats
    {
        /** Runs scored by the oracle (distinct, non-empty). */
        size_t scored = 0;
        /** Runs that copied an identical earlier run's powers. */
        size_t duplicates = 0;
    };

    /**
     * @param signal_stride evaluate every stride-th signal (>= 1;
     *                      validated by GaConfig).
     */
    FitnessEvaluator(const Netlist &netlist, const ActivityEngine &engine,
                     const PowerOracle &oracle,
                     uint32_t signal_stride = 1);

    /**
     * out[r] = the finalized per-cycle power of runs[r] (one segment,
     * lookbacks clamp at its row 0), estimated from the strided signal
     * subset. Every run's frame at a row must carry the same cycle
     * stamp (FatalError otherwise). The tiles run on @p pool; nullptr
     * runs them serially on the calling thread.
     */
    BatchStats
    cyclePowersBatch(std::span<const std::span<const ActivityFrame>> runs,
                     std::vector<std::vector<double>> &out,
                     ThreadPool *pool) const;

    /** A batch of one run, scored serially. */
    void cyclePowers(std::span<const ActivityFrame> frames,
                     std::vector<double> &out) const;

    /** Mean of cyclePowers (0.0 for an empty window). */
    double averagePower(std::span<const ActivityFrame> frames) const;

  private:
    const uint32_t stride_;
    /** The strided signal ids, ascending. */
    std::vector<uint32_t> sigIds_;
    /** Unbound prototypes each tile's scratch is copied from. */
    const ToggleColumnGenerator gen_;
    const LabelAccumulator acc_;
};

/** Mean of @p powers in ascending order (0.0 when empty). */
double meanPower(std::span<const double> powers);

} // namespace apollo

#endif // APOLLO_GEN_FITNESS_EVAL_HH
