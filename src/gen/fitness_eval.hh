/**
 * @file
 * FitnessEvaluator: the GA fitness power computation over a simulated
 * frame window — average finalized oracle power from every stride-th
 * signal, scaled back up (relative ordering is all the GA needs).
 *
 * One implementation (INTERNALS.md §9): column-major toggle generation
 * (ToggleColumnGenerator, whose fused kernels draw, threshold and
 * compare 16 rows at a time into register words) feeding weighted
 * bit-column accumulation (OracleAccumulator). It is bit-exact for any
 * frames/stride against the per-cycle transcription in src/ref
 * (ref::fitnessCyclePowers), which serves as both the differential
 * oracle and the perf bench's baseline.
 *
 * The evaluator owns reusable scratch, so per-individual evaluation
 * allocates nothing after warm-up. Instances are not thread-safe; the
 * GA keeps one per worker.
 */

#ifndef APOLLO_GEN_FITNESS_EVAL_HH
#define APOLLO_GEN_FITNESS_EVAL_HH

#include <cstdint>
#include <span>
#include <vector>

#include "activity/toggle_columns.hh"
#include "power/oracle_accumulator.hh"

namespace apollo {

/** Reusable GA fitness evaluator (one per worker). */
class FitnessEvaluator
{
  public:
    /**
     * @param signal_stride evaluate every stride-th signal (>= 1;
     *                      validated by GaConfig).
     */
    FitnessEvaluator(const Netlist &netlist, const ActivityEngine &engine,
                     const PowerOracle &oracle,
                     uint32_t signal_stride = 1);

    /**
     * Finalized per-cycle power over @p frames (one segment, lookbacks
     * clamp at index 0), estimated from the strided signal subset.
     */
    void cyclePowers(std::span<const ActivityFrame> frames,
                     std::vector<double> &out);

    /** Mean of cyclePowers (0.0 for an empty window). */
    double averagePower(std::span<const ActivityFrame> frames);

  private:
    const size_t signals_;
    const uint32_t stride_;
    ToggleColumnGenerator gen_;
    OracleAccumulator acc_;
    std::vector<uint64_t> colWords_;
    std::vector<double> powers_;
};

} // namespace apollo

#endif // APOLLO_GEN_FITNESS_EVAL_HH
