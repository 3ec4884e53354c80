/**
 * @file
 * Naive references for the GA training-data generation pipeline
 * (docs/INTERNALS.md §8, §9): per-cycle toggle columns, the fitness
 * power estimate and the dataset export, written as literal
 * transcriptions of the defined
 * per-cycle semantics — no batching, no bit kernels, no caching, no
 * shared code with activity/toggle_columns or power/label_accumulator
 * beyond the data containers.
 *
 * Ground truth has one definition, the label order (INTERNALS.md §5):
 * per cycle, one double sums PowerOracle::signalContribution over the
 * toggling signals in ascending id, the sum is scaled by the signal
 * stride (1 for labels) and finalized with the cycle's key. Both
 * transcriptions below spell it out, and the production kernel
 * (LabelAccumulator) is defined to be bit-exact against them, so the
 * differential comparison is exact equality.
 */

#ifndef APOLLO_REF_REFERENCE_GA_HH
#define APOLLO_REF_REFERENCE_GA_HH

#include <cstdint>
#include <span>
#include <vector>

#include "activity/activity_engine.hh"
#include "power/power_oracle.hh"
#include "trace/dataset.hh"

namespace apollo::ref {

/**
 * Literal toggle column: out[i] = 1 iff engine.toggles(sig_id, frames,
 * i, begin_of[i]), with begin_of[i] = 0 when @p segment_begin_of is
 * empty (one segment). Oracle for ToggleColumnGenerator::fillColumn
 * (bit i of a window bound at row first is out[first + i]) and for
 * every trace that fillToggleColumns fills.
 */
std::vector<uint8_t> toggleColumn(
    const ActivityEngine &engine, std::span<const ActivityFrame> frames,
    uint32_t sig_id, std::span<const uint32_t> segment_begin_of = {});

/**
 * Literal full-signal dataset export: per cycle i, over ascending
 * signal ids j, X(i, j) = engine.toggles(j, frames, i, begin_of[i])
 * and every toggling j adds oracle.signalContribution(j, frames[i])
 * into one double; y[i] = float(oracle.finalize(sum, i)). Bit-exact
 * oracle for DatasetBuilder::build (X words and y floats; the segment
 * list is left empty).
 */
Dataset datasetBuild(const Netlist &netlist, const ActivityEngine &engine,
                     const PowerOracle &oracle,
                     std::span<const ActivityFrame> frames,
                     std::span<const uint32_t> segment_begin_of);

/**
 * Literal §4.1 fitness power transcription over one frame segment, in
 * the label order: per cycle i, every toggling strided signal j
 * (j = 0, stride, 2 stride, ..., ascending) adds
 * oracle.signalContribution(j, frames[i]) into one double, and
 * out[i] = oracle.finalize(sum * stride, i). At stride 1, float(out[i])
 * is datasetBuild's y[i] for the same frames as one segment. Bit-exact
 * oracle for FitnessEvaluator::cyclePowers, and the baseline
 * bench_perf_ga times the GA pipeline against.
 */
std::vector<double> fitnessCyclePowers(
    const Netlist &netlist, const ActivityEngine &engine,
    const PowerOracle &oracle, std::span<const ActivityFrame> frames,
    uint32_t stride);

/**
 * Double mean of fitnessCyclePowers in ascending-cycle order (0.0 for
 * an empty segment). Bit-exact oracle for
 * FitnessEvaluator::averagePower — and thereby for every
 * GaIndividual::avgPower the GA pipeline records, cached or not.
 */
double fitnessAveragePower(const Netlist &netlist,
                           const ActivityEngine &engine,
                           const PowerOracle &oracle,
                           std::span<const ActivityFrame> frames,
                           uint32_t stride);

} // namespace apollo::ref

#endif // APOLLO_REF_REFERENCE_GA_HH
