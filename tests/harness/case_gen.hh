/**
 * @file
 * Deterministic seeded case generation for the differential-oracle
 * harness (docs/INTERNALS.md §8). Every case is a pure function of one
 * 64-bit seed: the seed picks a shape class (nominal random shapes
 * interleaved with adversarial ones — Q=1, all-zero columns, duplicate
 * columns, constant labels, single-cycle traces, dense/near-empty
 * matrices) and then drives a private Xoshiro stream for the contents.
 * Re-running any failing case therefore needs only its seed, which the
 * differential runner prints as a one-line replay command.
 */

#ifndef APOLLO_TESTS_HARNESS_CASE_GEN_HH
#define APOLLO_TESTS_HARNESS_CASE_GEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/apollo_model.hh"
#include "gen/ga_generator.hh"
#include "ml/coordinate_descent.hh"
#include "rtl/design_builder.hh"
#include "trace/dataset.hh"
#include "uarch/core.hh"
#include "util/bitvec.hh"
#include "util/rng.hh"

namespace apollo::harness {

/** Random rows x cols toggle matrix with the given bit density. */
BitColumnMatrix randomBits(Xoshiro256StarStar &rng, size_t rows,
                           size_t cols, double density);

/**
 * A generated inference case: a model over Q proxies, a proxy-layout
 * trace, a power-of-two window size, and segment metadata covering the
 * trace. Shapes rotate through nominal and adversarial classes.
 */
struct InferCase
{
    ApolloModel model;
    BitColumnMatrix Xq;
    uint32_t T = 1;
    std::vector<SegmentInfo> segments;
    std::string shape; ///< human-readable shape class for diagnostics
};

InferCase makeInferCase(uint64_t seed);

/** A generated quantization case: float model + bit width + trace. */
struct QuantCase
{
    ApolloModel model;
    uint32_t bits = 10;
    uint32_t T = 1;
    BitColumnMatrix Xq;
    std::string shape;
};

QuantCase makeQuantCase(uint64_t seed);

/**
 * A generated solver case: binary design matrix, labels with planted
 * linear structure plus noise, and a full CdConfig (penalty family,
 * lambda as a fraction of the case's own naive lambdaMax, nonneg flag,
 * tolerance). Adversarial classes include all-zero columns, duplicated
 * columns, constant labels, and single-active-column designs.
 */
struct SolverCase
{
    BitColumnMatrix X;
    std::vector<float> y;
    CdConfig cfg;
    std::string shape;
};

SolverCase makeSolverCase(uint64_t seed);

/**
 * A generated target-Q case: informative design + label pair plus a
 * requested support size (>= 1, well below the column count).
 */
struct TargetQCase
{
    BitColumnMatrix X;
    std::vector<float> y;
    size_t targetQ = 1;
    std::string shape;
};

TargetQCase makeTargetQCase(uint64_t seed);

/**
 * A generated packed-bit dot case (solver.bit_dots): columns shaped
 * empty, all-ones, single-bit, tail-word-only and 1-90% dense (plus
 * duplicates), row counts around word boundaries up to ~80 words, a
 * dense vector mixing magnitudes, signed zeros and subnormals, and
 * column batches of 1..bitkernels::kDotBatch ids (repeats allowed).
 */
struct BitDotsCase
{
    BitColumnMatrix X;
    std::vector<float> dense;
    std::vector<std::vector<uint32_t>> batches;
    std::string shape;
};

BitDotsCase makeBitDotsCase(uint64_t seed);

/**
 * A generated bit-parallel streaming case: float model + quantizer bit
 * width + proxy trace + power-of-two window. Shape classes target the
 * packed 64-cycle kernels specifically: proxy counts at and around
 * word multiples (63/64/65/127/128/129, and ~150 like the reference
 * OPM), trace lengths at word boundaries (0/1/63/64/65/...), windows
 * below the bit-parallel threshold (T in {1, 2} — legacy path), the
 * word-aligned fast paths (T in {64, 128, 256}), and the vectorized
 * T = 32 path.
 */
struct BitParallelCase
{
    ApolloModel model;
    uint32_t bits = 10;
    uint32_t T = 4;
    BitColumnMatrix Xq;
    std::string shape;
};

BitParallelCase makeBitParallelCase(uint64_t seed);

/** Chunk-size schedule for streaming cases (varied, includes 1). */
size_t streamChunkCycles(uint64_t seed);

/**
 * A generated toggle/fitness case: a miniature random design plus a
 * synthetic frame segment (arbitrary activities/enables/data — more
 * adversarial than core-produced frames) and a signal-sampling stride.
 * Adversarial classes include gate-threshold activities (~0.999),
 * mostly-disabled units, non-contiguous cycle numbers, single-cycle
 * and word-boundary segment lengths, and stride > signal count.
 */
struct GaCase
{
    Netlist netlist;
    std::vector<ActivityFrame> frames;
    uint32_t stride = 1;
    std::string shape;
};

GaCase makeGaCase(uint64_t seed);

/**
 * A generated fitness-batch case: a miniature design and 1-9 runs of
 * synthetic frames that share each row's cycle stamp (contiguous or
 * not) but not their lengths (1, 63, 64, 65 rows and longer). Some
 * runs are exact copies of an earlier run, some near-copies that
 * differ in one field of one frame or in length. The batch is scored
 * at stride 1-7, serially or on a 1-3 worker pool, whose row tiles
 * cut inside the runs.
 */
struct FitnessBatchCase
{
    Netlist netlist;
    std::vector<std::vector<ActivityFrame>> runs;
    uint32_t stride = 1;
    /** Pool workers the batch runs on; 0 scores it serially. */
    size_t threads = 0;
    std::string shape;
};

FitnessBatchCase makeFitnessBatchCase(uint64_t seed);

/**
 * A generated multi-segment toggle case: a GaCase's design and frames
 * plus a per-cycle segment-begin table and bind windows. Segment
 * lengths come from the 1/2/63/64/65-row edges, optionally mixed with
 * random lengths; some cases restart the cycle stamps at every
 * segment, and a quarter keep one segment (empty table). Windows start
 * on a segment start, one row after one, or straddle a boundary; the
 * whole trace is always the first window.
 */
struct ToggleCase
{
    Netlist netlist;
    std::vector<ActivityFrame> frames;
    std::vector<uint32_t> segmentBeginOf;
    /** (first row, row count) bind windows. */
    std::vector<std::pair<size_t, size_t>> windows;
    std::string shape;
};

ToggleCase makeToggleCase(uint64_t seed);

/**
 * A generated row-toggle case: a miniature design (every signal kind,
 * buses, latencies 0-2), frames split into segments from the
 * 1/2/63/64/65-row edges, and 2-3 signal lists of Q in {1, 15, 16, 17,
 * 63, 64, 65, 159, 160} drawn from one kind, from bus bits, or from
 * every kind (with repeats when the design has fewer signals). Frame
 * shapes: nominal, edge values (NaN, infinities, signed zeros,
 * denormals, activity and data outside [0, 1]), sparse enables, and
 * exact ties: rows whose source activity (data for a bus bit) is
 * stepped until one listed signal's threshold equals its draw.
 */
struct ToggleRowsCase
{
    Netlist netlist;
    std::vector<ActivityFrame> frames;
    /** Every row's segment start (row r starts one iff entry r is r). */
    std::vector<uint32_t> segmentBeginOf;
    std::vector<std::vector<uint32_t>> lists;
    std::string shape;
};

ToggleRowsCase makeToggleRowsCase(uint64_t seed);

/**
 * A generated dataset-export case: a miniature design and synthetic
 * frames split into segments (added to a DatasetBuilder one segment at
 * a time). Shapes include a one-cycle segment, totals at word
 * boundaries, one segment, many short segments, sparse enables and
 * gate-threshold activities.
 */
struct DatasetBuildCase
{
    Netlist netlist;
    std::vector<ActivityFrame> frames;
    std::vector<size_t> segmentLengths;
    std::string shape;
};

DatasetBuildCase makeDatasetBuildCase(uint64_t seed);

/**
 * A generated GA-run case: a miniature design plus a full GaConfig
 * (small budgets) and core parameters with a short warm-up. Shape
 * classes cover duplicate-heavy populations (zero mutation/crossover,
 * near-full elitism), the minimal population, multiple thread counts
 * (including the global pool), stride > signal count, and invalid
 * configurations (expectError set — validate() must reject).
 */
struct GaRunCase
{
    Netlist netlist;
    CoreParams coreParams;
    GaConfig ga;
    bool expectError = false;
    std::string shape;
};

GaRunCase makeGaRunCase(uint64_t seed);

/** One scheduled throttle action of a CoreCase's control hook. */
struct CoreControlStep
{
    uint64_t cycle = 0; ///< recorded cycle the hook acts on
    bool release = false;
    ThrottleMode mode = ThrottleMode::None; ///< engaged when !release
    uint32_t level = 1;                     ///< Proportional issue cap
};

/**
 * A generated timing-core case: a program (a GaGenerator::randomBody
 * loop or a short makeLongWorkload), random CoreParams with any
 * ThrottleMode as the base mode, a cycle budget, and a control
 * schedule that engages every pulsed mode (Proportional at several
 * levels) and releases it. Shape classes cover 1-entry ROB, IQ, fetch
 * queue and store buffer, warmupCycles 0, zero ALU/mul/div latencies,
 * one-MSHR caches, loads that forward from store-buffer entries behind
 * its head, and programs that end before max_cycles (including
 * max_cycles = UINT64_MAX).
 */
struct CoreCase
{
    Program program;
    CoreParams params;
    uint64_t maxCycles = 0;
    std::vector<CoreControlStep> control; ///< ascending cycles
    std::string shape;
};

CoreCase makeCoreCase(uint64_t seed);

} // namespace apollo::harness

#endif // APOLLO_TESTS_HARNESS_CASE_GEN_HH
