/**
 * @file
 * GA-based automatic training-data generation (§4.1, GeST-style [28]).
 *
 * Individuals are loop bodies over a constrained instruction set.
 * Fitness is the average ground-truth power of the individual's
 * micro-benchmark on the target design. High-power parents are selected
 * by tournament, paired by single-point crossover, and mutated. The
 * optimization is primed toward the power virus; because early
 * generations span low-power individuals, the union of all generations
 * covers a wide power range (>5x max/min — Fig. 3(b)), from which a
 * power-uniform training subset is drawn.
 *
 * The evaluation pipeline is parallel, deduplicated and single-pass
 * (docs/INTERNALS.md §9):
 *  - every population slot draws from its own counter-seeded RNG
 *    stream (seeded from (config seed, generation, slot)), and fitness
 *    evaluation consumes no RNG, so the GA trajectory is bit-identical
 *    at any thread count;
 *  - fitness simulations of one generation run concurrently on a
 *    thread pool, and their windows are then scored as one
 *    FitnessEvaluator batch on the same pool (shared draws, identical
 *    windows scored once);
 *  - a genome-keyed fitness cache skips re-simulation of duplicate
 *    genomes (elites and converged populations), with deterministic
 *    hit/miss counters;
 *  - each unique genome's activity frames are captured during its
 *    fitness simulation, so dataset export can reuse them instead of
 *    re-simulating (flow/flows.hh generateTrainingSet).
 *
 * The pipeline has one configuration (only the worker count varies),
 * and every recorded avgPower equals ref::fitnessAveragePower over the
 * individual's captured frames.
 */

#ifndef APOLLO_GEN_GA_GENERATOR_HH
#define APOLLO_GEN_GA_GENERATOR_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/program.hh"
#include "trace/toggle_trace.hh"
#include "util/rng.hh"
#include "util/status.hh"

namespace apollo {

class FitnessEvaluator;

/** GA hyper-parameters. */
struct GaConfig
{
    uint32_t populationSize = 36;
    uint32_t generations = 12;
    uint32_t bodyMinLen = 6;
    uint32_t bodyMaxLen = 26;
    uint32_t elites = 4;
    uint32_t tournamentSize = 3;
    double crossoverRate = 0.85;
    double mutationRate = 0.18;
    /** Cycle budget per fitness simulation. */
    uint64_t fitnessCycles = 600;
    /** Signal sampling stride for fitness power estimation (>= 1). */
    uint32_t fitnessSignalStride = 1;
    uint64_t seed = 0x6a6aULL;

    /** Fitness-evaluation worker threads (0 = hardware concurrency;
     *  at most kMaxWorkerThreads, util/thread_pool.hh). */
    uint32_t threads = 0;

    /**
     * Check the configuration; returns InvalidArgument for
     * out-of-range fields (e.g. fitnessSignalStride == 0, which would
     * skip every signal and divide by zero).
     */
    Status validate() const;
};

/** One generated micro-benchmark. */
struct GaIndividual
{
    std::vector<Instruction> body;
    uint64_t dataSeed = 1;
    double avgPower = 0.0;
    uint32_t generation = 0;
    /** Index into GaGenerator::all(), set by run(); key for
     *  GaGenerator::capturedFrames. */
    size_t id = 0;
};

/** Deterministic pipeline counters for one run(). */
struct GaRunStats
{
    /** Fitness simulations actually executed. */
    uint64_t evaluations = 0;
    /** Individuals served from the genome fitness cache. */
    uint64_t cacheHits = 0;
    /** Individuals that required a simulation (== evaluations). */
    uint64_t cacheMisses = 0;
    /** Recorded cycles simulated for fitness (excludes warm-up). */
    uint64_t simulatedCycles = 0;

    double
    hitRate() const
    {
        const uint64_t total = cacheHits + cacheMisses;
        return total ? static_cast<double>(cacheHits) / total : 0.0;
    }
};

/** The GA optimization loop. */
class GaGenerator
{
  public:
    /**
     * @param builder provides the design, core params and power oracle
     *                used for fitness evaluation (not mutated).
     */
    GaGenerator(const DatasetBuilder &builder,
                const GaConfig &config = GaConfig{});
    ~GaGenerator();

    /** Run all generations. */
    void run();

    /** Every individual ever evaluated, across generations. */
    const std::vector<GaIndividual> &all() const { return all_; }

    /** The highest-power individual found (the power virus). */
    const GaIndividual &best() const;

    /** Max/min average-power ratio across all individuals. */
    double powerRangeRatio() const;

    /**
     * Draw @p count individuals with approximately uniform coverage of
     * the observed power range (the paper selects ~300 of >1000 this
     * way for training).
     */
    std::vector<GaIndividual> selectTrainingSet(size_t count) const;

    /**
     * Frames captured during the fitness simulation of all()[id]
     * (shared between duplicate genomes).
     */
    std::span<const ActivityFrame> capturedFrames(size_t id) const;

    /** Pipeline counters of the last run(). */
    const GaRunStats &stats() const { return stats_; }

    /** Materialize an individual as a runnable looped Program. */
    static Program toProgram(const GaIndividual &ind,
                             const std::string &name, int iterations);

    /**
     * Loop trip count used for fitness simulation: sized so the loop
     * comfortably outlives the cycle budget. Export re-simulation must
     * use the same count for frames to match the captured ones.
     */
    static int fitnessIterations(size_t body_len,
                                 uint64_t fitness_cycles);

    /** Cache key of a genome (body + data seed); exposed for tests. */
    static uint64_t genomeKey(const GaIndividual &ind);

    /** Generate one random loop body (exposed for tests). */
    static std::vector<Instruction> randomBody(Xoshiro256StarStar &rng,
                                               uint32_t min_len,
                                               uint32_t max_len);

  private:
    struct CacheEntry;
    struct Evaluation;

    Xoshiro256StarStar slotStream(uint32_t generation,
                                  uint32_t slot) const;
    GaIndividual randomIndividual(Xoshiro256StarStar &rng,
                                  uint32_t generation) const;
    void evaluatePopulation(std::vector<GaIndividual> &population,
                            uint32_t generation);
    const GaIndividual &tournament(
        const std::vector<GaIndividual> &pop,
        Xoshiro256StarStar &rng) const;
    void mutate(GaIndividual &ind, Xoshiro256StarStar &rng) const;

    const DatasetBuilder &builder_;
    GaConfig config_;
    std::vector<GaIndividual> all_;
    GaRunStats stats_;
    /** One slot per unique genome simulated in this run. */
    std::vector<Evaluation> evaluations_;
    /** all_ index -> evaluations_ slot (shared by duplicate genomes). */
    std::vector<size_t> slotOf_;
    /** Genome fitness cache; bucket vectors absorb key collisions. */
    std::unordered_map<uint64_t, std::vector<CacheEntry>> cache_;
    std::unique_ptr<FitnessEvaluator> fitness_;
    std::unique_ptr<class ThreadPool> localPool_;
};

} // namespace apollo

#endif // APOLLO_GEN_GA_GENERATOR_HH
