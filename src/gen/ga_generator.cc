#include "gen/ga_generator.hh"

#include <algorithm>
#include <cmath>

#include "gen/fitness_eval.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace apollo {

namespace {

/**
 * Instruction-generation policy. Register conventions:
 *  - x0..x27: general scalar data registers (ALU destinations)
 *  - x28, x29: walking pointers (only incremented, never clobbered)
 *  - x30: memory base (read-only), x31: loop counter (reserved)
 *  - v0..v15: vector data registers
 */
constexpr int maxDataReg = 27;

Instruction
randomInstruction(Xoshiro256StarStar &rng)
{
    using namespace asm_helpers;
    auto data_reg = [&] {
        return static_cast<int>(rng.nextBounded(maxDataReg + 1));
    };
    auto vec_reg = [&] {
        return static_cast<int>(rng.nextBounded(numVectorRegs));
    };
    auto ptr_reg = [&] { return 28 + static_cast<int>(rng.nextBounded(2)); };
    auto mem_off = [&] {
        return static_cast<int32_t>(8 * rng.nextBounded(512));
    };

    // Weighted opcode mix biased toward the units that dominate power.
    const double u = rng.nextDouble();
    if (u < 0.26) { // scalar ALU
        const int kind = static_cast<int>(rng.nextBounded(6));
        const int rd = data_reg(), rn = data_reg(), rm = data_reg();
        switch (kind) {
          case 0: return add(rd, rn, rm);
          case 1: return sub(rd, rn, rm);
          case 2: return and_(rd, rn, rm);
          case 3: return orr(rd, rn, rm);
          case 4: return eor(rd, rn, rm);
          default: return lsl(rd, rn, rm);
        }
    }
    if (u < 0.33) { // immediate ALU / pointer bumps
        if (rng.nextDouble() < 0.3) {
            const int p = ptr_reg();
            return addi(p, p, static_cast<int32_t>(8 * rng.nextBounded(16)));
        }
        return addi(data_reg(), data_reg(),
                    static_cast<int32_t>(rng.nextBounded(4096)));
    }
    if (u < 0.40) { // long-latency integer
        if (rng.nextDouble() < 0.85)
            return mul(data_reg(), data_reg(), data_reg());
        return div(data_reg(), data_reg(), data_reg());
    }
    if (u < 0.62) { // vector
        const int kind = static_cast<int>(rng.nextBounded(4));
        const int vd = vec_reg(), vn = vec_reg(), vm = vec_reg();
        switch (kind) {
          case 0: return vadd(vd, vn, vm);
          case 1: return vmul(vd, vn, vm);
          default: return vfma(vd, vn, vm);
        }
    }
    if (u < 0.80) { // scalar memory
        const double m = rng.nextDouble();
        if (m < 0.12) {
            // Pointer chase: dependent loads through random memory —
            // the lowest-power behaviour (core drains on every miss).
            const int p = ptr_reg();
            return ldr(p, p, static_cast<int32_t>(8 * rng.nextBounded(8)));
        }
        if (m < 0.55)
            return ldr(data_reg(), rng.nextDouble() < 0.7 ? 30 : ptr_reg(),
                       mem_off());
        if (m < 0.9)
            return str(data_reg(), rng.nextDouble() < 0.7 ? 30 : ptr_reg(),
                       mem_off());
        return prfm(30, mem_off());
    }
    if (u < 0.94) { // vector memory
        if (rng.nextDouble() < 0.6)
            return vldr(vec_reg(), 30, mem_off());
        return vstr(vec_reg(), 30, mem_off());
    }
    return nop();
}

bool
genomesEqual(const std::vector<Instruction> &a_body, uint64_t a_seed,
             const std::vector<Instruction> &b_body, uint64_t b_seed)
{
    if (a_seed != b_seed || a_body.size() != b_body.size())
        return false;
    for (size_t i = 0; i < a_body.size(); ++i) {
        const Instruction &a = a_body[i];
        const Instruction &b = b_body[i];
        if (a.op != b.op || a.rd != b.rd || a.rn != b.rn ||
            a.rm != b.rm || a.imm != b.imm)
            return false;
    }
    return true;
}

} // namespace

/** One unique genome and the evaluations_ slot holding its result. */
struct GaGenerator::CacheEntry
{
    std::vector<Instruction> body;
    uint64_t dataSeed = 0;
    size_t slot = 0;
};

/** Fitness and captured frames of one simulated genome. */
struct GaGenerator::Evaluation
{
    double fitness = 0.0;
    std::vector<ActivityFrame> frames;
};

Status
GaConfig::validate() const
{
    if (populationSize < 4)
        return Status::invalidArgument("populationSize must be >= 4, got ",
                                       populationSize);
    if (elites >= populationSize)
        return Status::invalidArgument("elites (", elites,
                                       ") must be < populationSize (",
                                       populationSize, ")");
    if (tournamentSize == 0)
        return Status::invalidArgument("tournamentSize must be >= 1");
    if (generations == 0)
        return Status::invalidArgument("generations must be >= 1");
    if (bodyMinLen < 2 || bodyMaxLen < bodyMinLen)
        return Status::invalidArgument(
            "body length bounds invalid: min ", bodyMinLen, ", max ",
            bodyMaxLen, " (need 2 <= min <= max)");
    if (fitnessCycles == 0)
        return Status::invalidArgument("fitnessCycles must be >= 1");
    if (fitnessSignalStride == 0)
        return Status::invalidArgument(
            "fitnessSignalStride must be >= 1 (stride 0 would sample "
            "no signals and divide by zero)");
    if (threads > kMaxWorkerThreads)
        return Status::invalidArgument("threads must be at most ",
                                       kMaxWorkerThreads, ", got ",
                                       threads);
    return Status::okStatus();
}

GaGenerator::GaGenerator(const DatasetBuilder &builder,
                         const GaConfig &config)
    : builder_(builder), config_(config)
{
    const Status st = config.validate();
    APOLLO_REQUIRE(st.ok(), st.toString());
    fitness_ = std::make_unique<FitnessEvaluator>(
        builder.netlist(), builder.engine(), builder.oracle(),
        config.fitnessSignalStride);
}

GaGenerator::~GaGenerator() = default;

std::vector<Instruction>
GaGenerator::randomBody(Xoshiro256StarStar &rng, uint32_t min_len,
                        uint32_t max_len)
{
    const uint32_t len = min_len +
        static_cast<uint32_t>(rng.nextBounded(max_len - min_len + 1));
    std::vector<Instruction> body;
    body.reserve(len);
    for (uint32_t i = 0; i < len; ++i)
        body.push_back(randomInstruction(rng));
    return body;
}

GaIndividual
GaGenerator::randomIndividual(Xoshiro256StarStar &rng,
                              uint32_t generation) const
{
    GaIndividual ind;
    ind.body = randomBody(rng, config_.bodyMinLen, config_.bodyMaxLen);
    ind.dataSeed = rng();
    ind.generation = generation;
    return ind;
}

Program
GaGenerator::toProgram(const GaIndividual &ind, const std::string &name,
                       int iterations)
{
    return Program::makeLoop(name, ind.body, iterations, ind.dataSeed);
}

int
GaGenerator::fitnessIterations(size_t body_len, uint64_t fitness_cycles)
{
    // Trip count sized so the loop comfortably outlives the cycle
    // budget (the simulation is capped at fitnessCycles).
    return std::clamp<int>(
        static_cast<int>(5 * (fitness_cycles + 400) / body_len), 4,
        8000);
}

uint64_t
GaGenerator::genomeKey(const GaIndividual &ind)
{
    uint64_t h = hashMix(ind.dataSeed ^ 0x9a6e57e21c35ULL);
    for (const Instruction &inst : ind.body) {
        const uint64_t packed =
            (static_cast<uint64_t>(inst.op) << 56) |
            (static_cast<uint64_t>(inst.rd) << 48) |
            (static_cast<uint64_t>(inst.rn) << 40) |
            (static_cast<uint64_t>(inst.rm) << 32) |
            static_cast<uint64_t>(static_cast<uint32_t>(inst.imm));
        h = hashCombine(h, packed);
    }
    return h;
}

Xoshiro256StarStar
GaGenerator::slotStream(uint32_t generation, uint32_t slot) const
{
    // Counter-seeded per-slot streams: reproduction draws depend only
    // on (config seed, generation, slot), never on evaluation order —
    // the invariant that makes the trajectory thread-count-invariant.
    return Xoshiro256StarStar(
        hashCombine(config_.seed, hashCombine(generation, slot)));
}

const GaIndividual &
GaGenerator::tournament(const std::vector<GaIndividual> &pop,
                        Xoshiro256StarStar &rng) const
{
    const GaIndividual *winner =
        &pop[rng.nextBounded(pop.size())];
    for (uint32_t t = 1; t < config_.tournamentSize; ++t) {
        const GaIndividual *challenger =
            &pop[rng.nextBounded(pop.size())];
        if (challenger->avgPower > winner->avgPower)
            winner = challenger;
    }
    return *winner;
}

void
GaGenerator::mutate(GaIndividual &ind, Xoshiro256StarStar &rng) const
{
    for (Instruction &inst : ind.body) {
        if (rng.nextDouble() < config_.mutationRate)
            inst = randomInstruction(rng);
    }
    if (rng.nextDouble() < config_.mutationRate && ind.body.size() > 2) {
        // Swap two instructions (scheduling mutation).
        const size_t a = rng.nextBounded(ind.body.size());
        const size_t b = rng.nextBounded(ind.body.size());
        std::swap(ind.body[a], ind.body[b]);
    }
    if (rng.nextDouble() < config_.mutationRate)
        ind.dataSeed = rng();
    if (rng.nextDouble() < 0.5 * config_.mutationRate) {
        // Grow or shrink by one instruction within bounds.
        if (rng.nextDouble() < 0.5 &&
            ind.body.size() < config_.bodyMaxLen) {
            ind.body.insert(
                ind.body.begin() +
                    static_cast<long>(rng.nextBounded(ind.body.size())),
                randomInstruction(rng));
        } else if (ind.body.size() > config_.bodyMinLen) {
            ind.body.erase(
                ind.body.begin() +
                static_cast<long>(rng.nextBounded(ind.body.size())));
        }
    }
}

void
GaGenerator::evaluatePopulation(std::vector<GaIndividual> &population,
                                uint32_t generation)
{
    APOLLO_TRACE_SPAN("ga.generation");
    const GaRunStats before = stats_;
    const size_t pop_size = population.size();

    // Serial resolution pass (ascending slot): give every individual
    // the evaluations_ slot of its genome's result. A genome missing
    // from the cache gets the next fresh slot and is cached at once,
    // so a duplicate later in the same generation is a hit and the
    // genome is evaluated once. Counters and the miss list depend only
    // on slot order, so they are identical at any thread count.
    const size_t base = evaluations_.size();
    std::vector<size_t> slot_of(pop_size);
    std::vector<size_t> miss_slots;
    for (size_t k = 0; k < pop_size; ++k) {
        const GaIndividual &ind = population[k];
        std::vector<CacheEntry> &bucket = cache_[genomeKey(ind)];
        const auto hit = std::find_if(
            bucket.begin(), bucket.end(), [&](const CacheEntry &entry) {
                return genomesEqual(entry.body, entry.dataSeed, ind.body,
                                    ind.dataSeed);
            });
        if (hit != bucket.end()) {
            slot_of[k] = hit->slot;
            stats_.cacheHits++;
            continue;
        }
        slot_of[k] = base + miss_slots.size();
        bucket.push_back(CacheEntry{ind.body, ind.dataSeed, slot_of[k]});
        miss_slots.push_back(k);
        stats_.cacheMisses++;
    }

    // Parallel simulation of the unique misses: each evaluations_ slot
    // is written by exactly one worker, and no RNG is consumed.
    evaluations_.resize(base + miss_slots.size());
    ThreadPool &workers = config_.threads == 0
                              ? ThreadPool::global()
                              : (localPool_ ? *localPool_
                                            : *(localPool_ =
                                                    std::make_unique<
                                                        ThreadPool>(
                                                        config_.threads)));
    workers.parallelFor(miss_slots.size(), [&](size_t j0, size_t j1) {
        for (size_t j = j0; j < j1; ++j) {
            const GaIndividual &ind = population[miss_slots[j]];
            const Program prog = toProgram(
                ind, "ga",
                fitnessIterations(ind.body.size(),
                                  config_.fitnessCycles));
            Evaluation &r = evaluations_[base + j];
            r.frames.reserve(config_.fitnessCycles);
            TimingCore core(builder_.coreParams());
            core.run(prog, config_.fitnessCycles,
                     [&](const ActivityFrame &f) {
                         r.frames.push_back(f);
                     });
        }
    });

    // One fitness batch over the misses' windows: the timing core
    // stamps every window 0, 1, 2, ..., so they share every draw.
    if (!miss_slots.empty()) {
        APOLLO_TRACE_SPAN("gen.fitness_batch");
        std::vector<std::span<const ActivityFrame>> windows;
        windows.reserve(miss_slots.size());
        for (size_t j = base; j < evaluations_.size(); ++j)
            windows.push_back(evaluations_[j].frames);
        std::vector<std::vector<double>> powers;
        fitness_->cyclePowersBatch(windows, powers, &workers);
        for (size_t j = 0; j < miss_slots.size(); ++j)
            evaluations_[base + j].fitness = meanPower(powers[j]);
        APOLLO_COUNT("apollo.gen.fitness_batches", 1);
    }

    // Serial commit pass (miss order, then slot order).
    stats_.evaluations += miss_slots.size();
    for (size_t j = base; j < evaluations_.size(); ++j)
        stats_.simulatedCycles += evaluations_[j].frames.size();
    for (size_t k = 0; k < pop_size; ++k) {
        GaIndividual &ind = population[k];
        ind.generation = generation;
        ind.avgPower = evaluations_[slot_of[k]].fitness;
        ind.id = all_.size();
        slotOf_.push_back(slot_of[k]);
        all_.push_back(ind);
    }

    APOLLO_COUNT("apollo.ga.generations", 1);
    APOLLO_COUNT("apollo.ga.cache_hits",
                 stats_.cacheHits - before.cacheHits);
    APOLLO_COUNT("apollo.ga.cache_misses",
                 stats_.cacheMisses - before.cacheMisses);
    APOLLO_COUNT("apollo.ga.evaluations",
                 stats_.evaluations - before.evaluations);
    APOLLO_COUNT("apollo.ga.simulated_cycles",
                 stats_.simulatedCycles - before.simulatedCycles);
    APOLLO_GAUGE_SET("apollo.ga.frame_pool",
                     static_cast<double>(evaluations_.size()));
}

void
GaGenerator::run()
{
    all_.clear();
    slotOf_.clear();
    evaluations_.clear();
    cache_.clear();
    stats_ = GaRunStats{};

    std::vector<GaIndividual> population;
    population.reserve(config_.populationSize);
    for (uint32_t k = 0; k < config_.populationSize; ++k) {
        Xoshiro256StarStar rng = slotStream(0, k);
        population.push_back(randomIndividual(rng, 0));
    }

    for (uint32_t gen = 0; gen < config_.generations; ++gen) {
        evaluatePopulation(population, gen);

        if (gen + 1 == config_.generations)
            break;

        // Elitism + tournament reproduction. stable_sort keeps
        // equal-fitness order (duplicates are common once the cache
        // kicks in) independent of the sort implementation.
        std::vector<GaIndividual> sorted = population;
        std::stable_sort(sorted.begin(), sorted.end(),
                         [](const GaIndividual &a, const GaIndividual &b) {
                             return a.avgPower > b.avgPower;
                         });

        std::vector<GaIndividual> next;
        next.reserve(config_.populationSize);
        for (uint32_t e = 0; e < config_.elites; ++e)
            next.push_back(sorted[e]);

        for (uint32_t slot = config_.elites;
             slot < config_.populationSize; ++slot) {
            Xoshiro256StarStar rng = slotStream(gen + 1, slot);
            GaIndividual child = tournament(population, rng);
            if (rng.nextDouble() < config_.crossoverRate) {
                const GaIndividual &other = tournament(population, rng);
                // Single-point crossover on the bodies.
                const size_t cut_a =
                    1 + rng.nextBounded(child.body.size() - 1);
                const size_t cut_b =
                    1 + rng.nextBounded(other.body.size() - 1);
                std::vector<Instruction> merged(
                    child.body.begin(),
                    child.body.begin() + static_cast<long>(cut_a));
                merged.insert(merged.end(),
                              other.body.begin() +
                                  static_cast<long>(cut_b),
                              other.body.end());
                if (merged.size() > config_.bodyMaxLen)
                    merged.resize(config_.bodyMaxLen);
                if (merged.size() >= config_.bodyMinLen)
                    child.body = std::move(merged);
            }
            mutate(child, rng);
            next.push_back(std::move(child));
        }
        population = std::move(next);
    }
}

std::span<const ActivityFrame>
GaGenerator::capturedFrames(size_t id) const
{
    APOLLO_REQUIRE(id < slotOf_.size(), "unknown individual id");
    return evaluations_[slotOf_[id]].frames;
}

const GaIndividual &
GaGenerator::best() const
{
    APOLLO_REQUIRE(!all_.empty(), "run() first");
    const GaIndividual *best = &all_[0];
    for (const GaIndividual &ind : all_)
        if (ind.avgPower > best->avgPower)
            best = &ind;
    return *best;
}

double
GaGenerator::powerRangeRatio() const
{
    APOLLO_REQUIRE(!all_.empty(), "run() first");
    double lo = all_[0].avgPower;
    double hi = all_[0].avgPower;
    for (const GaIndividual &ind : all_) {
        lo = std::min(lo, ind.avgPower);
        hi = std::max(hi, ind.avgPower);
    }
    return lo > 0 ? hi / lo : 0.0;
}

std::vector<GaIndividual>
GaGenerator::selectTrainingSet(size_t count) const
{
    APOLLO_REQUIRE(!all_.empty(), "run() first");
    // Bucket individuals by power, then round-robin across buckets so
    // the selected subset covers the power range uniformly.
    const size_t n_bins = std::max<size_t>(8, count / 4);
    double lo = all_[0].avgPower, hi = all_[0].avgPower;
    for (const GaIndividual &ind : all_) {
        lo = std::min(lo, ind.avgPower);
        hi = std::max(hi, ind.avgPower);
    }
    const double width = std::max(1e-12, (hi - lo) / n_bins);

    std::vector<std::vector<const GaIndividual *>> bins(n_bins);
    for (const GaIndividual &ind : all_) {
        size_t b = static_cast<size_t>((ind.avgPower - lo) / width);
        b = std::min(b, n_bins - 1);
        bins[b].push_back(&ind);
    }

    std::vector<GaIndividual> selected;
    selected.reserve(count);
    size_t round = 0;
    while (selected.size() < count) {
        bool any = false;
        for (auto &bin : bins) {
            if (round < bin.size()) {
                selected.push_back(*bin[round]);
                any = true;
                if (selected.size() == count)
                    break;
            }
        }
        if (!any)
            break; // all bins exhausted
        round++;
    }
    return selected;
}

} // namespace apollo
