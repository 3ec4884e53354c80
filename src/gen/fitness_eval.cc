#include "gen/fitness_eval.hh"

#include <algorithm>
#include <bit>
#include <functional>

#include "util/logging.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace apollo {

namespace {

/** Hash of every field of every frame (floats by their bits). */
uint64_t
runHash(std::span<const ActivityFrame> frames)
{
    uint64_t h = hashMix(frames.size());
    for (const ActivityFrame &f : frames) {
        uint64_t enabled = 0;
        uint64_t x = f.cycle;
        for (size_t u = 0; u < numUnits; ++u) {
            enabled |= static_cast<uint64_t>(f.clockEnabled[u]) << u;
            x = (x * 0x100000001b3ULL) ^
                ((static_cast<uint64_t>(
                      std::bit_cast<uint32_t>(f.activity[u]))
                  << 32) |
                 std::bit_cast<uint32_t>(f.dataToggle[u]));
        }
        h = hashCombine(h, x ^ enabled);
    }
    return h;
}

/** Field-wise equality; frames carry padding, so no byte compare. */
bool
runsEqual(std::span<const ActivityFrame> a, std::span<const ActivityFrame> b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        const ActivityFrame &x = a[i];
        const ActivityFrame &y = b[i];
        if (x.cycle != y.cycle || x.clockEnabled != y.clockEnabled)
            return false;
        for (size_t u = 0; u < numUnits; ++u)
            if (std::bit_cast<uint32_t>(x.activity[u]) !=
                    std::bit_cast<uint32_t>(y.activity[u]) ||
                std::bit_cast<uint32_t>(x.dataToggle[u]) !=
                    std::bit_cast<uint32_t>(y.dataToggle[u]))
                return false;
    }
    return true;
}

/** body(0, n) on the calling thread, or over @p pool when given. */
void
forRange(ThreadPool *pool, size_t n,
         const std::function<void(size_t, size_t)> &body)
{
    if (pool)
        pool->parallelFor(n, body);
    else
        body(0, n);
}

} // namespace

FitnessEvaluator::FitnessEvaluator(const Netlist &netlist,
                                   const ActivityEngine &engine,
                                   const PowerOracle &oracle,
                                   uint32_t signal_stride)
    : stride_(signal_stride), gen_(engine), acc_(netlist, oracle)
{
    APOLLO_REQUIRE(signal_stride >= 1, "stride must be positive");
    for (size_t j = 0; j < netlist.signalCount(); j += stride_)
        sigIds_.push_back(static_cast<uint32_t>(j));
}

FitnessEvaluator::BatchStats
FitnessEvaluator::cyclePowersBatch(
    std::span<const std::span<const ActivityFrame>> runs,
    std::vector<std::vector<double>> &out, ThreadPool *pool) const
{
    const size_t n_runs = runs.size();
    out.resize(n_runs);
    BatchStats stats;

    // Dedupe: a run equal to an earlier one copies its powers.
    std::vector<uint64_t> hashes(n_runs);
    std::vector<size_t> copy_of(n_runs, n_runs);
    std::vector<size_t> distinct;
    size_t longest = 0;
    for (size_t r = 0; r < n_runs; ++r) {
        out[r].resize(runs[r].size());
        if (runs[r].empty())
            continue;
        hashes[r] = runHash(runs[r]);
        for (const size_t d : distinct) {
            if (hashes[d] == hashes[r] && runsEqual(runs[d], runs[r])) {
                copy_of[r] = d;
                break;
            }
        }
        if (copy_of[r] != n_runs) {
            stats.duplicates++;
            continue;
        }
        distinct.push_back(r);
        longest = std::max(longest, runs[r].size());
    }
    stats.scored = distinct.size();

    // Tiles: 64-aligned row blocks, each over every distinct run that
    // reaches it. A tile fills kChunkColumns signals' columns for every
    // run, then adds them to each run's sums.
    const size_t block =
        toggleBlockRows(longest, pool ? pool->threadCount() : 1);
    const size_t chunk = LabelAccumulator::kChunkColumns;
    const auto scale = static_cast<double>(stride_);
    forRange(pool, (longest + block - 1) / block, [&](size_t t0, size_t t1) {
        ToggleColumnGenerator gen(gen_);
        std::vector<LabelAccumulator> accs;
        std::vector<std::span<const ActivityFrame>> bound;
        std::vector<size_t> ids;
        std::vector<uint64_t> cols;
        std::vector<uint64_t *> outs;
        for (size_t t = t0; t < t1; ++t) {
            const size_t row0 = t * block;
            const size_t count = std::min(block, longest - row0);
            bound.clear();
            ids.clear();
            for (const size_t r : distinct) {
                if (runs[r].size() > row0) {
                    ids.push_back(r);
                    bound.push_back(runs[r]);
                }
            }
            gen.bindRuns(bound, row0, count);
            const size_t words = gen.wordCount();
            cols.resize(bound.size() * chunk * words);
            outs.resize(bound.size());
            accs.resize(bound.size(), acc_);
            for (size_t k = 0; k < bound.size(); ++k)
                accs[k].begin(bound[k].subspan(
                    row0, std::min(count, bound[k].size() - row0)));
            for (size_t c0 = 0; c0 < sigIds_.size(); c0 += chunk) {
                const std::span<const uint32_t> sigs = std::span(
                    sigIds_).subspan(c0, std::min(chunk, sigIds_.size() - c0));
                for (size_t c = 0; c < sigs.size(); ++c) {
                    for (size_t k = 0; k < bound.size(); ++k)
                        outs[k] = cols.data() + (k * chunk + c) * words;
                    gen.fillColumns(sigs[c], outs.data());
                }
                for (size_t k = 0; k < bound.size(); ++k)
                    accs[k].add(sigs, cols.data() + k * chunk * words,
                                words);
            }
            for (size_t k = 0; k < bound.size(); ++k)
                accs[k].finish(scale, row0, out[ids[k]].data() + row0);
        }
    });

    for (size_t r = 0; r < n_runs; ++r)
        if (copy_of[r] != n_runs)
            out[r] = out[copy_of[r]];
    return stats;
}

void
FitnessEvaluator::cyclePowers(std::span<const ActivityFrame> frames,
                              std::vector<double> &out) const
{
    const std::span<const ActivityFrame> run[] = {frames};
    std::vector<std::vector<double>> powers;
    cyclePowersBatch(run, powers, nullptr);
    out = std::move(powers[0]);
}

double
FitnessEvaluator::averagePower(std::span<const ActivityFrame> frames) const
{
    std::vector<double> powers;
    cyclePowers(frames, powers);
    return meanPower(powers);
}

double
meanPower(std::span<const double> powers)
{
    if (powers.empty())
        return 0.0;
    double total = 0.0;
    for (const double p : powers)
        total += p;
    return total / static_cast<double>(powers.size());
}

} // namespace apollo
