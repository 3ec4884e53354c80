/**
 * @file
 * Shared experiment context for the bench harnesses: the target design,
 * the GA-generated training dataset (§7.1: power-uniform selection from
 * the GA population), the designer test suite dataset (Table 4), and
 * the flip-flop id list for PRIMAL-class baselines.
 *
 * The context is cached on disk (build tree) after the first bench
 * builds it, so every table/figure binary starts from identical data.
 * Set APOLLO_BENCH_FAST=1 for reduced budgets during development.
 */

#ifndef APOLLO_BENCH_COMMON_HH
#define APOLLO_BENCH_COMMON_HH

#include <map>
#include <string>
#include <vector>

#include "apollo.hh"

namespace apollo::bench {

/** Which design a bench targets. */
enum class Design
{
    N1ish,
    A77ish,
};

/** The shared experiment inputs. */
struct Context
{
    Netlist netlist;
    Dataset train;
    Dataset test;
    /** Flip-flop signal ids (PRIMAL input space). */
    std::vector<uint32_t> flipflopIds;
    bool fast = false;

    double qOverM(size_t q) const
    {
        return static_cast<double>(q) / netlist.signalCount();
    }
};

/** Build (or load from cache) the context for @p design. */
Context loadContext(Design design);

/**
 * The shared Fig. 3 GA configuration (§4.1 budgets), the single
 * source of truth for every bench and tool that runs the GA.
 * @p full_generations sets the non-fast generation count (Fig. 3
 * plots 12; the training contexts use 10).
 */
GaConfig benchGaConfig(bool fast, uint32_t full_generations = 10);

/** Training-export budgets shared by the context builders. */
struct TrainExportBudget
{
    size_t benchmarks = 0;
    uint64_t cyclesEach = 0;
};
TrainExportBudget benchTrainBudget(Design design, bool fast);

/**
 * The host and build a BENCH_*.json was recorded on, as one JSON object
 * on a single line: nproc, the dispatched popcount, toggle, bit-dot
 * and label-order power kernels, compiler, flags and git revision (a
 * superset of the header bench/e2e/run.py prints; the revision ends
 * in "-dirty" when the tree has uncommitted changes).
 */
std::string hostJson();

/** True when APOLLO_BENCH_FAST=1. */
bool fastMode();

/** Paper-style header line for a bench. */
void printHeader(const std::string &experiment_id,
                 const std::string &description, const Context &ctx);

/** Train APOLLO at the given Q with the paper's settings. */
ApolloTrainResult trainApolloAtQ(const Context &ctx, size_t q);

/**
 * Current obs counter values (empty when the build has APOLLO_OBS=0 or
 * the registry is runtime-disabled). Snapshot one at the start of the
 * measured region and pass it to obsDeltaJson() when writing results.
 */
std::map<std::string, uint64_t> obsCounters();

/**
 * Render counter deltas since @p before as one JSON object on a single
 * line, e.g. `{"apollo.solver.fits": 12}` — the "obs" section of the
 * BENCH_*.json files. Unchanged counters are omitted.
 */
std::string obsDeltaJson(const std::map<std::string, uint64_t> &before);

} // namespace apollo::bench

#endif // APOLLO_BENCH_COMMON_HH
