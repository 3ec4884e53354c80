/**
 * @file
 * Timing-core perf bench: times TimingCore::run, the flat production
 * core (docs/INTERNALS.md §15), against ref::coreRun, the per-cycle
 * loop it replaced, on
 *
 *   long0..long3  the four programs of bench/e2e's emulate_long
 *                 workload (seed 1), 1M cycles each (50k in smoke
 *                 mode);
 *   suite         the 12-program designer test suite (Table 4), each
 *                 program under its own throttle mode.
 *
 * Each workload runs with a no-op sink and with a collecting sink that
 * appends every frame to a vector reserved for the run, as
 * DatasetBuilder::addProgram does for emulate_long. Times are the
 * minimum over --reps repetitions.
 *
 * Gate (exit 1 with a FAIL: line): on every workload, the production
 * core's CoreStats counters equal the reference's, and so does a hash
 * over every field of every collected frame (smoke mode too; the
 * UarchCore tests and the uarch.core_frames oracle compare the fields
 * themselves).
 *
 * Results go to BENCH_uarch.json, headed by the host/build identity of
 * bench/common's hostJson().
 *
 * Usage: bench_perf_uarch [--smoke] [--reps=N] [--out=PATH]
 */

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hh"
#include "ref/reference_core.hh"

using namespace apollo;
using namespace apollo::bench;

namespace {

using Clock = std::chrono::steady_clock;

/** One program run of a workload. */
struct Job
{
    Program program;
    CoreParams params;
    uint64_t maxCycles = 0;
};

struct Workload
{
    std::string name;
    std::vector<Job> jobs;
};

/** Simulates one job through one core; returns its stats. */
using CoreFn = CoreStats (*)(const Job &, const FrameSink &);

CoreStats
runFlat(const Job &job, const FrameSink &sink)
{
    return TimingCore(job.params).run(job.program, job.maxCycles, sink);
}

CoreStats
runReference(const Job &job, const FrameSink &sink)
{
    return ref::coreRun(job.params, job.program, job.maxCycles, sink);
}

bool
sameStats(const CoreStats &a, const CoreStats &b)
{
    return a.cycles == b.cycles && a.retiredOps == b.retiredOps &&
           a.branches == b.branches && a.mispredicts == b.mispredicts &&
           a.l1iMisses == b.l1iMisses && a.l1dMisses == b.l1dMisses &&
           a.l2Misses == b.l2Misses;
}

/** Hash of every frame field (ActivityFrame has padding bytes). */
uint64_t
frameHash(const std::vector<ActivityFrame> &frames)
{
    uint64_t h = frames.size();
    for (const ActivityFrame &f : frames) {
        h = hashCombine(h, f.cycle);
        for (size_t u = 0; u < numUnits; ++u) {
            h = hashCombine(h, std::bit_cast<uint32_t>(f.activity[u]));
            h = hashCombine(h, std::bit_cast<uint32_t>(f.dataToggle[u]));
            h = hashCombine(h, f.clockEnabled[u]);
        }
    }
    return h;
}

/** What one (workload, core, sink) cell measured. */
struct Cell
{
    double seconds = 0.0;
    uint64_t cycles = 0;
    std::vector<CoreStats> stats;
    uint64_t frameHash = 0; ///< collecting sink only
};

Cell
measure(const Workload &w, CoreFn core, bool collect, int reps)
{
    Cell cell;
    uint64_t total = 0;
    for (const Job &job : w.jobs)
        total += job.maxCycles;
    for (int r = 0; r < reps; ++r) {
        std::vector<CoreStats> stats;
        std::vector<ActivityFrame> frames;
        if (collect)
            frames.reserve(total);
        const FrameSink sink =
            collect ? FrameSink([&](const ActivityFrame &f) {
                frames.push_back(f);
            })
                    : FrameSink([](const ActivityFrame &) {});
        const auto t0 = Clock::now();
        for (const Job &job : w.jobs)
            stats.push_back(core(job, sink));
        const double s =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (r == 0 || s < cell.seconds)
            cell.seconds = s;
        cell.stats = std::move(stats);
        cell.frameHash = frameHash(frames);
    }
    for (const CoreStats &st : cell.stats)
        cell.cycles += st.cycles;
    return cell;
}

std::vector<Workload>
workloads(uint64_t long_cycles)
{
    std::vector<Workload> out;
    for (uint64_t i = 0; i < 4; ++i) {
        const std::string name = "long" + std::to_string(i);
        Workload w{name, {}};
        // bench/e2e's emulate_long programs for --seed=1.
        w.jobs.push_back({makeLongWorkload(name, 1'000'000, 0x10119 + i),
                          CoreParams::defaults(), long_cycles});
        out.push_back(std::move(w));
    }
    Workload suite{"suite", {}};
    for (const TestBenchmark &tb : designerTestSuite()) {
        CoreParams params;
        params.throttle = tb.throttle;
        suite.jobs.push_back({tb.program, params, tb.cycles});
    }
    out.push_back(std::move(suite));
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    int reps = 3;
    std::string out = "BENCH_uarch.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strncmp(argv[i], "--reps=", 7) == 0)
            reps = std::max(1, std::atoi(argv[i] + 7));
        else if (std::strncmp(argv[i], "--out=", 6) == 0)
            out = argv[i] + 6;
    }
    if (smoke)
        reps = 1;
    const uint64_t long_cycles = smoke ? 50'000 : 1'000'000;
    const std::string host = hostJson();
    std::printf("bench_perf_uarch: %s reps=%d long_cycles=%llu\n# host %s\n",
                smoke ? "smoke" : "full", reps,
                static_cast<unsigned long long>(long_cycles),
                host.c_str());

    const auto obs_before = obsCounters();
    std::ostringstream rows;
    bool identical = true;
    double flat_total[2] = {0.0, 0.0};
    double ref_total[2] = {0.0, 0.0};
    bool first_row = true;
    for (const Workload &w : workloads(long_cycles)) {
        for (const bool collect : {false, true}) {
            const Cell flat = measure(w, runFlat, collect, reps);
            const Cell ref = measure(w, runReference, collect, reps);
            bool same = flat.stats.size() == ref.stats.size() &&
                        flat.frameHash == ref.frameHash;
            for (size_t j = 0; same && j < flat.stats.size(); ++j)
                same = sameStats(flat.stats[j], ref.stats[j]);
            identical = identical && same;
            flat_total[collect] += flat.seconds;
            ref_total[collect] += ref.seconds;

            const char *sink = collect ? "collect" : "noop";
            std::printf("  %-6s %-8s flat %8.3f s (%6.2f Mcyc/s)  ref "
                        "%8.3f s (%6.2f Mcyc/s)  %.2fx  %s\n",
                        w.name.c_str(), sink, flat.seconds,
                        flat.cycles / flat.seconds / 1e6, ref.seconds,
                        ref.cycles / ref.seconds / 1e6,
                        ref.seconds / flat.seconds,
                        same ? "identical" : "MISMATCH");
            rows << (first_row ? "" : ",\n") << "    {\"workload\": \""
                 << w.name << "\", \"sink\": \"" << sink
                 << "\", \"cycles\": " << flat.cycles
                 << ", \"flat_seconds\": " << flat.seconds
                 << ", \"ref_seconds\": " << ref.seconds
                 << ", \"flat_mcyc_per_s\": "
                 << flat.cycles / flat.seconds / 1e6
                 << ", \"ref_mcyc_per_s\": "
                 << ref.cycles / ref.seconds / 1e6
                 << ", \"speedup\": " << ref.seconds / flat.seconds
                 << ", \"identical\": " << (same ? "true" : "false")
                 << "}";
            first_row = false;
        }
    }
    const double speedup_noop = ref_total[0] / flat_total[0];
    const double speedup_collect = ref_total[1] / flat_total[1];
    std::printf("total speedup (reference / flat): noop %.2fx, collect "
                "%.2fx\n",
                speedup_noop, speedup_collect);

    std::ofstream os(out);
    os << "{\n  \"bench\": \"perf_uarch\",\n  \"mode\": \""
       << (smoke ? "smoke" : "full") << "\",\n  \"host\": " << host
       << ",\n  \"reps\": " << reps << ",\n  \"long_cycles\": "
       << long_cycles << ",\n  \"rows\": [\n"
       << rows.str() << "\n  ],\n  \"speedup_noop\": " << speedup_noop
       << ",\n  \"speedup_collect\": " << speedup_collect
       << ",\n  \"frames_match_reference\": "
       << (identical ? "true" : "false")
       << ",\n  \"obs\": " << obsDeltaJson(obs_before) << "\n}\n";
    std::printf("wrote %s\n", out.c_str());

    if (!identical) {
        std::fprintf(stderr, "FAIL: the flat core's frames or stats "
                             "differ from ref::coreRun\n");
        return 1;
    }
    return 0;
}
