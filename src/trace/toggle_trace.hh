/**
 * @file
 * DatasetBuilder: runs programs on the timing core, keeps the per-cycle
 * ActivityFrame stream, and materializes toggle features plus
 * ground-truth power labels (the "commercial flow" of Fig. 7(a)).
 *
 * Also provides proxy-only tracing (traceProxies) — the emulator-
 * assisted flow of Fig. 7(c): only the Q proxy columns are generated, at
 * cost proportional to Q rather than M, and the produced bits are
 * guaranteed identical to the corresponding columns of a full trace
 * (see ActivityEngine's statelessness contract).
 */

#ifndef APOLLO_TRACE_TOGGLE_TRACE_HH
#define APOLLO_TRACE_TOGGLE_TRACE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "activity/activity_engine.hh"
#include "power/power_oracle.hh"
#include "trace/dataset.hh"
#include "uarch/core.hh"

namespace apollo {

/** Builds per-cycle datasets from program runs. */
class DatasetBuilder
{
  public:
    DatasetBuilder(const Netlist &netlist,
                   const CoreParams &core_params = CoreParams::defaults(),
                   const PowerParams &power_params = PowerParams{});

    /** Simulate @p prog (capped at @p max_cycles) and append frames. */
    CoreStats addProgram(const Program &prog, uint64_t max_cycles);

    /** Same, but override the core's throttle mode for this program. */
    CoreStats addProgram(const Program &prog, uint64_t max_cycles,
                         ThrottleMode throttle);

    /**
     * Append already-simulated frames as a new segment named @p name —
     * the single-pass export path: frames captured during GA fitness
     * simulation are reused here instead of re-simulating the program
     * (bit-identical, since the timing core is deterministic).
     */
    void addFrames(const std::string &name,
                   std::span<const ActivityFrame> frames);

    /** Frames collected so far. */
    const std::vector<ActivityFrame> &frames() const { return frames_; }
    const std::vector<SegmentInfo> &segments() const { return segments_; }

    /**
     * Materialize features for all M signals plus power labels: y[i]
     * is the float of LabelAccumulator's power of row i with key i, so
     * no label depends on the pool size. The builder can keep
     * accepting programs and build() can be called repeatedly.
     */
    Dataset build() const;

    const Netlist &netlist() const { return netlist_; }
    const CoreParams &coreParams() const { return coreParams_; }
    const ActivityEngine &engine() const { return engine_; }
    const PowerOracle &oracle() const { return oracle_; }

    /**
     * Emulator-assisted proxy-only trace: toggle bits of just
     * @p proxy_ids over @p frames (cost O(cycles * Q)).
     * @p segment_begin_of maps cycle -> its segment's first cycle
     * (empty: one segment; FatalError if malformed).
     */
    static BitColumnMatrix traceProxies(
        const ActivityEngine &engine,
        std::span<const ActivityFrame> frames,
        std::span<const uint32_t> proxy_ids,
        std::span<const uint32_t> segment_begin_of);

    /** Per-cycle segment-begin table for the frames collected so far. */
    std::vector<uint32_t> segmentBeginTable() const;

  private:
    const Netlist &netlist_;
    CoreParams coreParams_;
    ActivityEngine engine_;
    PowerOracle oracle_;
    std::vector<ActivityFrame> frames_;
    std::vector<SegmentInfo> segments_;
};

} // namespace apollo

#endif // APOLLO_TRACE_TOGGLE_TRACE_HH
