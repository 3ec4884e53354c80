/**
 * @file
 * The synthetic CPU core model.
 *
 * Execution is trace-driven in two phases that run lock-step:
 *
 *  - FunctionalExecutor runs the Program architecturally (real register
 *    and memory values), producing a stream of MicroOps annotated with
 *    addresses, branch outcomes, and data-toggle factors (hamming
 *    distances of produced values).
 *
 *  - TimingCore consumes that stream through a pipelined
 *    fetch/decode/issue/execute/retire model with I/D caches, a gshare
 *    branch predictor, a store buffer, per-unit structural hazards,
 *    scoreboard dependencies, per-unit clock gating, and optional issue
 *    throttling. It emits one ActivityFrame per cycle.
 *
 * The ActivityFrame stream is the single source of truth for RTL signal
 * toggling (activity engine) and hence ground-truth power (power oracle).
 */

#ifndef APOLLO_UARCH_CORE_HH
#define APOLLO_UARCH_CORE_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "isa/program.hh"
#include "uarch/activity_frame.hh"
#include "uarch/branch_predictor.hh"
#include "uarch/cache.hh"
#include "uarch/throttle.hh"

namespace apollo {

/** A dynamic instruction with architectural results attached. */
struct MicroOp
{
    Instruction inst;
    uint32_t pc = 0;
    uint64_t seq = 0;
    uint64_t addr = 0;      ///< effective address (memory ops)
    bool taken = false;     ///< branch outcome
    float dataToggle = 0.f; ///< hamming-based data activity, [0, 1]
};

/**
 * Architectural executor: runs a Program and streams MicroOps.
 * Registers are seeded from the program's dataSeed; memory reads of
 * untouched locations return deterministic hash values ("pre-initialized
 * memory").
 */
class FunctionalExecutor
{
  public:
    explicit FunctionalExecutor(const Program &prog);

    /** Produce the next dynamic op; false once the program exits. */
    bool next(MicroOp &out);

    uint64_t executedOps() const { return seq_; }

  private:
    uint64_t readMem(uint64_t addr);
    void writeMem(uint64_t addr, uint64_t value);

    const Program &prog_;
    size_t pc_ = 0;
    uint64_t seq_ = 0;
    uint64_t x_[numScalarRegs] = {};
    uint64_t v_[numVectorRegs][vectorLanes] = {};
    std::unordered_map<uint64_t, uint64_t> mem_;
    uint64_t memSeed_ = 0;
    /** Last value produced per exec class, for hamming toggles. */
    uint64_t lastValue_[6] = {};
    uint64_t lastAddr_ = 0;
};

/** Core configuration. */
struct CoreParams
{
    uint32_t fetchWidth = 4;
    uint32_t decodeWidth = 4;
    uint32_t issueWidth = 4;
    uint32_t retireWidth = 4;
    uint32_t fetchQueueSize = 16;
    uint32_t issueWindow = 40;
    uint32_t robSize = 96;
    uint32_t storeBufferSize = 12;
    uint32_t numAlus = 3;
    uint32_t numVecPipes = 2;
    uint32_t numLsuPorts = 2;
    uint32_t aluLatency = 1;
    uint32_t mulLatency = 3;
    uint32_t divLatency = 12;
    uint32_t vaddLatency = 2;
    uint32_t vmulLatency = 3;
    uint32_t vfmaLatency = 4;
    uint32_t mispredictPenalty = 8;
    uint32_t gateAfterIdle = 2;
    /**
     * Cycles simulated before recording starts: cold caches, an
     * untrained predictor, and the initial ROB fill would otherwise
     * pollute every power measurement window (sign-off flows warm up
     * the same way). Frames are emitted and stats.cycles/retiredOps
     * counted only after warmup.
     */
    uint64_t warmupCycles = 256;
    CacheParams l1i{32 * 1024, 4, 64, 2, 2, 0};
    CacheParams l1d{32 * 1024, 4, 64, 3, 4, 0};
    CacheParams l2{512 * 1024, 8, 64, 12, 8, 80};
    ThrottleMode throttle = ThrottleMode::None;

    static CoreParams defaults() { return {}; }
};

/** Run statistics. */
struct CoreStats
{
    uint64_t cycles = 0;
    uint64_t retiredOps = 0;
    uint64_t branches = 0;
    uint64_t mispredicts = 0;
    uint64_t l1iMisses = 0;
    uint64_t l1dMisses = 0;
    uint64_t l2Misses = 0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(retiredOps) / cycles : 0.0;
    }
};

/** Per-cycle frame consumer. */
using FrameSink = std::function<void(const ActivityFrame &)>;

/**
 * Runtime control callback, invoked once per *recorded* cycle right
 * after the frame is sunk. @p cycle is the 0-based recorded cycle
 * index (matching the sink's frame stream). The hook may mutate the
 * core's Throttle (engage/release a pulsed scheme); the change takes
 * effect from the next cycle's issue stage — this is how a droop
 * controller (src/control) closes the OPM -> issue loop.
 */
using ControlHook = std::function<void(const ActivityFrame &,
                                       uint64_t cycle, Throttle &)>;

/** The timing model. One instance simulates one program end-to-end. */
class TimingCore
{
  public:
    explicit TimingCore(const CoreParams &params = CoreParams::defaults());

    /**
     * Simulate @p prog, invoking @p sink once per *recorded* cycle (at
     * most @p max_cycles of them, after params.warmupCycles of
     * unrecorded warmup). Returns run statistics over the recorded
     * window.
     */
    CoreStats run(const Program &prog, uint64_t max_cycles,
                  const FrameSink &sink);

    /** As above, with a per-recorded-cycle control hook that may pulse
     *  the issue throttle at runtime (empty hook = uncontrolled run). */
    CoreStats run(const Program &prog, uint64_t max_cycles,
                  const FrameSink &sink, const ControlHook &control);

    /** Convenience: simulate and collect all frames. */
    std::vector<ActivityFrame> collectFrames(const Program &prog,
                                             uint64_t max_cycles);

  private:
    CoreParams params_;
};

} // namespace apollo

#endif // APOLLO_UARCH_CORE_HH
