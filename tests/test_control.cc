/**
 * @file
 * Tests for the closed-loop droop-mitigation stack (src/control, §7 /
 * §8.2): the pulsed Throttle interface, the DroopController state
 * machine, the ClosedLoopRunner, and the runDroopLab scenario sweep —
 * including the determinism and analytic-vs-real differential checks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <sstream>

#include "apollo.hh"
#include "ref/reference_control.hh"

namespace apollo {
namespace {

using control::ClosedLoopConfig;
using control::ClosedLoopResult;
using control::ClosedLoopRunner;
using control::DroopController;
using control::DroopControllerConfig;
using control::DroopLabConfig;
using control::DroopLabReport;
using control::DroopLabRow;
using control::DroopLabWorkload;
using control::PdnScenario;
using control::defaultDroopLabConfig;
using control::TriggerState;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------
// Throttle: pulsed engage/release and the Scheme3 vec_width clamp.
// ---------------------------------------------------------------------

TEST(ControlThrottle, Scheme3ClampsToVectorWidth)
{
    // Regression: Scheme3 used to grant 1 vector op on even cycles
    // regardless of the machine's vector width, so a scalar-only core
    // (vec_width == 0) was told it could issue a vector op.
    Throttle t(ThrottleMode::Scheme3);
    for (uint64_t cycle = 0; cycle < 8; ++cycle)
        EXPECT_EQ(t.maxVectorIssue(cycle, 0), 0u) << "cycle " << cycle;
    EXPECT_EQ(t.maxVectorIssue(0, 4), 1u);
    EXPECT_EQ(t.maxVectorIssue(1, 4), 0u);
    EXPECT_EQ(t.maxVectorIssue(2, 1), 1u);
}

TEST(ControlThrottle, EngageTightensReleaseRestores)
{
    Throttle t(ThrottleMode::Scheme1); // base: issue capped at 2
    EXPECT_FALSE(t.engaged());
    EXPECT_EQ(t.maxIssue(0, 8), 2u);

    t.engage(ThrottleMode::Proportional, 1);
    EXPECT_TRUE(t.engaged());
    EXPECT_EQ(t.pulsedMode(), ThrottleMode::Proportional);
    // Effective limit is the tighter of base and pulsed.
    EXPECT_EQ(t.maxIssue(0, 8), 1u);

    // Re-engaging replaces the pulsed constraint.
    t.engage(ThrottleMode::Scheme2);
    EXPECT_EQ(t.maxIssue(3, 8), 0u); // duty-cycle blocked cycle
    EXPECT_EQ(t.maxIssue(2, 8), 2u); // base Scheme1 still caps at 2

    t.release();
    EXPECT_FALSE(t.engaged());
    EXPECT_EQ(t.maxIssue(3, 8), 2u);
}

TEST(ControlThrottle, PulsedScheme3LimitsVectorsOnUnthrottledBase)
{
    Throttle t; // base: None
    EXPECT_EQ(t.maxVectorIssue(0, 4), 4u);
    t.engage(ThrottleMode::Scheme3);
    EXPECT_EQ(t.maxVectorIssue(0, 4), 1u);
    EXPECT_EQ(t.maxVectorIssue(1, 4), 0u);
    EXPECT_EQ(t.maxVectorIssue(0, 0), 0u);
    t.release();
    EXPECT_EQ(t.maxVectorIssue(1, 4), 4u);
}

// ---------------------------------------------------------------------
// DroopController state machine.
// ---------------------------------------------------------------------

DroopControllerConfig
controllerConfig(double trigger_delta, uint32_t latency,
                 uint32_t engage_cycles,
                 ThrottleMode policy = ThrottleMode::Scheme1)
{
    DroopControllerConfig cfg;
    cfg.vdd = 1.0; // current == power, keeps the arithmetic readable
    cfg.triggerDelta = trigger_delta;
    cfg.triggerLatency = latency;
    cfg.engageCycles = engage_cycles;
    cfg.policy = policy;
    return cfg;
}

/** Drive the controller over a per-cycle power stream; returns the
 *  decision cycles c where the throttle constrains cycle c + 1. */
std::vector<uint64_t>
engagedDecisionCycles(DroopController &ctl,
                      std::span<const double> power)
{
    Throttle throttle;
    std::vector<uint64_t> engaged;
    for (size_t c = 0; c < power.size(); ++c) {
        ctl.observe(c, power[c]);
        ctl.apply(c, throttle);
        if (throttle.engaged())
            engaged.push_back(c);
    }
    return engaged;
}

TEST(ControlDroopController, TriggerSchedulesWindowAfterLatency)
{
    // Trigger at cycle 2 (delta 2.0 > 0.5), latency 2, engage 3:
    // constrained cycles are [2+1+2, 2+2+3] = [5, 7], so the throttle
    // is engaged after the decisions at cycles 4, 5, 6.
    DroopController ctl(controllerConfig(0.5, 2, 3));
    const std::vector<double> power = {0.0, 0.0, 2.0, 2.0, 2.0,
                                       2.0, 2.0, 2.0, 2.0, 2.0};
    const std::vector<uint64_t> engaged =
        engagedDecisionCycles(ctl, power);
    EXPECT_EQ(engaged, (std::vector<uint64_t>{4, 5, 6}));
    EXPECT_EQ(ctl.triggers(), 1u);
    EXPECT_EQ(ctl.engagedCycles(), 3u);
    EXPECT_EQ(ctl.state(), TriggerState::Idle);
}

TEST(ControlDroopController, RetriggerExtendsTheSingleWindow)
{
    // Triggers at cycles 2 and 4 with latency 0, engage 2: the first
    // window constrains [3, 4]; the retrigger at 4 lands inside it and
    // stretches the release to [5, 6] — one window, decisions [2, 5].
    DroopController ctl(controllerConfig(0.5, 0, 2));
    const std::vector<double> power = {0.0, 0.0, 2.0, 2.0,
                                       4.0, 4.0, 4.0, 4.0};
    const std::vector<uint64_t> engaged =
        engagedDecisionCycles(ctl, power);
    EXPECT_EQ(engaged, (std::vector<uint64_t>{2, 3, 4, 5}));
    EXPECT_EQ(ctl.triggers(), 2u);
    EXPECT_EQ(ctl.engagedCycles(), 4u);
}

TEST(ControlDroopController, NegativeDeltasNeverTrigger)
{
    DroopController ctl(controllerConfig(0.5, 0, 2));
    const std::vector<double> power = {4.0, 3.0, 2.0, 1.0, 0.5, 0.1};
    EXPECT_TRUE(engagedDecisionCycles(ctl, power).empty());
    EXPECT_EQ(ctl.triggers(), 0u);
}

TEST(ControlDroopController, PolicyNoneObservesButNeverEngages)
{
    DroopControllerConfig cfg;
    cfg.vdd = 1.0;
    cfg.policy = ThrottleMode::None;
    ASSERT_TRUE(cfg.validate().ok());
    DroopController ctl(cfg);
    const std::vector<double> power = {0.0, 10.0, 0.0, 10.0};
    EXPECT_TRUE(engagedDecisionCycles(ctl, power).empty());
    EXPECT_EQ(ctl.triggers(), 0u);
    EXPECT_EQ(ctl.engagedCycles(), 0u);
}

TEST(ControlDroopController, ValidateRejectsBadConfigs)
{
    DroopControllerConfig cfg = controllerConfig(0.5, 2, 6);
    EXPECT_TRUE(cfg.validate().ok());

    cfg.vdd = 0.0;
    EXPECT_FALSE(cfg.validate().ok());
    cfg.vdd = 1.0;

    cfg.triggerDelta = 0.0;
    EXPECT_FALSE(cfg.validate().ok());
    cfg.triggerDelta = -1.0;
    EXPECT_FALSE(cfg.validate().ok());
    cfg.triggerDelta = 0.5;

    cfg.engageCycles = 0;
    EXPECT_FALSE(cfg.validate().ok());
    cfg.engageCycles = 6;

    cfg.policy = ThrottleMode::Proportional;
    cfg.proportionalLevel = 0;
    EXPECT_FALSE(cfg.validate().ok());

    // NaN passes a `<= 0` test; every field rejects it and infinities.
    for (const double v : {kNan, kInf, -kInf}) {
        DroopControllerConfig nan_vdd = controllerConfig(0.5, 2, 6);
        nan_vdd.vdd = v;
        EXPECT_FALSE(nan_vdd.validate().ok()) << v;
        DroopControllerConfig nan_delta = controllerConfig(0.5, 2, 6);
        nan_delta.triggerDelta = v;
        EXPECT_FALSE(nan_delta.validate().ok()) << v;
    }

    DroopControllerConfig bad = controllerConfig(0.0, 2, 6);
    EXPECT_THROW(DroopController{bad}, FatalError);
}

// ---------------------------------------------------------------------
// Droop-analysis helpers: percentileCut and the mitigation-parameter
// validation added to simulateWithMitigation.
// ---------------------------------------------------------------------

TEST(DroopPercentile, NearestRankCut)
{
    const std::vector<double> v = {5.0, 1.0, 3.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(percentileCut(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentileCut(v, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(percentileCut(v, 1.0), 5.0);
    // Index clamps to the last element for q just under 1.
    EXPECT_DOUBLE_EQ(percentileCut(v, 0.999), 4.0);
    const std::vector<double> one = {7.0};
    EXPECT_DOUBLE_EQ(percentileCut(one, 0.0), 7.0);
    EXPECT_DOUBLE_EQ(percentileCut(one, 1.0), 7.0);
}

TEST(DroopPercentile, RejectsEmptyAndOutOfRange)
{
    const std::vector<double> v = {1.0, 2.0};
    EXPECT_THROW(percentileCut({}, 0.5), FatalError);
    EXPECT_THROW(percentileCut(v, -0.1), FatalError);
    EXPECT_THROW(percentileCut(v, 1.1), FatalError);
    // `<` orders no NaN, so the cut is undefined on a series with one.
    const std::vector<double> with_nan = {1.0, 2.0, kNan, 3.0};
    try {
        percentileCut(with_nan, 0.5);
        ADD_FAILURE() << "a NaN series was cut";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("NaN at index 2"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(percentileCut(std::vector<double>{kNan}, 0.0),
                 FatalError);
}

TEST(DroopPercentile, SelectionMatchesFullSort)
{
    // The index rule on a sorted copy, as the cut was defined before it
    // selected: random finite series with heavy ties and both zeros.
    Xoshiro256StarStar rng(0x9c7);
    const double pool[] = {-0.0, 0.0, 1.0, -1.0, 0.5, 2.5, 1e-300, -7.0};
    for (const size_t n : {1, 2, 3, 4000}) {
        for (int trial = 0; trial < 20; ++trial) {
            std::vector<double> v(n);
            for (double &x : v)
                x = rng.nextBounded(3) == 0
                        ? rng.nextDouble() * 8.0 - 4.0
                        : pool[rng.nextBounded(std::size(pool))];
            std::vector<double> sorted = v;
            std::sort(sorted.begin(), sorted.end());
            for (const double q : {0.0, 0.5, 0.9, 0.97, 0.999, 1.0}) {
                const size_t index = std::min(
                    n - 1, static_cast<size_t>(
                               q * static_cast<double>(n - 1)));
                const double cut = percentileCut(v, q);
                // Equal as doubles; only the sign of a zero may differ.
                EXPECT_EQ(cut, sorted[index])
                    << "n=" << n << " q=" << q << " trial " << trial;
                if (cut != 0.0) {
                    EXPECT_EQ(std::bit_cast<uint64_t>(cut),
                              std::bit_cast<uint64_t>(sorted[index]));
                }
            }
        }
    }
}

TEST(DroopMitigation, RejectsDegenerateTriggerAndWindow)
{
    // A non-positive trigger delta used to silently throttle on every
    // cycle (Delta-I of a constant trace is 0 > -x), and a zero-cycle
    // stretch window silently disabled mitigation. Both are now
    // configuration errors.
    const std::vector<float> power(64, 1.0f);
    const PdnParams pdn;
    EXPECT_THROW(simulateWithMitigation(power, power, pdn, 0.7, 0.0,
                                        0.5, 4),
                 FatalError);
    EXPECT_THROW(simulateWithMitigation(power, power, pdn, 0.7, -0.25,
                                        0.5, 4),
                 FatalError);
    EXPECT_THROW(simulateWithMitigation(power, power, pdn, 0.7, 0.1,
                                        0.5, 0),
                 FatalError);
    // The boundary-legal configuration still runs.
    EXPECT_NO_THROW(simulateWithMitigation(power, power, pdn, 0.7,
                                           1e-9, 0.5, 1));
}

// ---------------------------------------------------------------------
// Closed loop + scenario lab on a tiny trained design.
// ---------------------------------------------------------------------

/** One trained tiny model + its 10-bit quantization, shared. */
struct ControlFixtureData
{
    Netlist netlist = DesignBuilder::build(DesignConfig::tiny());
    ApolloModel model;
    QuantizedModel qmodel;

    ControlFixtureData()
    {
        DatasetBuilder tb(netlist);
        Xoshiro256StarStar rng(0xf10);
        for (int i = 0; i < 16; ++i) {
            auto body = GaGenerator::randomBody(rng, 6, 24);
            tb.addProgram(Program::makeLoop("t" + std::to_string(i),
                                            body, 3000, rng()),
                          300);
        }
        ApolloTrainConfig cfg;
        cfg.selection.targetQ = 40;
        model = trainApollo(tb.build(), cfg, "tiny").model;
        qmodel = *tryQuantizeModel(model, 10);
    }
};

const ControlFixtureData &
controlFixture()
{
    static ControlFixtureData data;
    return data;
}

TEST(ControlClosedLoop, OpenLoopRunMatchesReplayAndOracle)
{
    const auto &fx = controlFixture();
    ClosedLoopRunner runner(fx.netlist, fx.qmodel);
    const Program prog = makeLongWorkload("wl", 2000, 42);

    ClosedLoopConfig cfg;
    cfg.controller.policy = ThrottleMode::None;
    cfg.maxCycles = 1200;
    StatusOr<ClosedLoopResult> res = runner.run(prog, cfg);
    ASSERT_TRUE(res.ok()) << res.status().toString();
    EXPECT_EQ(res->triggers, 0u);
    EXPECT_EQ(res->engagedCycles, 0u);
    ASSERT_EQ(res->frames.size(), res->estPower.size());
    ASSERT_EQ(res->frames.size(), res->truthPower.size());

    // An open loop never perturbs the core, so replaying the OPM and
    // the oracle over the collected frames must reproduce the run's
    // estimate and truth traces bit-for-bit.
    const std::vector<float> replay =
        runner.replayEstimate(res->frames, cfg.opmWindow);
    ASSERT_EQ(replay.size(), res->estPower.size());
    for (size_t i = 0; i < replay.size(); ++i)
        ASSERT_EQ(replay[i], res->estPower[i]) << "cycle " << i;
    const std::vector<float> truth = runner.truthPower(res->frames);
    ASSERT_EQ(truth.size(), res->truthPower.size());
    for (size_t i = 0; i < truth.size(); ++i)
        ASSERT_EQ(truth[i], res->truthPower[i]) << "cycle " << i;
}

TEST(ControlClosedLoop, ThrottlingReshapesActivity)
{
    const auto &fx = controlFixture();
    ClosedLoopRunner runner(fx.netlist, fx.qmodel);
    // The lab's steady max-power workload: high IPC, so an issue cap
    // of 1 is guaranteed to bind.
    const DroopLabConfig lab = defaultDroopLabConfig(1200);
    const Program &prog = lab.workloads.back().program;

    ClosedLoopConfig open;
    open.controller.policy = ThrottleMode::None;
    open.maxCycles = 1200;
    StatusOr<ClosedLoopResult> base = runner.run(prog, open);
    ASSERT_TRUE(base.ok());

    // An always-on controller (tiny trigger on a busy trace) must pulse
    // the throttle and change the instruction schedule — the loop is
    // closed, not a post-hoc filter.
    ClosedLoopConfig tight = open;
    tight.controller.policy = ThrottleMode::Proportional;
    tight.controller.proportionalLevel = 1;
    tight.controller.triggerDelta = 1e-9;
    StatusOr<ClosedLoopResult> mit = runner.run(prog, tight);
    ASSERT_TRUE(mit.ok());
    EXPECT_GT(mit->triggers, 0u);
    EXPECT_GT(mit->engagedCycles, 0u);
    EXPECT_LT(mit->stats.ipc(), base->stats.ipc());
}

/** Two runs' frames, CoreStats, estPower bits, triggers and engaged
 *  cycles, field by field. */
::testing::AssertionResult
sameRun(const ClosedLoopResult &got, const ClosedLoopResult &want)
{
    if (got.frames.size() != want.frames.size())
        return ::testing::AssertionFailure()
               << got.frames.size() << " frames, want "
               << want.frames.size();
    for (size_t i = 0; i < got.frames.size(); ++i) {
        const ActivityFrame &a = got.frames[i];
        const ActivityFrame &b = want.frames[i];
        if (a.cycle != b.cycle)
            return ::testing::AssertionFailure() << "frame " << i
                                                 << " cycle";
        for (size_t u = 0; u < numUnits; ++u)
            if (std::bit_cast<uint32_t>(a.activity[u]) !=
                    std::bit_cast<uint32_t>(b.activity[u]) ||
                std::bit_cast<uint32_t>(a.dataToggle[u]) !=
                    std::bit_cast<uint32_t>(b.dataToggle[u]) ||
                a.clockEnabled[u] != b.clockEnabled[u])
                return ::testing::AssertionFailure()
                       << "frame " << i << " unit " << u;
    }
    if (got.estPower.size() != want.estPower.size())
        return ::testing::AssertionFailure() << "estPower length";
    for (size_t i = 0; i < got.estPower.size(); ++i)
        if (std::bit_cast<uint32_t>(got.estPower[i]) !=
            std::bit_cast<uint32_t>(want.estPower[i]))
            return ::testing::AssertionFailure()
                   << "estPower[" << i << "] " << got.estPower[i]
                   << ", want " << want.estPower[i];
    const CoreStats &a = got.stats;
    const CoreStats &b = want.stats;
    if (a.cycles != b.cycles || a.retiredOps != b.retiredOps ||
        a.branches != b.branches || a.mispredicts != b.mispredicts ||
        a.l1iMisses != b.l1iMisses || a.l1dMisses != b.l1dMisses ||
        a.l2Misses != b.l2Misses)
        return ::testing::AssertionFailure() << "CoreStats differ";
    if (got.triggers != want.triggers ||
        got.engagedCycles != want.engagedCycles)
        return ::testing::AssertionFailure()
               << got.triggers << " triggers / " << got.engagedCycles
               << " engaged cycles, want " << want.triggers << " / "
               << want.engagedCycles;
    return ::testing::AssertionSuccess();
}

TEST(ControlClosedLoop, MatchesPerProxyReference)
{
    // simulate() and replayEstimate() take each cycle's proxy bits from
    // the row toggle kernel; the src/ref loop calls
    // ActivityEngine::toggles once per proxy per cycle and is otherwise
    // the same loop. Every policy, windows {1, 4} and bits {10, 6}, with
    // the lab's trigger calibration so the throttled cells engage.
    const auto &fx = controlFixture();
    const DroopLabConfig lab = defaultDroopLabConfig(900);
    uint64_t triggers = 0;
    for (const uint32_t bits : {10u, 6u}) {
        const QuantizedModel qm = *tryQuantizeModel(fx.model, bits);
        ClosedLoopRunner runner(fx.netlist, qm);
        for (const DroopLabWorkload &wl : lab.workloads) {
            for (const uint32_t window : {1u, 4u}) {
                const std::string at = wl.name + " B=" +
                                       std::to_string(bits) + " tau=" +
                                       std::to_string(window);
                ClosedLoopConfig cfg;
                cfg.opmWindow = window;
                cfg.maxCycles = wl.cycles;
                cfg.controller.vdd = lab.vdd;
                cfg.controller.policy = ThrottleMode::None;
                StatusOr<ClosedLoopResult> base =
                    runner.simulate(wl.program, cfg);
                StatusOr<ClosedLoopResult> want = ref::closedLoopSimulate(
                    fx.netlist, qm, wl.program, cfg);
                ASSERT_TRUE(base.ok() && want.ok()) << at;
                ASSERT_TRUE(sameRun(*base, *want)) << at << " none";

                const std::vector<float> replay =
                    runner.replayEstimate(base->frames, window);
                const std::vector<float> ref_replay = ref::replayEstimate(
                    fx.netlist, qm, base->frames, window);
                ASSERT_EQ(replay.size(), ref_replay.size()) << at;
                for (size_t i = 0; i < replay.size(); ++i)
                    ASSERT_EQ(std::bit_cast<uint32_t>(replay[i]),
                              std::bit_cast<uint32_t>(ref_replay[i]))
                        << at << " replay cycle " << i;

                const std::vector<double> di =
                    deltaI(currentFromPower(replay, lab.vdd));
                std::vector<double> mags;
                for (size_t k = 1; k < di.size(); ++k)
                    mags.push_back(std::abs(di[k]));
                cfg.controller.triggerDelta = std::max(
                    1e-12, percentileCut(mags, lab.triggerPercentile));
                cfg.controller.triggerLatency = lab.triggerLatency;
                cfg.controller.engageCycles = lab.engageCycles;
                for (const ThrottleMode policy :
                     {ThrottleMode::Scheme1, ThrottleMode::Scheme2,
                      ThrottleMode::Scheme3, ThrottleMode::Proportional}) {
                    cfg.controller.policy = policy;
                    StatusOr<ClosedLoopResult> got =
                        runner.simulate(wl.program, cfg);
                    want = ref::closedLoopSimulate(fx.netlist, qm,
                                                   wl.program, cfg);
                    ASSERT_TRUE(got.ok() && want.ok()) << at;
                    EXPECT_TRUE(sameRun(*got, *want))
                        << at << " " << control::throttleModeName(policy);
                    triggers += got->triggers;
                }
            }
        }
    }
    EXPECT_GT(triggers, 0u) << "no cell engaged the throttle";
}

TEST(DroopLab, ValidateRejectsBadGrids)
{
    const auto &fx = controlFixture();
    DroopLabConfig cfg = defaultDroopLabConfig(400);
    ASSERT_TRUE(cfg.validate().ok());

    DroopLabConfig empty = cfg;
    empty.workloads.clear();
    EXPECT_FALSE(runDroopLab(fx.netlist, fx.model, empty).ok());

    DroopLabConfig bad_window = cfg;
    bad_window.windows = {3};
    EXPECT_FALSE(runDroopLab(fx.netlist, fx.model, bad_window).ok());

    DroopLabConfig none_policy = cfg;
    none_policy.policies = {ThrottleMode::None};
    EXPECT_FALSE(runDroopLab(fx.netlist, fx.model, none_policy).ok());

    DroopLabConfig bad_pct = cfg;
    bad_pct.triggerPercentile = 1.5;
    EXPECT_FALSE(runDroopLab(fx.netlist, fx.model, bad_pct).ok());

    // NaN passes every `<= 0` / `>= 1` test; each field rejects it and
    // the infinities.
    using Field = std::function<void(DroopLabConfig &, double)>;
    const std::vector<std::pair<const char *, Field>> fields = {
        {"vdd", [](DroopLabConfig &c, double v) { c.vdd = v; }},
        {"percentile",
         [](DroopLabConfig &c, double v) { c.triggerPercentile = v; }},
        {"threshold",
         [](DroopLabConfig &c, double v) { c.pdns[0].thresholdFrac = v; }},
        {"r_static",
         [](DroopLabConfig &c, double v) { c.pdns[0].rStaticVolts = v; }},
        {"dynamic_gain",
         [](DroopLabConfig &c, double v) {
             c.pdns[0].dynamicGainVolts = v;
         }},
        {"resonance",
         [](DroopLabConfig &c, double v) {
             c.pdns[0].resonancePeriodCycles = v;
         }},
        {"damping",
         [](DroopLabConfig &c, double v) { c.pdns[0].damping = v; }},
    };
    for (const auto &[name, set] : fields) {
        for (const double v : {kNan, kInf, -kInf}) {
            DroopLabConfig bad = cfg;
            set(bad, v);
            EXPECT_EQ(bad.validate().code(), StatusCode::InvalidArgument)
                << name << " = " << v;
        }
    }
    // A zero or negative resonance period divides by zero in the PDN.
    for (const double period : {0.0, -24.0}) {
        DroopLabConfig bad = cfg;
        bad.pdns[0].resonancePeriodCycles = period;
        EXPECT_EQ(bad.validate().code(), StatusCode::InvalidArgument);
    }
    // The thread count is bounded before any pool exists.
    DroopLabConfig threads = cfg;
    threads.threads = kMaxWorkerThreads + 1;
    EXPECT_EQ(threads.validate().code(), StatusCode::InvalidArgument);
    threads.threads = UINT32_MAX;
    EXPECT_EQ(threads.validate().code(), StatusCode::InvalidArgument);
}

TEST(DroopLab, NanPercentileIsInvalidArgumentNotAThrow)
{
    // A NaN percentile used to pass validation and throw FatalError
    // from percentileCut inside a stage-B pool worker.
    const auto &fx = controlFixture();
    DroopLabConfig cfg = defaultDroopLabConfig(400);
    cfg.triggerPercentile = kNan;
    bool threw = false;
    Status st = Status::okStatus();
    try {
        st = runDroopLab(fx.netlist, fx.model, cfg).status();
    } catch (const FatalError &) {
        threw = true;
    }
    EXPECT_FALSE(threw);
    EXPECT_EQ(st.code(), StatusCode::InvalidArgument) << st.toString();
}

/** The default lab sweep at 1500 cycles, run once and shared. */
const DroopLabReport &
labReport()
{
    static const DroopLabReport report = [] {
        const auto &fx = controlFixture();
        StatusOr<DroopLabReport> r =
            runDroopLab(fx.netlist, fx.model, defaultDroopLabConfig(1500));
        APOLLO_REQUIRE(r.ok(), "droop lab failed: ",
                       r.status().message());
        return *r;
    }();
    return report;
}

TEST(DroopLab, DefaultGridIsFullyCovered)
{
    const DroopLabReport &rep = labReport();
    // 3 workloads x 2 windows x 2 bit-widths x 3 policies, 1 PDN.
    EXPECT_EQ(rep.gridCells, 36u);
    ASSERT_EQ(rep.rows.size(), 36u);
    for (const DroopLabRow &row : rep.rows) {
        EXPECT_GT(row.triggerDelta, 0.0);
        EXPECT_GE(row.pearsonDeltaI, -1.0);
        EXPECT_LE(row.pearsonDeltaI, 1.0);
        EXPECT_GT(row.baseIpc, 0.0);
        EXPECT_GT(row.ipc, 0.0);
        EXPECT_EQ(row.droopCyclesAvoided,
                  static_cast<int64_t>(row.baseDroopCycles) -
                      static_cast<int64_t>(row.droopCycles));
    }
    // Every (workload, pdn) group carries a Pareto front.
    size_t pareto = 0;
    for (const DroopLabRow &row : rep.rows)
        pareto += row.pareto ? 1 : 0;
    EXPECT_GE(pareto, 3u);

    std::ostringstream os;
    rep.render(os);
    EXPECT_NE(os.str().find("pareto"), std::string::npos);
    EXPECT_NE(rep.toJson().find("apollo.droop_lab.v1"),
              std::string::npos);
}

TEST(DroopLab, SomePolicyDominatesNoMitigation)
{
    // The acceptance bar: at least one OPM-guided cell strictly reduces
    // droop cycles at under 10% IPC loss on the default grid.
    EXPECT_TRUE(labReport().hasDominatingPolicy(0.10));
}

TEST(DroopLab, BitIdenticalAcrossThreadCountsAndReruns)
{
    const auto &fx = controlFixture();
    const DroopLabConfig base = defaultDroopLabConfig(600);

    std::vector<std::string> reports;
    for (uint32_t threads : {1u, 2u, 0u, 2u}) {
        DroopLabConfig cfg = base;
        cfg.threads = threads;
        StatusOr<DroopLabReport> r =
            runDroopLab(fx.netlist, fx.model, cfg);
        ASSERT_TRUE(r.ok()) << r.status().toString();
        reports.push_back(r->toJson());
    }
    for (size_t i = 1; i < reports.size(); ++i)
        EXPECT_EQ(reports[0], reports[i]) << "variant " << i;
}

TEST(DroopLab, MatchesPerCellReference)
{
    // The batched lab (group simulation, shared-draw truth batches,
    // dedupe, row tiles) against one ClosedLoopRunner::run per
    // baseline and cell, each scored on its own: the lab's old path.
    const auto &fx = controlFixture();
    DroopLabConfig cfg = defaultDroopLabConfig(700);
    cfg.windows = {1, 2, 4};
    cfg.pdns.push_back(PdnScenario{"stiff", 0.02, 0.08, 16.0, 0.4, 0.96});
    const StatusOr<DroopLabReport> want =
        ref::droopLabPerCell(fx.netlist, fx.model, cfg);
    ASSERT_TRUE(want.ok()) << want.status().toString();
    for (const uint32_t threads : {1u, 3u, 0u}) {
        cfg.threads = threads;
        const StatusOr<DroopLabReport> got =
            runDroopLab(fx.netlist, fx.model, cfg);
        ASSERT_TRUE(got.ok()) << got.status().toString();
        EXPECT_EQ(got->toJson(), want->toJson()) << "threads " << threads;
    }
}

TEST(DroopLab, AnalyticMitigationAgreesWithClosedLoop)
{
    // Differential check between the two mitigation paths: the analytic
    // simulateWithMitigation current-cap and the real closed loop must
    // agree on the *sign* of droop-cycles-avoided, and both must order
    // the mitigated run at or below the unmitigated baseline.
    const auto &fx = controlFixture();
    const DroopLabConfig lab = defaultDroopLabConfig(1500);
    const DroopLabWorkload &wl = lab.workloads[0]; // burst_idle
    ClosedLoopRunner runner(fx.netlist, fx.qmodel);

    ClosedLoopConfig open;
    open.controller.policy = ThrottleMode::None;
    open.maxCycles = wl.cycles;
    StatusOr<ClosedLoopResult> base = runner.run(wl.program, open);
    ASSERT_TRUE(base.ok());

    // Same calibration and PDN normalization the lab applies.
    const std::vector<double> di =
        deltaI(currentFromPower(base->estPower, lab.vdd));
    std::vector<double> mags(di.size() - 1);
    for (size_t i = 1; i < di.size(); ++i)
        mags[i - 1] = std::abs(di[i]);
    const double trigger =
        percentileCut(mags, lab.triggerPercentile);
    ASSERT_GT(trigger, 0.0);

    double mean_current = 0.0;
    for (float p : base->truthPower)
        mean_current += p / lab.vdd;
    mean_current /= static_cast<double>(base->truthPower.size());
    const PdnScenario &scen = lab.pdns[0];
    PdnParams pdn;
    pdn.vdd = lab.vdd;
    pdn.resonancePeriodCycles = scen.resonancePeriodCycles;
    pdn.damping = scen.damping;
    pdn.rStatic = scen.rStaticVolts / mean_current;
    pdn.dynamicGain = scen.dynamicGainVolts / mean_current;
    const double threshold = lab.vdd * scen.thresholdFrac;

    const DroopSimResult unmit =
        simulateDroop(base->truthPower, pdn, threshold);
    ASSERT_GT(unmit.droopCycles, 0u) << "baseline never droops";

    const DroopSimResult analytic = simulateWithMitigation(
        base->truthPower, base->estPower, pdn, threshold, trigger, 0.5,
        lab.engageCycles);

    ClosedLoopConfig mit = open;
    mit.controller.policy = ThrottleMode::Proportional;
    mit.controller.proportionalLevel = lab.proportionalLevel;
    mit.controller.vdd = lab.vdd;
    mit.controller.triggerDelta = trigger;
    mit.controller.triggerLatency = lab.triggerLatency;
    mit.controller.engageCycles = lab.engageCycles;
    StatusOr<ClosedLoopResult> real = runner.run(wl.program, mit);
    ASSERT_TRUE(real.ok());
    const DroopSimResult real_droop =
        simulateDroop(real->truthPower, pdn, threshold);

    const int64_t avoided_analytic =
        static_cast<int64_t>(unmit.droopCycles) -
        static_cast<int64_t>(analytic.droopCycles);
    const int64_t avoided_real =
        static_cast<int64_t>(unmit.droopCycles) -
        static_cast<int64_t>(real_droop.droopCycles);
    EXPECT_GT(avoided_analytic, 0);
    EXPECT_GT(avoided_real, 0);
    // Ordering: mitigated <= baseline on both paths.
    EXPECT_LE(analytic.droopCycles, unmit.droopCycles);
    EXPECT_LE(real_droop.droopCycles, unmit.droopCycles);
}

} // namespace
} // namespace apollo
