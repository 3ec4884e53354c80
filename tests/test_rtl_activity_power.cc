/**
 * @file
 * Tests for the RTL netlist generator, the activity engine (toggle
 * semantics + statelessness contract), the power oracle and its one
 * ground-truth kernel (LabelAccumulator), and the PDN model.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <numeric>

#include "activity/activity_engine.hh"
#include "activity/toggle_columns.hh"
#include "flow/flows.hh"
#include "gen/fitness_eval.hh"
#include "power/label_accumulator.hh"
#include "power/pdn_model.hh"
#include "power/power_oracle.hh"
#include "rtl/design_builder.hh"
#include "trace/stream_reader.hh"
#include "trace/toggle_trace.hh"
#include "uarch/core.hh"
#include "util/rng.hh"

namespace apollo {
namespace {

using namespace asm_helpers;

constexpr LabelAccumulator::Impl kLabelImpls[] = {
    LabelAccumulator::Impl::Portable, LabelAccumulator::Impl::Avx512};

Netlist
tinyNetlist()
{
    return DesignBuilder::build(DesignConfig::tiny());
}

TEST(DesignBuilder, BuildsAllUnitsWithExpectedKinds)
{
    const Netlist nl = tinyNetlist();
    EXPECT_GT(nl.signalCount(), 1000u);
    EXPECT_GT(nl.buses().size(), 5u);
    EXPECT_GT(nl.totalCap(), 0.0);

    size_t gclk = 0;
    size_t clken = 0;
    size_t ff = 0;
    size_t bus_bits = 0;
    for (const Signal &sig : nl.signals()) {
        switch (sig.kind) {
          case SignalKind::GatedClock: gclk++; break;
          case SignalKind::ClockEnable: clken++; break;
          case SignalKind::FlipFlop: ff++; break;
          case SignalKind::BusBit: bus_bits++; break;
          default: break;
        }
    }
    EXPECT_GT(gclk, 10u);
    EXPECT_EQ(gclk, clken) << "every gated clock has an enable";
    EXPECT_GT(ff, 200u);
    EXPECT_GT(bus_bits, 100u);

    // Unit ranges tile the id space.
    size_t covered = 0;
    for (size_t u = 0; u < numUnits; ++u)
        covered += nl.unitRange(static_cast<UnitId>(u)).count;
    EXPECT_EQ(covered, nl.signalCount());
}

TEST(DesignBuilder, DeterministicPerSeed)
{
    const Netlist a = DesignBuilder::build(DesignConfig::tiny());
    const Netlist b = DesignBuilder::build(DesignConfig::tiny());
    ASSERT_EQ(a.signalCount(), b.signalCount());
    for (size_t i = 0; i < a.signalCount(); i += 37) {
        EXPECT_EQ(a.signal(i).cap, b.signal(i).cap);
        EXPECT_EQ(a.signal(i).kind, b.signal(i).kind);
    }
}

TEST(DesignBuilder, PresetsScaleAsDocumented)
{
    const Netlist n1 = DesignBuilder::build(DesignConfig::neoverseN1ish());
    const Netlist a77 =
        DesignBuilder::build(DesignConfig::cortexA77ish());
    EXPECT_GT(n1.signalCount(), 20000u);
    EXPECT_LT(n1.signalCount(), 30000u);
    EXPECT_GT(a77.signalCount(), 1.5 * n1.signalCount());
}

TEST(Netlist, SignalNamesAreHierarchical)
{
    const Netlist nl = tinyNetlist();
    const std::string name = nl.signalName(0);
    EXPECT_NE(name.find("u_"), std::string::npos);
    EXPECT_NE(name.find('/'), std::string::npos);
}

std::vector<ActivityFrame>
framesFor(const Netlist &, const Program &prog, uint64_t cycles)
{
    TimingCore core;
    return core.collectFrames(prog, cycles);
}

TEST(ActivityEngine, GatedClockFollowsEnable)
{
    const Netlist nl = tinyNetlist();
    ActivityEngine engine(nl);
    const Program prog =
        Program::makeLoop("p", {add(0, 1, 2), eor(3, 0, 1)}, 800);
    const auto frames = framesFor(nl, prog, 1000);

    // Find a gated clock in the vector unit (idle → gated).
    const UnitRange &vec = nl.unitRange(UnitId::VecExec);
    uint32_t gclk_id = vec.first;
    while (nl.signal(gclk_id).kind != SignalKind::GatedClock)
        gclk_id++;

    for (size_t i = 0; i < frames.size(); i += 13) {
        if (!frames[i].enabled(UnitId::VecExec)) {
            EXPECT_FALSE(engine.toggles(gclk_id, frames, i, 0));
        } else if (frames[i].act(UnitId::VecExec) >= 0.999f) {
            EXPECT_TRUE(engine.toggles(gclk_id, frames, i, 0));
        }
    }
}

TEST(ActivityEngine, ClockEnableTogglesOnGatingEdges)
{
    const Netlist nl = tinyNetlist();
    ActivityEngine engine(nl);
    // One vector op per ~24-cycle serialized-divide iteration: the
    // vector unit gates between vadds, producing enable edges.
    const Program prog = Program::makeLoop(
        "p", {vadd(0, 1, 2), div(1, 1, 2), div(2, 2, 3)}, 200);
    const auto frames = framesFor(nl, prog, 1000);

    const UnitRange &vec = nl.unitRange(UnitId::VecExec);
    uint32_t en_id = vec.first;
    while (nl.signal(en_id).kind != SignalKind::ClockEnable)
        en_id++;

    size_t edge_count = 0;
    for (size_t i = 1; i < frames.size(); ++i) {
        const bool toggled = engine.toggles(en_id, frames, i, 0);
        const bool edge = frames[i].enabled(UnitId::VecExec) !=
                          frames[i - 1].enabled(UnitId::VecExec);
        EXPECT_EQ(toggled, edge);
        edge_count += edge;
    }
    EXPECT_GT(edge_count, 0u) << "expected gating edges in this workload";
}

TEST(ActivityEngine, GatedUnitsDoNotToggleDataSignals)
{
    const Netlist nl = tinyNetlist();
    ActivityEngine engine(nl);
    // Scalar-only loop: vector unit gated most of the time.
    std::vector<Instruction> body;
    for (int i = 0; i < 8; ++i)
        body.push_back(add(i % 8, (i + 1) % 8, 2));
    const auto frames =
        framesFor(nl, Program::makeLoop("s", body, 600), 2000);

    const UnitRange &vec = nl.unitRange(UnitId::VecExec);
    for (size_t i = 0; i < frames.size(); ++i) {
        if (frames[i].enabled(UnitId::VecExec))
            continue;
        for (uint32_t s = vec.first; s < vec.first + vec.count;
             s += 17) {
            if (nl.signal(s).kind == SignalKind::ClockEnable)
                continue;
            EXPECT_FALSE(engine.toggles(s, frames, i, 0))
                << "signal " << s << " toggled while gated";
        }
    }
}

TEST(ActivityEngine, StatelessnessAnySubsetMatchesFullTrace)
{
    // The emulator-flow guarantee: tracing a subset of signals yields
    // exactly the bits of the full trace.
    const Netlist nl = tinyNetlist();
    DatasetBuilder builder(nl);
    builder.addProgram(
        Program::makeLoop("p", {vfma(0, 1, 2), ldr(3, 30, 8)}, 800), 800);
    const Dataset full = builder.build();

    std::vector<uint32_t> subset = {3, 99, 500, 1200,
                                    static_cast<uint32_t>(
                                        nl.signalCount() - 1)};
    const auto begin_of = builder.segmentBeginTable();
    const BitColumnMatrix proxy_bits = DatasetBuilder::traceProxies(
        builder.engine(), builder.frames(), subset, begin_of);

    for (size_t q = 0; q < subset.size(); ++q)
        for (size_t i = 0; i < full.cycles(); ++i)
            ASSERT_EQ(proxy_bits.get(i, q), full.X.get(i, subset[q]))
                << "mismatch at cycle " << i << " signal " << subset[q];
}

/** Two programs' frames (two segments) and their valid table. */
struct TwoSegments
{
    DatasetBuilder builder;
    std::vector<uint32_t> ids;

    explicit TwoSegments(const Netlist &nl) : builder(nl)
    {
        builder.addProgram(
            Program::makeLoop("a", {vfma(0, 1, 2), ldr(3, 30, 8)}, 400),
            150);
        builder.addProgram(Program::makeLoop("b", {add(0, 1, 2)}, 400),
                           150);
        for (uint32_t s = 0; s < nl.signalCount(); s += 11)
            ids.push_back(s);
    }
};

/** One malformed segment table per rejected shape, over @p good. */
std::vector<std::pair<std::string, std::vector<uint32_t>>>
malformedTables(const std::vector<uint32_t> &good)
{
    const size_t n = good.size();
    std::vector<std::pair<std::string, std::vector<uint32_t>>> bad = {
        {"short", {good.begin(), good.end() - 1}},
        {"long", good},
        {"first-not-zero", good},
        {"ahead-of-index", good},
        {"not-predecessor", good},
    };
    bad[1].second.push_back(good.back());
    bad[2].second[0] = 3;
    bad[3].second[5] = 9;
    bad[4].second[n - 3] = 1;
    return bad;
}

TEST(SegmentTable, TraceProxiesRejectsMalformedTables)
{
    const Netlist nl = tinyNetlist();
    const TwoSegments two(nl);
    const DatasetBuilder &b = two.builder;
    for (const auto &[shape, table] :
         malformedTables(b.segmentBeginTable()))
        EXPECT_THROW(DatasetBuilder::traceProxies(b.engine(), b.frames(),
                                                  two.ids, table),
                     FatalError)
            << shape;
    EXPECT_NO_THROW(DatasetBuilder::traceProxies(
        b.engine(), b.frames(), two.ids, b.segmentBeginTable()));
}

TEST(SegmentTable, ChunkReaderRejectsMalformedTables)
{
    const Netlist nl = tinyNetlist();
    const TwoSegments two(nl);
    const DatasetBuilder &b = two.builder;
    for (const auto &[shape, table] :
         malformedTables(b.segmentBeginTable()))
        EXPECT_THROW(FrameProxyChunkReader(b.engine(), b.frames(),
                                           two.ids, table),
                     FatalError)
            << shape;
    EXPECT_NO_THROW(FrameProxyChunkReader(b.engine(), b.frames(),
                                          two.ids,
                                          b.segmentBeginTable()));
}

TEST(SegmentTable, BindRejectsMalformedTablesAndWindows)
{
    const Netlist nl = tinyNetlist();
    const TwoSegments two(nl);
    const DatasetBuilder &b = two.builder;
    const std::span<const ActivityFrame> frames(b.frames());
    const size_t n = frames.size();
    ToggleColumnGenerator gen(b.engine());
    for (const auto &[shape, table] :
         malformedTables(b.segmentBeginTable()))
        EXPECT_THROW(gen.bind(frames, table, 0, n), FatalError) << shape;

    // Windows running past the frames, directly and through the
    // row-blocked driver.
    BitColumnMatrix out;
    EXPECT_THROW(gen.bind(frames, {}, n - 10, 11), FatalError);
    EXPECT_THROW(gen.bind(frames, {}, n + 1, 0), FatalError);
    EXPECT_THROW(fillToggleColumns(b.engine(), frames, {}, n - 10, 11,
                                   two.ids, out),
                 FatalError);
    EXPECT_NO_THROW(gen.bind(frames, b.segmentBeginTable(), n - 10, 10));
}

TEST(ActivityEngine, ToggleProbabilityClampsAndResponds)
{
    Signal sig;
    sig.baseRate = 0.01f;
    sig.actSensitivity = 0.8f;
    sig.dataSensitivity = 0.5f;
    const float idle = ActivityEngine::toggleProbability(sig, 0.f, 0.f);
    const float busy = ActivityEngine::toggleProbability(sig, 1.f, 1.f);
    const float busy_lowdata =
        ActivityEngine::toggleProbability(sig, 1.f, 0.f);
    EXPECT_NEAR(idle, 0.01f, 1e-6);
    EXPECT_GT(busy, busy_lowdata);
    EXPECT_LE(busy, 0.95f);

    sig.baseRate = 5.0f; // absurd: must clamp
    EXPECT_LE(ActivityEngine::toggleProbability(sig, 1.f, 1.f), 0.95f);
}

TEST(PowerOracle, PowerScalesWithActivity)
{
    const Netlist nl = tinyNetlist();
    DatasetBuilder builder(nl);

    // High-power virus vs near-idle loop.
    builder.addProgram(
        Program::makeLoop("virus",
                          {vfma(0, 1, 2), vfma(3, 4, 5), mul(0, 1, 2),
                           ldr(4, 30, 0), vmul(6, 7, 8)},
                          300),
        600);
    // Low-power benchmark: a serialized divide chain (frontend mostly
    // stalled, exec units gated between divides).
    builder.addProgram(
        Program::makeLoop("lowpwr", {div(1, 1, 2), div(1, 1, 3)}, 300),
        600);
    const Dataset ds = builder.build();

    double virus_power = 0.0;
    double idle_power = 0.0;
    const auto &segs = ds.segments;
    ASSERT_EQ(segs.size(), 2u);
    for (size_t i = segs[0].begin; i < segs[0].end; ++i)
        virus_power += ds.y[i];
    virus_power /= static_cast<double>(segs[0].cycles());
    for (size_t i = segs[1].begin; i < segs[1].end; ++i)
        idle_power += ds.y[i];
    idle_power /= static_cast<double>(segs[1].cycles());

    EXPECT_GT(virus_power, 2.0 * idle_power);
    EXPECT_GT(idle_power, 0.0) << "leakage floor must be positive";
}

TEST(PowerOracle, MostlyLinearInToggles)
{
    // The dyn component must dominate: zero toggles => leakage only.
    const Netlist nl = tinyNetlist();
    PowerOracle oracle(nl);
    const std::vector<ActivityFrame> frames(3);
    std::vector<uint32_t> ids(nl.signalCount());
    std::iota(ids.begin(), ids.end(), 0u);
    const std::vector<uint64_t> none(ids.size(), 0);
    for (const LabelAccumulator::Impl impl : kLabelImpls) {
        if (!LabelAccumulator::implAvailable(impl))
            continue;
        LabelAccumulator acc(nl, oracle, impl);
        acc.begin(frames);
        acc.add(ids, none.data(), 1);
        double floor[3];
        acc.finish(1.0, 0, floor);
        for (const double p : floor)
            EXPECT_NEAR(p, oracle.leakagePower(),
                        0.1 * oracle.leakagePower() + 1e-9)
                << LabelAccumulator::implName(impl);
    }
}

TEST(LabelAccumulator, EveryImplMatchesTheLabelOrder)
{
    // Random bits (also past the last row, which must be ignored) and
    // unit activity over 200 rows; a stride-3 subset of the signals
    // added in uneven calls that cross chunk boundaries.
    const Netlist nl = tinyNetlist();
    const PowerOracle oracle(nl);
    constexpr size_t kRows = 200;
    constexpr size_t kWords = (kRows + 63) / 64;
    constexpr uint32_t kStride = 3;
    constexpr uint64_t kFirstKey = 100;
    Xoshiro256StarStar rng(0x1abe1);
    std::vector<ActivityFrame> frames(kRows);
    for (size_t i = 0; i < kRows; ++i) {
        frames[i].cycle = i;
        for (size_t u = 0; u < numUnits; ++u)
            frames[i].activity[u] = static_cast<float>(rng.nextDouble());
    }
    std::vector<uint32_t> ids;
    for (size_t j = 0; j < nl.signalCount(); j += kStride)
        ids.push_back(static_cast<uint32_t>(j));
    std::vector<uint64_t> cols(ids.size() * kWords);
    for (uint64_t &w : cols)
        w = rng() & rng();

    std::vector<double> want(kRows);
    for (size_t i = 0; i < kRows; ++i) {
        double sum = 0.0;
        for (size_t k = 0; k < ids.size(); ++k)
            if ((cols[k * kWords + i / 64] >> (i % 64)) & 1)
                sum += oracle.signalContribution(ids[k], frames[i]);
        want[i] = oracle.finalize(sum * kStride, kFirstKey + i);
    }

    const size_t splits[] = {0, 5, 45, 46, ids.size()};
    for (const LabelAccumulator::Impl impl : kLabelImpls) {
        if (!LabelAccumulator::implAvailable(impl))
            continue;
        LabelAccumulator acc(nl, oracle, impl);
        acc.begin(frames);
        for (size_t s = 0; s + 1 < std::size(splits); ++s)
            acc.add(std::span(ids).subspan(splits[s],
                                           splits[s + 1] - splits[s]),
                    cols.data() + splits[s] * kWords, kWords);
        std::vector<double> got(kRows);
        acc.finish(kStride, kFirstKey, got.data());
        for (size_t i = 0; i < kRows; ++i)
            ASSERT_EQ(std::bit_cast<uint64_t>(got[i]),
                      std::bit_cast<uint64_t>(want[i]))
                << LabelAccumulator::implName(impl) << " row " << i;
    }
}

TEST(LabelAccumulator, FitnessPowersAreDatasetLabels)
{
    // One definition of ground truth: stride-1 fitness (the droop
    // lab's truth power) over a builder's one segment is its labels.
    // Runs on the dispatched kernel; the dispatch.no_avx512_yes ctest
    // repeats it on the portable one.
    const Netlist nl = tinyNetlist();
    DatasetBuilder builder(nl);
    builder.addProgram(makeLongWorkload("phase_mix", 700), 700);
    const Dataset ds = builder.build();
    const FitnessEvaluator eval(nl, builder.engine(), builder.oracle());
    std::vector<double> powers;
    eval.cyclePowers(builder.frames(), powers);
    ASSERT_EQ(powers.size(), ds.y.size());
    for (size_t i = 0; i < powers.size(); ++i)
        ASSERT_EQ(std::bit_cast<uint32_t>(static_cast<float>(powers[i])),
                  std::bit_cast<uint32_t>(ds.y[i]))
            << "row " << i << " of " << powers.size();
}

TEST(PdnModel, StepRespondsToCurrentStepAndRingsBack)
{
    PdnParams p;
    PdnModel pdn(p);
    // Flat current: voltage ~ vdd - IR.
    double v = p.vdd;
    for (int i = 0; i < 50; ++i)
        v = pdn.step(10.0);
    EXPECT_NEAR(v, p.vdd - p.rStatic * 10.0, 1e-3);

    // Large current step: droop below static level, then ring.
    double min_v = v;
    double max_v = v;
    for (int i = 0; i < 60; ++i) {
        v = pdn.step(40.0);
        min_v = std::min(min_v, v);
        max_v = std::max(max_v, v);
    }
    EXPECT_LT(min_v, p.vdd - p.rStatic * 40.0 - 1e-4)
        << "expected dynamic droop below the static IR level";
    EXPECT_GT(max_v, p.vdd - p.rStatic * 40.0)
        << "expected overshoot ringing above the static level";
}

TEST(PdnModel, ResetRestoresInitialState)
{
    PdnModel pdn;
    pdn.step(5.0);
    pdn.step(50.0);
    pdn.reset();
    const double v1 = pdn.step(5.0);
    PdnModel fresh;
    const double v2 = fresh.step(5.0);
    EXPECT_DOUBLE_EQ(v1, v2);
}

} // namespace
} // namespace apollo
