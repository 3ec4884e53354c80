/**
 * @file
 * Unit tests for the microarchitectural substrate: cache hierarchy,
 * branch predictor, throttling, and the timing core's behaviour
 * (IPC ranges, miss behaviour, clock gating, activity frames), plus
 * the flat core against ref::coreRun on whole workloads (UarchCore).
 */

#include <gtest/gtest.h>

#include <bit>
#include <limits>

#include "flow/flows.hh"
#include "gen/test_suite.hh"
#include "ref/reference_core.hh"
#include "uarch/branch_predictor.hh"
#include "uarch/cache.hh"
#include "uarch/core.hh"
#include "uarch/throttle.hh"

namespace apollo {
namespace {

using namespace asm_helpers;

TEST(Cache, HitsAfterFill)
{
    CacheParams p{1024, 2, 64, 2, 4, 50};
    CacheModel cache(p);
    const auto miss = cache.access(0x100, false, 0);
    EXPECT_FALSE(miss.hit);
    EXPECT_GE(miss.readyCycle, 50u);

    const auto hit = cache.access(0x104, false, miss.readyCycle + 1);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.readyCycle, miss.readyCycle + 1 + p.latency);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.accesses(), 2u);
}

TEST(Cache, LruEviction)
{
    // 2 ways, 64B lines, 2 sets (256B total).
    CacheParams p{256, 2, 64, 1, 4, 10};
    CacheModel cache(p);
    // Three lines mapping to set 0: line addresses 0, 2, 4 (even lines).
    cache.access(0 * 64, false, 0);
    cache.access(2 * 64, false, 100);
    cache.access(4 * 64, false, 200); // evicts line 0 (LRU)
    const auto r = cache.access(0 * 64, false, 300);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(cache.misses(), 4u);
}

TEST(Cache, MissMergingOnSameLine)
{
    CacheParams p{1024, 2, 64, 2, 4, 50};
    CacheModel cache(p);
    const auto first = cache.access(0x200, false, 0);
    const auto merged = cache.access(0x208, false, 1);
    EXPECT_FALSE(merged.hit);
    EXPECT_FALSE(merged.startedMiss);
    EXPECT_EQ(merged.readyCycle, first.readyCycle);
}

TEST(Cache, MshrLimitDelaysExtraMisses)
{
    CacheParams p{4096, 4, 64, 1, 2, 100};
    CacheModel cache(p);
    const auto a = cache.access(0 << 6, false, 0);
    const auto b = cache.access(100 << 6, false, 0);
    const auto c = cache.access(200 << 6, false, 0); // must wait
    EXPECT_GT(c.readyCycle, a.readyCycle);
    EXPECT_GE(c.readyCycle, std::min(a.readyCycle, b.readyCycle) + 100);
}

TEST(Cache, TwoLevelPathAddsLatencies)
{
    CacheParams l2p{8192, 4, 64, 10, 4, 80};
    CacheParams l1p{1024, 2, 64, 2, 4, 0};
    CacheModel l2(l2p);
    CacheModel l1(l1p, &l2);
    const auto r = l1.access(0x4000, false, 0).readyCycle;
    EXPECT_GE(r, 80u + 10u + 2u);
}

TEST(BranchPredictor, LearnsAlwaysTaken)
{
    BranchPredictor bp(10);
    // Warm up past gshare history churn: always-taken branch at one pc.
    for (int i = 0; i < 50; ++i) {
        bp.predict(100);
        bp.update(100, true);
    }
    EXPECT_TRUE(bp.predict(100));
}

TEST(BranchPredictor, CountsMispredicts)
{
    BranchPredictor bp(10);
    for (int i = 0; i < 100; ++i) {
        bp.predict(7);
        bp.update(7, true);
    }
    const uint64_t before = bp.mispredicts();
    bp.predict(7);
    bp.update(7, false); // surprise
    EXPECT_EQ(bp.mispredicts(), before + 1);
}

TEST(Throttle, Scheme1CapsIssueWidth)
{
    Throttle t(ThrottleMode::Scheme1);
    EXPECT_EQ(t.maxIssue(0, 4), 2u);
    EXPECT_EQ(t.maxIssue(5, 4), 2u);
    EXPECT_EQ(t.maxIssue(0, 1), 1u);
}

TEST(Throttle, Scheme2DutyCycles)
{
    Throttle t(ThrottleMode::Scheme2);
    EXPECT_EQ(t.maxIssue(3, 4), 0u);
    EXPECT_EQ(t.maxIssue(7, 4), 0u);
    EXPECT_EQ(t.maxIssue(0, 4), 4u);
}

TEST(Throttle, Scheme3LimitsVector)
{
    Throttle t(ThrottleMode::Scheme3);
    EXPECT_EQ(t.maxVectorIssue(0, 2), 1u);
    EXPECT_EQ(t.maxVectorIssue(1, 2), 0u);
    Throttle none(ThrottleMode::None);
    EXPECT_EQ(none.maxVectorIssue(1, 2), 2u);
}

TEST(TimingCore, IndependentAluStreamReachesWideIssue)
{
    // Independent single-cycle adds: IPC should approach issue width.
    std::vector<Instruction> body;
    for (int i = 0; i < 12; ++i)
        body.push_back(add(i % 12, (i + 1) % 12, (i + 2) % 12));
    const Program prog = Program::makeLoop("ilp", body, 300);
    TimingCore core;
    const CoreStats stats =
        core.run(prog, 100000, [](const ActivityFrame &) {});
    EXPECT_GT(stats.ipc(), 2.0);
    EXPECT_GT(stats.retiredOps, 3000u);
}

TEST(TimingCore, DependentChainSerializes)
{
    // A strict dependency chain of adds: IPC ~1.
    std::vector<Instruction> body;
    for (int i = 0; i < 12; ++i)
        body.push_back(add(1, 1, 2));
    const Program prog = Program::makeLoop("chain", body, 200);
    TimingCore core;
    const CoreStats stats =
        core.run(prog, 100000, [](const ActivityFrame &) {});
    EXPECT_LT(stats.ipc(), 1.5);
}

TEST(TimingCore, DivLatencyHurtsIpc)
{
    std::vector<Instruction> body;
    for (int i = 0; i < 8; ++i)
        body.push_back(div(1, 1, 2));
    const Program prog = Program::makeLoop("divs", body, 100);
    TimingCore core;
    const CoreStats stats =
        core.run(prog, 100000, [](const ActivityFrame &) {});
    EXPECT_LT(stats.ipc(), 0.3);
}

TEST(TimingCore, CacheMissStreamHasLowIpcAndL2Misses)
{
    std::vector<Instruction> body = {
        ldr(0, 29, 0),
        add(1, 1, 0),
        addi(29, 29, 128 * 1024 + 64),
    };
    const Program prog = Program::makeLoop("misses", body, 400);
    TimingCore core;
    const CoreStats stats =
        core.run(prog, 200000, [](const ActivityFrame &) {});
    EXPECT_GT(stats.l1dMisses, 100u);
    EXPECT_GT(stats.l2Misses, 100u);
    EXPECT_LT(stats.ipc(), 1.0);
}

TEST(TimingCore, ThrottlingReducesThroughput)
{
    const auto body = maxPowerBody();
    const Program prog = Program::makeLoop("virus", body, 400);

    CoreParams p;
    TimingCore full(p);
    const CoreStats s_full =
        full.run(prog, 4000, [](const ActivityFrame &) {});

    p.throttle = ThrottleMode::Scheme1;
    TimingCore capped(p);
    const CoreStats s_capped =
        capped.run(prog, 8000, [](const ActivityFrame &) {});

    EXPECT_LT(s_capped.ipc(), s_full.ipc());
}

TEST(TimingCore, EmitsOneFramePerCycle)
{
    const Program prog =
        Program::makeLoop("f", {add(0, 1, 2), eor(3, 0, 1)}, 800);
    TimingCore core;
    uint64_t frames = 0;
    uint64_t last_cycle = 0;
    const CoreStats stats = core.run(prog, 10000,
        [&](const ActivityFrame &f) {
            EXPECT_EQ(f.cycle, frames);
            last_cycle = f.cycle;
            frames++;
        });
    EXPECT_EQ(frames, stats.cycles);
    EXPECT_EQ(last_cycle + 1, stats.cycles);
}

TEST(TimingCore, ClockGatingKicksInForIdleUnits)
{
    // Pure scalar ALU loop: the vector unit should end up gated for
    // most cycles.
    std::vector<Instruction> body;
    for (int i = 0; i < 8; ++i)
        body.push_back(add(i % 8, (i + 1) % 8, 2));
    const Program prog = Program::makeLoop("scalar", body, 300);
    TimingCore core;
    uint64_t vec_enabled = 0;
    uint64_t alu_enabled = 0;
    uint64_t cycles = 0;
    core.run(prog, 10000, [&](const ActivityFrame &f) {
        cycles++;
        vec_enabled += f.enabled(UnitId::VecExec);
        alu_enabled += f.enabled(UnitId::IntAlu);
    });
    EXPECT_LT(static_cast<double>(vec_enabled), 0.2 * cycles);
    EXPECT_GT(static_cast<double>(alu_enabled), 0.8 * cycles);
}

TEST(TimingCore, MispredictsOccurOnDataDependentBranches)
{
    // Branch on a pseudo-random bit: the predictor can't learn it.
    std::vector<Instruction> body = {
        mul(0, 0, 5),
        addi(0, 0, 13),
        and_(1, 0, 6), // pseudo-random bits
        bnez(1, 2),    // skip the next op half the time
        eor(2, 2, 0),
    };
    const Program prog = Program::makeLoop("randbr", body, 400);
    TimingCore core;
    const CoreStats stats =
        core.run(prog, 100000, [](const ActivityFrame &) {});
    EXPECT_GT(stats.branches, 400u);
    EXPECT_GT(stats.mispredicts, 5u);
}

TEST(TimingCore, RespectsMaxCycleCap)
{
    const Program prog =
        Program::makeLoop("cap", {add(0, 1, 2)}, 1000000);
    TimingCore core;
    const CoreStats stats =
        core.run(prog, 500, [](const ActivityFrame &) {});
    EXPECT_EQ(stats.cycles, 500u);
}

TEST(TimingCore, MaxCyclesNearUint64MaxRunsToProgramEnd)
{
    // warmupCycles + max_cycles must saturate, not wrap to a cap below
    // the warm-up (which recorded nothing).
    const Program prog = makeLongWorkload("cap", 3000, 5);
    TimingCore core;
    auto count = [&](uint64_t max_cycles) {
        return core.run(prog, max_cycles, [](const ActivityFrame &) {})
            .cycles;
    };
    const uint64_t to_end = count(uint64_t{1} << 40);
    EXPECT_GT(to_end, 3000u);
    EXPECT_LT(to_end, uint64_t{1} << 40);
    EXPECT_EQ(count(std::numeric_limits<uint64_t>::max()), to_end);
    EXPECT_EQ(count(std::numeric_limits<uint64_t>::max() - 1), to_end);
    EXPECT_EQ(count(std::numeric_limits<uint64_t>::max() - 300), to_end);
}

TEST(TestSuite, TableFourShape)
{
    const auto suite = designerTestSuite();
    ASSERT_EQ(suite.size(), 12u);
    EXPECT_EQ(suite[0].program.name(), "dhrystone");
    EXPECT_EQ(suite[0].cycles, 1222u);
    EXPECT_EQ(suite[1].program.name(), "maxpwr_cpu");
    EXPECT_EQ(suite[1].cycles, 600u);
    EXPECT_EQ(suite[9].throttle, ThrottleMode::Scheme1);
    EXPECT_EQ(suite[11].throttle, ThrottleMode::Scheme3);

    // Every benchmark must actually run for its full cycle budget.
    for (const TestBenchmark &tb : suite) {
        TimingCore core;
        const CoreStats stats =
            core.run(tb.program, tb.cycles, [](const ActivityFrame &) {});
        EXPECT_EQ(stats.cycles, tb.cycles) << tb.program.name();
    }
}

/** The production core against ref::coreRun: every frame field and
 *  every CoreStats counter, exactly. */
void
expectMatchesReference(const CoreParams &params, const Program &prog,
                       uint64_t max_cycles)
{
    std::vector<ActivityFrame> got;
    std::vector<ActivityFrame> want;
    const CoreStats a = TimingCore(params).run(
        prog, max_cycles,
        [&](const ActivityFrame &f) { got.push_back(f); });
    const CoreStats b = ref::coreRun(
        params, prog, max_cycles,
        [&](const ActivityFrame &f) { want.push_back(f); });
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.retiredOps, b.retiredOps);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.l1iMisses, b.l1iMisses);
    EXPECT_EQ(a.l1dMisses, b.l1dMisses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        const ActivityFrame &f = got[i];
        const ActivityFrame &g = want[i];
        ASSERT_EQ(f.cycle, g.cycle) << "frame " << i;
        for (size_t u = 0; u < numUnits; ++u) {
            ASSERT_EQ(std::bit_cast<uint32_t>(f.activity[u]),
                      std::bit_cast<uint32_t>(g.activity[u]))
                << "frame " << i << " unit " << u;
            ASSERT_EQ(std::bit_cast<uint32_t>(f.dataToggle[u]),
                      std::bit_cast<uint32_t>(g.dataToggle[u]))
                << "frame " << i << " unit " << u;
            ASSERT_EQ(f.clockEnabled[u], g.clockEnabled[u])
                << "frame " << i << " unit " << u;
        }
    }
}

TEST(UarchCore, DesignerSuiteMatchesReference)
{
    for (const TestBenchmark &tb : designerTestSuite()) {
        SCOPED_TRACE(tb.program.name());
        CoreParams params;
        params.throttle = tb.throttle;
        expectMatchesReference(params, tb.program, tb.cycles);
    }
}

TEST(UarchCore, LongWorkloadsMatchReference)
{
    // bench/e2e's four emulate_long programs (seed 1), first 100k cycles.
    for (uint64_t i = 0; i < 4; ++i) {
        const Program prog = makeLongWorkload(
            "long" + std::to_string(i), 1'000'000, 0x10119 + i);
        SCOPED_TRACE(prog.name());
        expectMatchesReference(CoreParams::defaults(), prog, 100'000);
    }
}

TEST(UarchCore, ProgramEndingBeforeMaxCyclesMatchesReference)
{
    const Program prog = Program::makeLoop(
        "short", {add(0, 1, 2), mul(3, 0, 0), ldr(4, 30, 64),
                  str(4, 30, 64), vfma(1, 2, 3)},
        40, 11);
    const CoreStats stats =
        TimingCore().run(prog, 1'000'000, [](const ActivityFrame &) {});
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_LT(stats.cycles, 1'000'000u);
    expectMatchesReference(CoreParams::defaults(), prog, 1'000'000);
}

} // namespace
} // namespace apollo
