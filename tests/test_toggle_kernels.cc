/**
 * @file
 * ToggleKernels: every exported fused toggle kernel
 * (activity/toggle_kernels.hh) against ActivityEngine::toggles, the
 * definition, on the inputs where a vector kernel can drift from it:
 * the draws themselves, non-finite and out-of-range activity and
 * data, exact threshold ties, 16-row groups whose lookback rows are
 * not consecutive, and windows that start off a 16-row boundary or
 * carry non-contiguous cycle stamps. Each check runs through
 * ToggleColumnGenerator with every implementation the host can run,
 * and through the dispatched row-blocked driver fillToggleColumns.
 * Multi-run binds (R = 1-17 bindings of one kernel call) are checked
 * binding by binding against single-run fills and the definition.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <string>

#include "apollo.hh"

#include "activity/toggle_columns.hh"
#include "ref/reference_ga.hh"

namespace apollo {
namespace {

using togglekernels::Impl;

std::vector<Impl>
availableImpls()
{
    std::vector<Impl> impls;
    for (int i = 0; i < togglekernels::kImplCount; ++i)
        if (togglekernels::implAvailable(static_cast<Impl>(i)))
            impls.push_back(static_cast<Impl>(i));
    return impls;
}

/** Rows with every unit enabled and cycle stamps 1000 + i. */
std::vector<ActivityFrame>
enabledFrames(size_t n, uint64_t seed)
{
    Xoshiro256StarStar rng(seed);
    std::vector<ActivityFrame> frames(n);
    for (size_t i = 0; i < n; ++i) {
        frames[i].cycle = 1000 + i;
        for (size_t u = 0; u < numUnits; ++u) {
            frames[i].activity[u] =
                static_cast<float>(rng() % 1000) / 1000.0f;
            frames[i].clockEnabled[u] = true;
            frames[i].dataToggle[u] =
                static_cast<float>(rng() % 1000) / 1000.0f;
        }
    }
    return frames;
}

/**
 * Bits [0, count) of @p col equal want[first + i], and the tail bits
 * of the last word are zero.
 */
::testing::AssertionResult
columnMatches(const uint64_t *col, const std::vector<uint8_t> &want,
              size_t first, size_t count)
{
    for (size_t i = 0; i < count; ++i)
        if (((col[i >> 6] >> (i & 63)) & 1) != want[first + i])
            return ::testing::AssertionFailure()
                   << "row " << first + i << " is "
                   << ((col[i >> 6] >> (i & 63)) & 1) << ", want "
                   << int{want[first + i]};
    if ((count & 63) && (col[count >> 6] >> (count & 63)) != 0)
        return ::testing::AssertionFailure() << "tail bits set";
    return ::testing::AssertionSuccess();
}

/**
 * Every signal of @p sigs over every window of @p windows, through
 * each implementation's generator and the dispatched row-blocked
 * driver, against the definition.
 */
void
expectWindowsMatchDefinition(
    const ActivityEngine &engine, std::span<const ActivityFrame> frames,
    std::span<const uint32_t> table,
    const std::vector<std::pair<size_t, size_t>> &windows,
    const std::vector<uint32_t> &sigs, const std::string &label)
{
    std::vector<std::vector<uint8_t>> want;
    for (const uint32_t sig : sigs)
        want.push_back(ref::toggleColumn(engine, frames, sig, table));
    BitColumnMatrix blocked;
    for (const auto &[first, count] : windows) {
        fillToggleColumns(engine, frames, table, first, count, sigs,
                          blocked);
        for (size_t k = 0; k < sigs.size(); ++k)
            ASSERT_TRUE(columnMatches(blocked.colWords(k), want[k], first,
                                      count))
                << label << " blocked window=[" << first << ",+" << count
                << ") sig=" << sigs[k];
        for (const Impl impl : availableImpls()) {
            ToggleColumnGenerator gen(engine, impl);
            gen.bind(frames, table, first, count);
            std::vector<uint64_t> col(gen.wordCount());
            for (size_t k = 0; k < sigs.size(); ++k) {
                gen.fillColumn(sigs[k], col.data());
                ASSERT_TRUE(
                    columnMatches(col.data(), want[k], first, count))
                    << label << " " << togglekernels::implName(impl)
                    << " window=[" << first << ",+" << count
                    << ") sig=" << sigs[k];
            }
        }
    }
}

std::vector<uint32_t>
allSignals(const Netlist &netlist)
{
    std::vector<uint32_t> ids(netlist.signalCount());
    for (uint32_t s = 0; s < netlist.signalCount(); ++s)
        ids[s] = s;
    return ids;
}

TEST(ToggleKernels, DrawsMatchScalarFormula)
{
    // With baseRate 0, actSensitivity 1, dataSensitivity 0 and data 0
    // the Toggle rule's threshold is clamp(act, 0, 0.95). A row whose
    // act is its own draw must not pass, and one ulp above it must
    // exactly when the draw is below 0.95: that pins every kernel's
    // draw to hashToUnitFloat(hashCombine(seed, cycle)) bit for bit,
    // over contiguous and arbitrary cycle stamps.
    Signal sig;
    sig.baseRate = 0.0f;
    sig.actSensitivity = 1.0f;
    sig.dataSensitivity = 0.0f;
    Xoshiro256StarStar rng(42);
    for (const Impl impl : availableImpls()) {
        const togglekernels::FillFn fill = togglekernels::implFill(impl);
        for (const uint64_t seed : {0ULL, 0x6a6aULL, ~0ULL, 0x12345ULL}) {
            for (const size_t n : {1, 7, 8, 9, 15, 16, 17, 63, 64, 65,
                                   130}) {
                for (const bool contiguous : {true, false}) {
                    const size_t words = (n + 63) / 64;
                    std::vector<uint64_t> cycles(words * 64, 0);
                    std::vector<float> draws(n);
                    for (size_t i = 0; i < n; ++i) {
                        cycles[i] = contiguous ? seed * 977 + 5 + i : rng();
                        draws[i] = hashToUnitFloat(
                            hashCombine(seed, cycles[i]));
                    }
                    std::vector<uint32_t> src(words * 64);
                    for (size_t i = 0; i < src.size(); ++i)
                        src[i] = static_cast<uint32_t>(i);
                    std::vector<uint64_t> mask(words, ~0ULL);
                    if (n & 63)
                        mask.back() = (1ULL << (n & 63)) - 1;
                    const std::vector<float> data(words * 64, 0.0f);

                    for (const bool above : {false, true}) {
                        std::vector<float> act(words * 64, 0.0f);
                        for (size_t i = 0; i < n; ++i)
                            act[i] = above ? std::nextafter(draws[i], 2.0f)
                                           : draws[i];
                        std::vector<uint64_t> out(words);
                        const togglekernels::Binding binding{
                            act.data(), data.data(), mask.data(),
                            out.data()};
                        togglekernels::Column c;
                        c.rule = togglekernels::Rule::Toggle;
                        c.seed = seed;
                        c.sig = &sig;
                        c.cycles = cycles.data();
                        c.src = src.data();
                        c.words = words;
                        c.bindings = &binding;
                        c.bindingCount = 1;
                        fill(c);
                        std::vector<uint8_t> want(n);
                        for (size_t i = 0; i < n; ++i)
                            want[i] = above && draws[i] < 0.95f;
                        ASSERT_TRUE(columnMatches(out.data(), want, 0, n))
                            << togglekernels::implName(impl)
                            << " seed=" << seed << " n=" << n
                            << " contiguous=" << contiguous
                            << " above=" << above;
                    }
                }
            }
        }
    }
}

TEST(ToggleKernels, EdgeValuesMatchActivityEngine)
{
    // DatasetBuilder::addFrames accepts any frame, so the kernels meet
    // NaN, infinities, signed zeros, denormals, and activity and data
    // outside [0, 1].
    const float inf = std::numeric_limits<float>::infinity();
    const float edge[] = {std::numeric_limits<float>::quiet_NaN(),
                          inf,
                          -inf,
                          -0.0f,
                          0.0f,
                          -0.5f,
                          1.5f,
                          1e30f,
                          -1e-40f,
                          1e-40f,
                          0.999f,
                          std::nextafter(0.999f, 0.0f),
                          1.0f,
                          0.5f};
    const Netlist netlist = DesignBuilder::build(DesignConfig::tiny());
    const ActivityEngine engine(netlist);
    Xoshiro256StarStar rng(0xed9e);
    std::vector<ActivityFrame> frames(300);
    std::vector<uint32_t> table(frames.size());
    for (size_t i = 0; i < frames.size(); ++i) {
        frames[i].cycle = i;
        table[i] = i < 140 ? 0 : 140;
        for (size_t u = 0; u < numUnits; ++u) {
            frames[i].activity[u] = edge[rng() % std::size(edge)];
            frames[i].dataToggle[u] = edge[rng() % std::size(edge)];
            frames[i].clockEnabled[u] = rng() % 100 < 90;
        }
    }
    expectWindowsMatchDefinition(engine, frames, table,
                                 {{0, 300}, {3, 200}, {139, 40}},
                                 allSignals(netlist), "edge values");
}

/** The first signal of the tiny design that @p pick accepts. */
uint32_t
findSignal(const Netlist &netlist,
           const std::function<bool(const Signal &)> &pick)
{
    for (uint32_t s = 0; s < netlist.signalCount(); ++s)
        if (pick(netlist.signal(s)))
            return s;
    ADD_FAILURE() << "no such signal in the tiny design";
    return 0;
}

/**
 * The input @p v with f(v) == target bit for bit, stepping by one ulp
 * from @p v0 toward it; nullopt when f steps over the target.
 */
std::optional<float>
solveTie(const std::function<float(float)> &f, float target, float v0)
{
    const float inf = std::numeric_limits<float>::infinity();
    float v = v0;
    const bool up = f(v) < target;
    for (int step = 0; step < 4096 && f(v) != target; ++step) {
        if ((f(v) < target) != up)
            return std::nullopt;
        v = std::nextafter(v, up ? inf : -inf);
    }
    if (f(v) != target)
        return std::nullopt;
    return v;
}

TEST(ToggleKernels, ExactTiesDoNotToggle)
{
    // Step a row's activity (data for a bus bit) by ulps until its
    // threshold equals that row's draw bit for bit: `draw < threshold`
    // is then false, so the row must not toggle on any kernel.
    const Netlist netlist = DesignBuilder::build(DesignConfig::tiny());
    const ActivityEngine engine(netlist);
    constexpr size_t n = 512;

    const auto gated = findSignal(netlist, [](const Signal &s) {
        return s.kind == SignalKind::GatedClock;
    });
    const auto flop = findSignal(netlist, [](const Signal &s) {
        return (s.kind == SignalKind::FlipFlop ||
                s.kind == SignalKind::CombWire) &&
               s.actSensitivity > 0.1f && s.dataSensitivity > 0.1f &&
               s.latency > 0;
    });
    const auto bus_bit = findSignal(netlist, [](const Signal &s) {
        return s.kind == SignalKind::BusBit;
    });

    for (const uint32_t sig_id : {gated, flop, bus_bit}) {
        const Signal &sig = netlist.signal(sig_id);
        const auto u = static_cast<size_t>(sig.unit);
        std::vector<ActivityFrame> frames = enabledFrames(n, sig_id);
        const size_t lat =
            sig.kind == SignalKind::GatedClock ? 0 : sig.latency;
        std::vector<size_t> ties;
        for (size_t i = lat; i < n; ++i) {
            ActivityFrame &src = frames[i - lat];
            const float draw = hashToUnitFloat(
                hashCombine(engine.signalDrawSeed(sig_id),
                            frames[i].cycle));
            std::optional<float> v;
            if (sig.kind == SignalKind::GatedClock) {
                v = solveTie(ActivityEngine::gatedClockThreshold, draw,
                             (draw - 0.18f) / 0.82f);
                if (v && *v < 0.999f)
                    src.activity[u] = *v;
                else
                    v.reset();
            } else if (sig.kind == SignalKind::BusBit) {
                // Open the bus event gate, then tie the bit's draw.
                src.activity[u] = 1.0f;
                const float ev = hashToUnitFloat(hashCombine(
                    engine.busDrawSeed(sig.busId), frames[i].cycle));
                const float es =
                    netlist.bus(static_cast<size_t>(sig.busId))
                        .eventSensitivity;
                if (ev < ActivityEngine::busEventThreshold(es, 1.0f))
                    v = solveTie(ActivityEngine::busBitThreshold, draw,
                                 (draw - 0.35f) / 0.65f);
                if (v)
                    src.dataToggle[u] = *v;
            } else if (draw < 0.95f) {
                // Every operator of the threshold rounds at data 0.3, so
                // a kernel that fused a multiply and an add would move
                // some of these ties off the draw.
                src.dataToggle[u] = 0.3f;
                const float quiet =
                    1.0f - sig.dataSensitivity * (1.0f - 0.3f);
                v = solveTie(
                    [&](float a) {
                        return ActivityEngine::toggleProbability(sig, a,
                                                                 0.3f);
                    },
                    draw,
                    (draw - sig.baseRate) / (sig.actSensitivity * quiet));
                if (v)
                    src.activity[u] = *v;
            }
            if (v)
                ties.push_back(i);
        }
        ASSERT_GE(ties.size(), 32u)
            << signalKindName(sig.kind) << ": too few exact ties";

        const std::vector<uint8_t> want =
            ref::toggleColumn(engine, frames, sig_id);
        for (const size_t i : ties)
            ASSERT_EQ(want[i], 0) << "the definition toggles on a tie";
        expectWindowsMatchDefinition(engine, frames, {}, {{0, n}},
                                     {sig_id},
                                     signalKindName(sig.kind));
    }
}

TEST(ToggleKernels, GroupCrossingSegmentStartLoadsEveryLane)
{
    // A segment that starts inside a 16-row group right after a long
    // segment clamps the lookback: a latency-2 signal's source rows
    // step +3, 0, 0 there, so the group's first and last lanes are
    // still 15 rows apart, as in a consecutive run. Only a lane-by-lane
    // check sends the group to the gather.
    const Netlist netlist = DesignBuilder::build(DesignConfig::tiny());
    const ActivityEngine engine(netlist);
    std::vector<uint32_t> lagged;
    for (uint32_t s = 0; s < netlist.signalCount(); ++s)
        if (netlist.signal(s).latency == 2)
            lagged.push_back(s);
    ASSERT_FALSE(lagged.empty());

    const std::vector<ActivityFrame> frames = enabledFrames(256, 0x5e9);
    for (size_t start = 129; start < 144; ++start) {
        std::vector<uint32_t> table(frames.size(), 0);
        for (size_t i = start; i < frames.size(); ++i)
            table[i] = static_cast<uint32_t>(start);
        expectWindowsMatchDefinition(
            engine, frames, table, {{0, 256}, {1, 255}, {start - 70, 90}},
            lagged, "segment start " + std::to_string(start));
    }
}

TEST(ToggleKernels, OddWindowsAndCycleStampsMatchActivityEngine)
{
    // Windows of 1-130 rows at bind offsets off the 16-row grid, over
    // segments whose cycle stamps restart, jump, or run backwards.
    const Netlist netlist = DesignBuilder::build(DesignConfig::tiny());
    const ActivityEngine engine(netlist);
    Xoshiro256StarStar rng(0x0dd);
    std::vector<ActivityFrame> frames = enabledFrames(400, 0x0de);
    std::vector<uint32_t> table(frames.size());
    size_t begin = 0;
    for (size_t i = 0; i < frames.size(); ++i) {
        if (i == 90 || i == 150 || i == 151 || i == 260)
            begin = i;
        table[i] = static_cast<uint32_t>(begin);
        frames[i].clockEnabled[i % numUnits] = rng() % 4 != 0;
        if (i < 90)
            frames[i].cycle = 7 + i; // contiguous
        else if (i < 150)
            frames[i].cycle = rng(); // arbitrary 64-bit stamps
        else if (i < 260)
            frames[i].cycle = i - 150; // restarted at 0
        else
            frames[i].cycle = 10'000 - i; // descending
    }
    std::vector<std::pair<size_t, size_t>> windows;
    for (const size_t first : {1, 5, 17, 33, 63, 70, 129, 149, 200, 259})
        for (const size_t count : {1, 2, 15, 16, 17, 31, 63, 64, 65, 127,
                                   128, 129, 130})
            if (first + count <= frames.size())
                windows.emplace_back(first, count);
    expectWindowsMatchDefinition(engine, frames, table, windows,
                                 allSignals(netlist), "odd windows");
}

TEST(ToggleKernels, BindingsMatchSingleBindingFills)
{
    // R = 1-17 runs with shared cycle stamps and unequal lengths, bound
    // at once: each kernel call fills every run's column from one set
    // of draws. Some runs disable a unit over whole 16-row groups and
    // words, so a group's mask slice is zero in only some bindings,
    // and rows past a short run's end are masked. Every binding must
    // equal its run's single-run fill and the definition.
    const Netlist netlist = DesignBuilder::build(DesignConfig::tiny());
    const ActivityEngine engine(netlist);
    const std::vector<uint32_t> sigs = allSignals(netlist);
    constexpr size_t kRuns = 17;
    static constexpr size_t kLengths[] = {150, 1,  64, 65, 63, 17, 130,
                                          16,  15, 129, 128, 2, 100, 150,
                                          31,  33, 140};
    Xoshiro256StarStar rng(0xb1d);
    std::vector<std::vector<ActivityFrame>> runs(kRuns);
    std::vector<std::vector<std::vector<uint8_t>>> want(kRuns);
    for (size_t r = 0; r < kRuns; ++r) {
        runs[r] = enabledFrames(kLengths[r], 0xb1e + r);
        for (size_t i = 0; i < runs[r].size(); ++i) {
            runs[r][i].cycle = 4000 + 3 * i; // shared by every run
            for (size_t u = 0; u < numUnits; ++u) {
                const bool group_off = (r + u) % 3 == 0 && (i / 16) % 2 == 0;
                const bool word_off = (r + u) % 5 == 1 && i < 64;
                runs[r][i].clockEnabled[u] =
                    !group_off && !word_off && rng() % 8 != 0;
            }
        }
        for (const uint32_t sig : sigs)
            want[r].push_back(ref::toggleColumn(engine, runs[r], sig));
    }

    for (const Impl impl : availableImpls()) {
        ToggleColumnGenerator multi(engine, impl);
        ToggleColumnGenerator single(engine, impl);
        for (const size_t first : {size_t{0}, size_t{17}}) {
            // Each run's single-run fill of every signal, once.
            std::vector<std::vector<std::vector<uint64_t>>> alone(kRuns);
            for (size_t r = 0; r < kRuns; ++r) {
                if (runs[r].size() <= first)
                    continue;
                single.bind(runs[r], {}, first, runs[r].size() - first);
                for (const uint32_t sig : sigs) {
                    alone[r].emplace_back(single.wordCount());
                    single.fillColumn(sig, alone[r].back().data());
                }
            }
            for (size_t nb = 1; nb <= kRuns; ++nb) {
                const std::vector<std::span<const ActivityFrame>> bound(
                    runs.begin(), runs.begin() + static_cast<long>(nb));
                size_t longest = 0;
                for (const auto &run : bound)
                    longest = std::max(longest, run.size());
                if (first >= longest)
                    continue;
                const size_t count = longest - first;
                multi.bindRuns(bound, first, count);
                const size_t words = multi.wordCount();
                std::vector<uint64_t> cols(nb * words);
                std::vector<uint64_t *> outs(nb);
                for (size_t k = 0; k < nb; ++k)
                    outs[k] = cols.data() + k * words;
                for (size_t j = 0; j < sigs.size(); ++j) {
                    multi.fillColumns(sigs[j], outs.data());
                    for (size_t k = 0; k < nb; ++k) {
                        std::vector<uint8_t> padded = want[k][j];
                        padded.resize(first + count, 0);
                        ASSERT_TRUE(columnMatches(outs[k], padded, first,
                                                  count))
                            << togglekernels::implName(impl)
                            << " bindings=" << nb << " run=" << k
                            << " first=" << first << " sig=" << sigs[j];
                        if (alone[k].empty())
                            continue;
                        const std::vector<uint64_t> &one = alone[k][j];
                        for (size_t w = 0; w < words; ++w)
                            ASSERT_EQ(outs[k][w],
                                      w < one.size() ? one[w] : 0)
                                << togglekernels::implName(impl)
                                << " bindings=" << nb << " run=" << k
                                << " first=" << first << " word=" << w
                                << " sig=" << sigs[j];
                    }
                }
            }
        }
    }
}

TEST(ToggleKernels, BindRunsRejectsMismatchedStamps)
{
    const Netlist netlist = DesignBuilder::build(DesignConfig::tiny());
    const ActivityEngine engine(netlist);
    std::vector<ActivityFrame> a = enabledFrames(80, 1);
    std::vector<ActivityFrame> b = enabledFrames(40, 2);
    for (size_t i = 0; i < b.size(); ++i)
        b[i].cycle = a[i].cycle;
    ToggleColumnGenerator gen(engine);
    const std::vector<std::span<const ActivityFrame>> runs = {a, b};
    EXPECT_NO_THROW(gen.bindRuns(runs, 0, 80));
    EXPECT_THROW(gen.bindRuns(runs, 0, 81), FatalError);
    b[39].cycle += 1;
    EXPECT_THROW(gen.bindRuns(runs, 0, 80), FatalError);
    EXPECT_NO_THROW(gen.bindRuns(runs, 40, 40)); // past b's end
}

} // namespace
} // namespace apollo
