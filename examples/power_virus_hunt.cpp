/**
 * @file
 * Power-virus hunting with the GA micro-benchmark generator (§4.1,
 * GeST-style): evolve instruction sequences toward the worst-case
 * power consumer of a design, then inspect what the virus stresses and
 * how much headroom the throttling schemes claw back.
 *
 * This is the design-time workflow a power architect runs to size the
 * power-delivery network and validate max-power mitigation.
 *
 * Run: ./examples/power_virus_hunt
 */

#include <cstdio>
#include <vector>

#include "apollo.hh"
#include "gen/fitness_eval.hh"

using namespace apollo;

namespace {

/**
 * Ground-truth average power of @p prog's first @p cycles cycles on a
 * core with @p params: the GA's fitness measure at every signal.
 */
double
averagePower(const DatasetBuilder &builder, const CoreParams &params,
             const Program &prog, uint64_t cycles)
{
    TimingCore core(params);
    std::vector<ActivityFrame> frames;
    core.run(prog, cycles,
             [&](const ActivityFrame &f) { frames.push_back(f); });
    return FitnessEvaluator(builder.netlist(), builder.engine(),
                            builder.oracle())
        .averagePower(frames);
}

} // namespace

int
main()
{
    const Netlist netlist = DesignBuilder::build(DesignConfig::tiny());
    DatasetBuilder builder(netlist);

    std::printf("hunting the power virus of '%s' (%zu signals)...\n",
                netlist.name().c_str(), netlist.signalCount());

    GaConfig config;
    config.populationSize = 24;
    config.generations = 10;
    config.fitnessCycles = 400;
    GaGenerator ga(builder, config);
    ga.run();

    // Envelope per generation.
    std::printf("\ngeneration envelope (max avg power):\n");
    for (uint32_t gen = 0; gen < config.generations; ++gen) {
        double best = 0.0;
        for (const GaIndividual &ind : ga.all())
            if (ind.generation == gen)
                best = std::max(best, ind.avgPower);
        std::printf("  gen %2u: %.3f %s\n", gen, best,
                    std::string(static_cast<size_t>(best * 8), '#')
                        .c_str());
    }

    const GaIndividual &virus = ga.best();
    std::printf("\npower virus (avg power %.3f, %.1fx the weakest "
                "individual):\n",
                virus.avgPower,
                ga.powerRangeRatio());
    const Program virus_prog =
        GaGenerator::toProgram(virus, "virus", 2000);
    std::printf("%s\n", virus_prog.toString().c_str());

    // What does it stress? Compare against the handcrafted virus.
    const double handcrafted = averagePower(
        builder, builder.coreParams(),
        Program::makeLoop("handcrafted", maxPowerBody(), 2000, 7), 400);
    std::printf("handcrafted max-power kernel: %.3f -> the GA %s it "
                "by %.1f%%\n",
                handcrafted,
                virus.avgPower >= handcrafted ? "beats" : "trails",
                100.0 * (virus.avgPower - handcrafted) / handcrafted);

    // Throttling headroom: the N1 TRM-style schemes applied to the
    // evolved virus.
    std::printf("\nthrottling the virus (max-power mitigation):\n");
    for (auto [mode, name] :
         {std::pair{ThrottleMode::None, "no throttle"},
          std::pair{ThrottleMode::Scheme1, "scheme 1 (issue cap 2)"},
          std::pair{ThrottleMode::Scheme2, "scheme 2 (duty cycle)"},
          std::pair{ThrottleMode::Scheme3, "scheme 3 (vector limit)"}}) {
        CoreParams params;
        params.throttle = mode;
        const double power =
            averagePower(builder, params, virus_prog, 400);
        std::printf("  %-24s avg power %.3f (%.1f%% of unthrottled)\n",
                    name, power, 100.0 * power / virus.avgPower);
    }
    return 0;
}
