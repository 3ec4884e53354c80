#include "core/proxy_selector.hh"

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace apollo {

namespace {

CdConfig
selectionCdConfig(const ProxySelectorConfig &config)
{
    CdConfig cd;
    cd.penalty.kind = config.kind;
    cd.penalty.gamma = config.gamma;
    cd.penalty.lambda2 = config.lambda2;
    cd.penalty.nonneg = config.nonneg;
    cd.maxSweeps = config.maxSweeps;
    cd.tol = config.tol;
    cd.screen = config.screen;
    return cd;
}

} // namespace

ProxySelection
selectProxies(const FeatureView &X, std::span<const float> y,
              const ProxySelectorConfig &config)
{
    APOLLO_REQUIRE(config.kind == PenaltyKind::Mcp ||
                       config.kind == PenaltyKind::Lasso,
                   "selection needs a sparsity-inducing penalty");

    const CdConfig cd = selectionCdConfig(config);
    CdSolver solver(X, y, {.parallel = config.parallel});

    ProxySelection selection;
    selection.sparseModel =
        solveForTargetQ(solver, cd, config.targetQ,
                        &selection.diagnostics);
    selection.proxyIds = selection.sparseModel.support();
    return selection;
}

StatusOr<ProxySelection>
selectProxiesSharded(const MappedShardSet &shards,
                     std::span<const float> y,
                     const ProxySelectorConfig &config,
                     ShardSelectionStats *stats)
{
    if (config.kind != PenaltyKind::Mcp &&
        config.kind != PenaltyKind::Lasso)
        return Status::invalidArgument(
            "selection needs a sparsity-inducing penalty");
    if (y.size() != shards.rows())
        return Status::invalidArgument("labels have ", y.size(),
                                       " rows, shard set has ",
                                       shards.rows());

    ShardedFeatureView view(shards, {.parallel = config.parallel});
    Status screened = view.screen(y);
    if (!screened.ok())
        return screened;

    // Seed the solver with the stats the screen pass already streamed
    // (its own lambdaMax / gradient-bootstrap passes would fault every
    // cold column back in from disk).
    SolverSeed seed;
    seed.gradY = view.stats().gradY;
    seed.lambdaMax = view.stats().lambdaMax;
    CdSolver solver(view, y, {.parallel = config.parallel},
                    std::move(seed));

    ProxySelection selection;
    selection.sparseModel = solveForTargetQ(
        solver, selectionCdConfig(config), config.targetQ,
        &selection.diagnostics);
    selection.proxyIds = selection.sparseModel.support();

    // Per-shard accounting. Admission counts reflect the first path
    // point (the screen that decides which columns ever become hot).
    const std::vector<uint64_t> admitted =
        view.stats().admittedAtFirstPoint(kLambdaPathFactor);
    ShardSelectionStats acc;
    acc.shardCount = shards.shardCount();
    acc.bytesMapped = shards.bytesMapped();
    acc.kktRescreens = selection.diagnostics.totalKktPasses;
    acc.kktDots = selection.diagnostics.totalKktDots;
    acc.peakStrongSize = selection.diagnostics.peakStrongSize;
    for (uint32_t k = 0; k < shards.shardCount(); ++k) {
        const uint64_t scanned = view.stats().colsScanned[k];
        acc.colsScanned += scanned;
        acc.screenAdmitted += admitted[k];
        acc.screenDropped += scanned - admitted[k];
        if (APOLLO_OBS_ON() && scanned > 0)
            APOLLO_OBSERVE("apollo.solver.shard.admit_rate",
                           static_cast<double>(admitted[k]) /
                               static_cast<double>(scanned),
                           ::apollo::obs::ratioBounds());
    }
    APOLLO_COUNT("apollo.solver.shard.selections", 1);
    APOLLO_COUNT("apollo.solver.shard.count", acc.shardCount);
    APOLLO_COUNT("apollo.solver.shard.cols_scanned", acc.colsScanned);
    APOLLO_COUNT("apollo.solver.shard.screen_admitted",
                 acc.screenAdmitted);
    APOLLO_COUNT("apollo.solver.shard.screen_dropped",
                 acc.screenDropped);
    APOLLO_COUNT("apollo.solver.shard.bytes_mapped", acc.bytesMapped);
    APOLLO_COUNT("apollo.solver.shard.kkt_rescreens", acc.kktRescreens);
    APOLLO_COUNT("apollo.solver.shard.kkt_dots", acc.kktDots);
    if (stats)
        *stats = acc;
    return StatusOr<ProxySelection>(std::move(selection));
}

} // namespace apollo
