#include "core/multi_cycle.hh"

#include "util/logging.hh"

namespace apollo {

namespace {

/** Segment sanity shared by inference and labels: monotone bounds that
 *  stay inside the @p rows cycles actually available. */
Status
checkSegments(std::span<const SegmentInfo> segments, size_t rows)
{
    for (const SegmentInfo &seg : segments) {
        if (seg.end < seg.begin)
            return Status::invalidArgument("segment '", seg.name,
                                           "' has end ", seg.end,
                                           " before begin ", seg.begin);
        if (seg.end > rows)
            return Status::outOfRange("segment '", seg.name, "' [",
                                      seg.begin, ", ", seg.end,
                                      ") exceeds the ", rows,
                                      " cycles available");
    }
    return Status::okStatus();
}

/** Shared Eq. (9) path: per-cycle linear sums, averaged per T-window. */
StatusOr<std::vector<float>>
predictWindowsImpl(const ApolloModel &model, const BitColumnMatrix &X,
                   uint32_t T, std::span<const SegmentInfo> segments,
                   ApolloModel::Layout layout)
{
    if (T < 1)
        return Status::invalidArgument("window size must be positive");
    if (Status st = checkSegments(segments, X.rows()); !st.ok())
        return st;
    // Per-cycle weighted sums without intercept (binary AND-accumulate).
    std::vector<float> per_cycle(X.rows());
    model.cycleSums(X, layout, 0.0f, per_cycle);

    std::vector<float> out;
    for (const SegmentInfo &seg : segments)
        WindowFold(T, model.intercept)
            .push(std::span<const float>(per_cycle).subspan(
                      seg.begin, seg.cycles()),
                  out);
    if (out.empty())
        return Status::invalidArgument(
            "no full windows at T=", T,
            " (every segment is shorter than the window)");
    return out;
}

} // namespace

void
WindowFold::push(std::span<const float> values, std::vector<float> &out)
{
    for (const float v : values) {
        acc_ += v;
        if (++phase_ == T_) {
            out.push_back(static_cast<float>(
                offset_ + acc_ / static_cast<double>(T_)));
            reset();
        }
    }
}

StatusOr<std::vector<float>>
MultiCycleModel::predictWindowsFull(
    const BitColumnMatrix &X, uint32_t T,
    std::span<const SegmentInfo> segments) const
{
    return predictWindowsImpl(base, X, T, segments,
                              ApolloModel::Layout::Full);
}

StatusOr<std::vector<float>>
MultiCycleModel::predictWindowsProxies(
    const BitColumnMatrix &Xq, uint32_t T,
    std::span<const SegmentInfo> segments) const
{
    return predictWindowsImpl(base, Xq, T, segments,
                              ApolloModel::Layout::Proxies);
}

MultiCycleModel
trainMultiCycle(const Dataset &train, uint32_t tau,
                const ApolloTrainConfig &config,
                const std::string &design_name)
{
    MultiCycleModel model;
    model.tau = tau;
    if (tau == 1) {
        model.base = trainApollo(train, config, design_name).model;
        return model;
    }
    const CountDataset agg = aggregateIntervals(train, tau);
    model.base =
        trainApolloOnCounts(agg, config, design_name).model;
    return model;
}

StatusOr<std::vector<float>>
windowAverageLabels(std::span<const float> y, uint32_t T,
                    std::span<const SegmentInfo> segments)
{
    if (T < 1)
        return Status::invalidArgument("window size must be positive");
    if (Status st = checkSegments(segments, y.size()); !st.ok())
        return st;
    std::vector<float> out;
    for (const SegmentInfo &seg : segments)
        WindowFold(T, 0.0).push(y.subspan(seg.begin, seg.cycles()), out);
    if (out.empty())
        return Status::invalidArgument(
            "no full windows at T=", T,
            " (every segment is shorter than the window)");
    return out;
}

} // namespace apollo
