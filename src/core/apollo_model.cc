#include "core/apollo_model.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <type_traits>
#include <unordered_set>

#include "util/logging.hh"

namespace apollo {

double
ApolloModel::sumAbsWeights() const
{
    double acc = 0.0;
    for (float w : weights)
        acc += std::abs(w);
    return acc;
}

std::vector<float>
ApolloModel::predictFull(const BitColumnMatrix &X) const
{
    std::vector<float> out(X.rows());
    cycleSums(X, Layout::Full, static_cast<float>(intercept), out);
    return out;
}

std::vector<float>
ApolloModel::predictProxies(const BitColumnMatrix &Xq) const
{
    std::vector<float> out(Xq.rows());
    cycleSums(Xq, Layout::Proxies, static_cast<float>(intercept), out);
    return out;
}

void
ApolloModel::cycleSums(const BitColumnMatrix &X, Layout layout,
                       float start, std::span<float> out) const
{
    APOLLO_REQUIRE(proxyIds.size() == weights.size(),
                   "model arity mismatch");
    APOLLO_REQUIRE(layout == Layout::Full || X.cols() == proxyIds.size(),
                   "proxy matrix arity mismatch");
    APOLLO_REQUIRE(out.size() >= X.rows(), "output buffer too small");
    std::vector<const uint64_t *> cols(proxyIds.size());
    for (size_t q = 0; q < proxyIds.size(); ++q) {
        const size_t col = layout == Layout::Full ? proxyIds[q] : q;
        APOLLO_REQUIRE(col < X.cols(), "proxy id out of range");
        cols[q] = X.colWords(col);
    }
    bitkernels::weightedSumWords(cols.data(), weights.data(), cols.size(),
                                 X.wordsPerCol(), X.rows(), start,
                                 out.data());
}

void
ApolloModel::save(std::ostream &os) const
{
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    os << "apollo-model 1\n";
    os << designName << "\n";
    os << proxyIds.size() << " " << intercept << "\n";
    for (size_t q = 0; q < proxyIds.size(); ++q)
        os << proxyIds[q] << " " << weights[q] << "\n";
}

namespace {

/** Parse a whole token as a finite number: ParseError names @p what. */
template <typename T>
Status
parseToken(const std::string &token, const char *what, T &value)
{
    const char *end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (ec != std::errc() || ptr != end)
        return Status::parseError(what, " '", token, "' is not ",
                                  std::is_integral_v<T>
                                      ? "an unsigned integer"
                                      : "a finite number");
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(value))
            return Status::parseError(what, " '", token,
                                      "' is not a finite number");
    }
    return Status::okStatus();
}

} // namespace

StatusOr<ApolloModel>
ApolloModel::load(std::istream &is)
{
    std::string magic;
    std::string version;
    if (!(is >> magic >> version) || magic != "apollo-model" ||
        version != "1")
        return Status::parseError("not an apollo model file");
    ApolloModel model;
    std::string count_token;
    std::string intercept_token;
    if (!(is >> model.designName >> count_token >> intercept_token))
        return Status::parseError("truncated model header");
    size_t q = 0;
    if (Status st = parseToken(count_token, "proxy count", q); !st.ok())
        return st;
    if (Status st = parseToken(intercept_token, "intercept",
                               model.intercept);
        !st.ok())
        return st;
    // The declared count is untrusted: the vectors grow only with the
    // entries the stream actually holds.
    std::unordered_set<uint32_t> seen;
    for (size_t i = 0; i < q; ++i) {
        std::string id_token;
        std::string weight_token;
        if (!(is >> id_token >> weight_token))
            return Status::parseError("truncated model file: ", i, " of ",
                                      q, " proxy entries");
        uint32_t id = 0;
        float weight = 0.0f;
        if (Status st = parseToken(id_token, "proxy id", id); !st.ok())
            return st;
        if (Status st = parseToken(weight_token, "weight", weight);
            !st.ok())
            return st;
        if (!seen.insert(id).second)
            return Status::parseError("duplicate proxy id ", id,
                                      " in model file");
        model.proxyIds.push_back(id);
        model.weights.push_back(weight);
    }
    return model;
}

Calibration
fitCalibration(std::span<const float> truth,
               std::span<const float> prediction)
{
    APOLLO_REQUIRE(truth.size() == prediction.size() &&
                       truth.size() > 2,
                   "calibration arity mismatch");
    const auto n = static_cast<double>(truth.size());
    double sum_p = 0.0;
    double sum_t = 0.0;
    double sum_pp = 0.0;
    double sum_pt = 0.0;
    for (size_t i = 0; i < truth.size(); ++i) {
        sum_p += prediction[i];
        sum_t += truth[i];
        sum_pp += static_cast<double>(prediction[i]) * prediction[i];
        sum_pt += static_cast<double>(prediction[i]) * truth[i];
    }
    const double denom = n * sum_pp - sum_p * sum_p;
    Calibration cal;
    if (std::abs(denom) > 1e-12) {
        cal.scale = (n * sum_pt - sum_p * sum_t) / denom;
        cal.offset = (sum_t - cal.scale * sum_p) / n;
    } else {
        cal.scale = 1.0;
        cal.offset = (sum_t - sum_p) / n;
    }
    return cal;
}

ApolloModel
applyCalibration(const ApolloModel &model,
                 const Calibration &calibration)
{
    ApolloModel out = model;
    for (float &w : out.weights)
        w = static_cast<float>(w * calibration.scale);
    out.intercept =
        model.intercept * calibration.scale + calibration.offset;
    return out;
}

} // namespace apollo
