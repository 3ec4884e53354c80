/**
 * @file
 * ApolloModel: the per-cycle linear power model of Eq. (1) —
 *   p[i] = intercept + sum_j w_j * x_j[i]
 * over Q selected proxy signals. The same structure serves the
 * design-time estimator (float inference over toggle traces) and, after
 * quantization, the runtime OPM (src/opm).
 */

#ifndef APOLLO_CORE_APOLLO_MODEL_HH
#define APOLLO_CORE_APOLLO_MODEL_HH

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "util/bitvec.hh"
#include "util/status.hh"

namespace apollo {

/** The fitted per-cycle (or per-tau-interval) linear power model. */
struct ApolloModel
{
    /** Signal ids of the Q selected power proxies (dataset columns). */
    std::vector<uint32_t> proxyIds;
    /** One weight per proxy. */
    std::vector<float> weights;
    double intercept = 0.0;
    /** Name of the design this model was trained for. */
    std::string designName;

    size_t proxyCount() const { return proxyIds.size(); }

    /** Column layout of a matrix the model reads. */
    enum class Layout
    {
        /** All M signals: proxy q reads column proxyIds[q]. */
        Full,
        /** Proxy-only (emulator-assisted): proxy q reads column q. */
        Proxies,
    };

    /** sum_j |w_j| (Fig. 13 diagnostic). */
    double sumAbsWeights() const;

    /**
     * Predict per-cycle power over a *full* feature matrix (columns are
     * all M signals; only proxy columns are read).
     */
    std::vector<float> predictFull(const BitColumnMatrix &X) const;

    /**
     * Predict per-cycle power over a proxy-only matrix whose column q
     * corresponds to proxyIds[q] (the emulator-assisted layout).
     */
    std::vector<float> predictProxies(const BitColumnMatrix &Xq) const;

    /**
     * The one per-cycle float kernel: out[i] = @p start, then += w_q
     * for each set bit of row i in proxy q's column, in ascending q
     * (zero weights skipped), through bitkernels::weightedSumWords
     * (256-row blocks summed in registers across every proxy on
     * AVX-512, one axpy per proxy on the portable kernels; the same
     * bits either way). predictFull/predictProxies start from the
     * intercept; the Eq. (9) window paths and the windowed streaming
     * engine start from 0 and add the intercept once per window. Per
     * element the float additions do not depend on how rows are
     * chunked, so chunked results are bit-identical to batch ones.
     * Writes out[0, X.rows()); out.size() must be >= X.rows(). A
     * proxy-layout matrix must have exactly proxyCount() columns.
     */
    void cycleSums(const BitColumnMatrix &X, Layout layout, float start,
                   std::span<float> out) const;

    /**
     * Serialize / parse a small text format. Line 1 is
     * `apollo-model 1`, line 2 the whole designName (empty or with
     * spaces; save() throws FatalError for a name holding a newline),
     * then the count, intercept and one `id weight` entry per proxy.
     * load() returns ParseError for a bad header, a name line over
     * 4,096 bytes, a stream holding fewer entries than it declares
     * (without allocating for the declared count), an intercept or
     * weight that is not a finite number (`nan`, `inf`, `1e99`), a
     * malformed proxy id, or a repeated proxy id. Only whole tokens
     * parse: `1e`, `0x1p3` and `+1` are malformed.
     */
    void save(std::ostream &os) const;
    static StatusOr<ApolloModel> load(std::istream &is);
};

/**
 * Affine re-calibration (§6: the OPM accommodates "potential model
 * re-training using sign-off or hardware measurement power values"):
 * least-squares fit of truth ~ scale * prediction + offset, folded
 * back into the model's weights and intercept. Used to align a
 * deployed OPM with silicon measurements without re-selecting proxies.
 */
struct Calibration
{
    double scale = 1.0;
    double offset = 0.0;
};

/** Fit the affine correction from paired (truth, prediction) samples. */
Calibration fitCalibration(std::span<const float> truth,
                           std::span<const float> prediction);

/** Fold a calibration into a model (weights *= scale, intercept
 *  affine-adjusted). */
ApolloModel applyCalibration(const ApolloModel &model,
                             const Calibration &calibration);

} // namespace apollo

#endif // APOLLO_CORE_APOLLO_MODEL_HH
