/**
 * @file
 * Fuzz target for ApolloModel::load, the text model format every CLI
 * command that serves or evaluates a model reads. Arbitrary bytes must
 * yield a model or a ParseError, never a throw, crash or an
 * allocation for an entry count the input does not hold. An accepted
 * model must be well formed (one finite weight per proxy, unique ids,
 * a finite intercept) and must survive save() and load() bit for bit.
 */

#include "fuzz/fuzz_driver.hh"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <unordered_set>

#include "core/apollo_model.hh"

namespace {

[[noreturn]] void
bug(const char *what)
{
    std::fprintf(stderr, "FUZZ-BUG: %s\n", what);
    std::abort();
}

} // namespace

void
apolloFuzzOne(const uint8_t *data, size_t size)
{
    std::istringstream is(
        std::string(reinterpret_cast<const char *>(data), size));
    apollo::StatusOr<apollo::ApolloModel> got =
        apollo::ApolloModel::load(is);
    if (!got.ok()) {
        if (got.status().code() != apollo::StatusCode::ParseError)
            bug("load failed with a code other than ParseError");
        return;
    }
    const apollo::ApolloModel &model = *got;
    if (model.weights.size() != model.proxyIds.size())
        bug("accepted model has one weight per proxy violated");
    if (!std::isfinite(model.intercept))
        bug("accepted model has a non-finite intercept");
    std::unordered_set<uint32_t> ids;
    for (size_t q = 0; q < model.proxyCount(); ++q) {
        if (!std::isfinite(model.weights[q]))
            bug("accepted model has a non-finite weight");
        if (!ids.insert(model.proxyIds[q]).second)
            bug("accepted model repeats a proxy id");
    }

    std::stringstream saved;
    model.save(saved);
    apollo::StatusOr<apollo::ApolloModel> again =
        apollo::ApolloModel::load(saved);
    if (!again.ok())
        bug("a saved model does not load");
    if (again->designName != model.designName ||
        again->proxyIds != model.proxyIds ||
        std::bit_cast<uint64_t>(again->intercept) !=
            std::bit_cast<uint64_t>(model.intercept))
        bug("save/load changed the model header or ids");
    for (size_t q = 0; q < model.proxyCount(); ++q)
        if (std::bit_cast<uint32_t>(again->weights[q]) !=
            std::bit_cast<uint32_t>(model.weights[q]))
            bug("save/load changed a weight");
}
