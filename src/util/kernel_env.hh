/**
 * @file
 * The one process-wide kernel override, APOLLO_NO_AVX512, and the rule
 * every runtime-dispatched kernel family reads it by: util/bitvec_kernels,
 * util/popcnt_kernels, activity/toggle_kernels and
 * power/label_accumulator. When set, each family dispatches its portable
 * entry (popcount its scalar table). The override is set when its value
 * is non-empty and does not start with '0' — "1", "yes", "true" and "2"
 * all count; unset, "" and "0" do not.
 */

#ifndef APOLLO_UTIL_KERNEL_ENV_HH
#define APOLLO_UTIL_KERNEL_ENV_HH

#include <cstdlib>

namespace apollo {

/** True when the kernel override variable @p name is set (file docs). */
inline bool
kernelOverrideSet(const char *name)
{
    const char *v = std::getenv(name);
    return v && v[0] != '\0' && v[0] != '0';
}

} // namespace apollo

#endif // APOLLO_UTIL_KERNEL_ENV_HH
