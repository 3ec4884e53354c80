/**
 * @file
 * The one rule for the process-wide kernel overrides (APOLLO_NO_AVX512,
 * APOLLO_NO_AVX2) that every runtime-dispatched kernel family reads:
 * util/bitvec_kernels, util/popcnt_kernels and activity/toggle_kernels.
 * An override is set when its value is non-empty and does not start
 * with '0' — "1", "yes", "true" and "2" all disable; unset, "" and "0"
 * do not.
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
