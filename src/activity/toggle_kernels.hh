/**
 * @file
 * The fused toggle-bit kernels behind ToggleColumnGenerator. For each
 * 64-row word of a column a kernel hashes the rows' cycle stamps into
 * unit draws, computes the signal kind's threshold from the unit
 * activity and data it reads through a lookback table, compares, and
 * ORs the results into one register word: no draw goes to memory.
 *
 * Two implementations share one contract and produce the same bits:
 *
 *  - Portable: one row at a time, through util/rng.hh's
 *    hashToUnitFloat(hashCombine(seed, cycle)) and ActivityEngine's
 *    inline threshold definitions.
 *  - Avx512 (AVX-512F/DQ): 16 rows per step, four __mmask16 compares
 *    per word. The draws are exact: integer hashing with the 64-bit
 *    lane multiply (vpmullq), a u32 -> float conversion of a value
 *    below 2^24, and a power-of-two scale. The thresholds use the
 *    same IEEE operations as the scalar definitions in the same
 *    order: one rounded mul, add or sub per source operator,
 *    std::clamp as max then min, and the definition's compare (an
 *    ordered-quiet `<`, or a negated `>=` for the bus event gate;
 *    the two differ only on NaN). That holds only because the library
 *    compiles with -ffp-contract=off, so no build fuses a multiply
 *    and an add (INTERNALS.md §5). A 16-row group reads its lookback
 *    rows with one vector load when every lane's source row is its
 *    predecessor's plus one, checked lane by lane, and with a gather
 *    otherwise.
 *
 * There is no AVX2 version: the draw needs AVX-512DQ's 64-bit lane
 * multiply. Dispatch: bestImpl() is resolved once per process, and
 * APOLLO_NO_AVX512 (util/kernel_env.hh) forces Portable. implFill()
 * reaches every available implementation for the equivalence tests
 * and the bench ablation.
 */

#ifndef APOLLO_ACTIVITY_TOGGLE_KERNELS_HH
#define APOLLO_ACTIVITY_TOGGLE_KERNELS_HH

#include <cstddef>
#include <cstdint>

#include "rtl/signal.hh"

namespace apollo::togglekernels {

/** The ActivityEngine threshold a column's draws are compared with. */
enum class Rule : uint8_t
{
    /** act >= 0.999f || draw < gatedClockThreshold(act) */
    GatedClock,
    /**
     * !(draw >= busEventThreshold(eventSensitivity, act)): the
     * definition's gate, which a NaN threshold leaves open.
     */
    BusEvent,
    /** draw < busBitThreshold(data) */
    BusBit,
    /** draw < toggleProbability(*sig, act, data) (flip-flop, wire) */
    Toggle,
};

/**
 * One column's inputs. Every row array covers words * 64 rows, whole
 * words, so no vector lane reads outside an allocation: row i draws
 * hashToUnitFloat(hashCombine(seed, cycles[i])) and reads
 * act[src[i]] and data[src[i]], and every src entry indexes inside
 * act and data.
 */
struct Column
{
    Rule rule = Rule::Toggle;
    uint64_t seed = 0;
    /** Toggle's constants (baseRate and sensitivities). */
    const Signal *sig = nullptr;
    /** BusEvent's constant. */
    float eventSensitivity = 0.0f;
    const uint64_t *cycles = nullptr;
    const uint32_t *src = nullptr;
    const float *act = nullptr;
    const float *data = nullptr;
    /** ANDed into each word; a zero mask slice skips its draws. */
    const uint64_t *mask = nullptr;
    size_t words = 0;
};

/**
 * out[w] = mask[w] & (bit b set iff row 64w+b passes its rule), for
 * w in [0, c.words).
 */
using FillFn = void (*)(const Column &c, uint64_t *out);

/** Implementations, in increasing ISA requirement order. */
enum class Impl : int { Portable = 0, Avx512 = 1 };
inline constexpr int kImplCount = 2;

/** True when the CPU (and build) can run @p impl. */
bool implAvailable(Impl impl);

/** Stable lowercase name ("portable", "avx512"). */
const char *implName(Impl impl);

/** Entry point of @p impl; requires implAvailable(impl). */
FillFn implFill(Impl impl);

/** Best available implementation after the override (cached). */
Impl bestImpl();

} // namespace apollo::togglekernels

#endif // APOLLO_ACTIVITY_TOGGLE_KERNELS_HH
