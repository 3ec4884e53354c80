/**
 * @file
 * Reference timing core (docs/INTERNALS.md §8, §15): the original
 * per-cycle loop of TimingCore::run, kept as the oracle for the flat
 * production core. The ROB is a deque of seqs, completion times live
 * in a hash map keyed by seq (a source not found there "retired long
 * ago"), and the fetch queue, issue queue, store buffer and long-latency
 * in-flight queues are deques. Every ActivityFrame field and CoreStats
 * counter the production core emits is defined to equal this loop's,
 * bit for bit (the uarch.core_frames differential path).
 */

#ifndef APOLLO_REF_REFERENCE_CORE_HH
#define APOLLO_REF_REFERENCE_CORE_HH

#include <cstdint>

#include "uarch/core.hh"

namespace apollo::ref {

/**
 * Simulate @p prog on a core configured by @p params exactly as
 * TimingCore(params).run(prog, max_cycles, sink, control) is defined
 * to: @p sink sees one frame per recorded cycle, @p control (may be
 * empty) runs right after it.
 */
CoreStats coreRun(const CoreParams &params, const Program &prog,
                  uint64_t max_cycles, const FrameSink &sink,
                  const ControlHook &control = {});

} // namespace apollo::ref

#endif // APOLLO_REF_REFERENCE_CORE_HH
