/**
 * @file
 * Reference closed-loop driver (see closed_loop_oracle.cc).
 */

#ifndef WSC_ORACLES_CLOSED_LOOP_ORACLE_HH
#define WSC_ORACLES_CLOSED_LOOP_ORACLE_HH

#include "perfsim/closed_loop.hh"

namespace wsc {
namespace perfsim {

/**
 * The seed lambda-chain driver, the correctness oracle for the pooled
 * driver: per-request nested closures and a shared_ptr'd retry
 * control block, heap-allocating per request. runClosedLoop must
 * produce bit-identical ClosedLoopResults (same RNG draw order, same
 * event order, same kernel counters); bench_closed_loop and the
 * state-machine tests gate on that.
 */
ClosedLoopResult runClosedLoopOracle(
    workloads::InteractiveWorkload &workload,
    const StationConfig &stations, const ClosedLoopParams &params,
    Rng &rng);

} // namespace perfsim
} // namespace wsc

#endif // WSC_ORACLES_CLOSED_LOOP_ORACLE_HH
