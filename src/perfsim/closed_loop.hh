/**
 * @file
 * Closed-loop adaptive client driver.
 *
 * The paper's benchmarks are exercised by a client driver that
 * "generates and dispatches requests (with user-defined think time)
 * ... and can adapt the number of simultaneous clients according to
 * recently observed QoS results, to achieve the highest level of
 * throughput without overloading the servers" (Section 2.1).
 *
 * This module reimplements that driver against the station model: a
 * population of clients alternates think time and a request's journey
 * through the server; after each measurement epoch the population
 * grows while QoS holds and shrinks when it breaks. It serves as an
 * independent check on the open-loop bisection in throughput.hh - the
 * two must agree on sustainable throughput.
 */

#ifndef WSC_PERFSIM_CLOSED_LOOP_HH
#define WSC_PERFSIM_CLOSED_LOOP_HH

#include "perfsim/server_sim.hh"

namespace wsc {
namespace perfsim {

/** Adaptive-driver controls. */
struct ClosedLoopParams {
    unsigned initialClients = 8;
    unsigned maxClients = 100000;
    double thinkTimeMean = 1.0;   //!< seconds between a client's requests
    double epochSeconds = 15.0;   //!< QoS observation window
    unsigned epochs = 14;         //!< total adaptation epochs
    double growFactor = 1.3;      //!< population growth while QoS holds
    double shrinkFactor = 0.75;   //!< contraction on QoS violation

    /**
     * Degraded-mode client protocol. 0 (the default) disables the
     * request timer entirely, leaving the classic driver's event
     * sequence untouched. When positive, a request unanswered for this
     * many seconds is abandoned and retried with exponential backoff;
     * a client out of retries gives up and returns to thinking.
     */
    double requestTimeoutSeconds = 0.0;
    unsigned maxRetries = 2;
    double retryBackoffSeconds = 0.1; //!< first backoff; doubles after
};

/** Outcome of an adaptive run. */
struct ClosedLoopResult {
    double sustainedRps = 0.0;   //!< best QoS-passing epoch throughput
    unsigned clientsAtBest = 0;
    unsigned finalClients = 0;   //!< target population after the run
    unsigned finalLiveClients = 0; //!< clients actually alive at the end
    double p95AtBest = 0.0;
    /** Per-epoch traces (for inspection/tests/bit-identity gates). */
    std::vector<double> epochRps;
    std::vector<bool> epochPassed;
    std::vector<std::uint64_t> epochCompleted;
    std::vector<std::uint64_t> epochViolations;
    std::vector<std::uint64_t> epochGiveups;
    /** Per-epoch p95 latency (0 for epochs with no completions). */
    std::vector<double> epochP95;
    // Degraded-mode protocol activity (all zero with the timer off).
    std::uint64_t timeouts = 0;
    std::uint64_t retries = 0;
    std::uint64_t giveups = 0;
    std::uint64_t lateCompletions = 0; //!< answered after abandonment
    /** DES kernel activity for the whole run. */
    sim::EventQueue::Counters kernel;
};

/**
 * Run the adaptive closed-loop driver for @p workload on @p stations.
 *
 * The hot path is allocation-free per request: request state lives in
 * a pooled RequestArena and continuations are InlineActions capturing
 * a context pointer plus a slot+generation handle (see DESIGN.md
 * "Request arena & inline actions").
 */
ClosedLoopResult runClosedLoop(workloads::InteractiveWorkload &workload,
                               const StationConfig &stations,
                               const ClosedLoopParams &params, Rng &rng);

} // namespace perfsim
} // namespace wsc

#endif // WSC_PERFSIM_CLOSED_LOOP_HH
