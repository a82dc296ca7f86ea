/**
 * @file
 * Closed-form queueing results for validating the discrete-event
 * models.
 *
 * test_queueing checks the DES resources (sim/resources.hh) against
 * these textbook formulas: if the DES disagrees with M/M/1 / M/M/c /
 * M/D/1 under matching assumptions, the simulator is wrong.
 */

#ifndef WSC_ORACLES_QUEUEING_HH
#define WSC_ORACLES_QUEUEING_HH

namespace wsc {
namespace sim {
namespace queueing {

/**
 * M/M/1 mean sojourn (wait + service) time.
 * @param lambda Arrival rate.
 * @param mu Service rate (> lambda).
 */
double mm1MeanSojourn(double lambda, double mu);

/** M/M/1 mean number in system. */
double mm1MeanInSystem(double lambda, double mu);

/** M/M/1 sojourn-time p-quantile (sojourn is exponential). */
double mm1SojournQuantile(double lambda, double mu, double p);

/** Erlang-C: probability an M/M/c arrival must wait. */
double erlangC(double lambda, double mu, unsigned servers);

/** M/M/c mean sojourn time. */
double mmcMeanSojourn(double lambda, double mu, unsigned servers);

/**
 * M/D/1 mean waiting time (deterministic service 1/mu), the
 * Pollaczek-Khinchine special case used by the blade-contention
 * model.
 */
double md1MeanWait(double lambda, double mu);

/**
 * Processor-sharing M/M/1: mean sojourn equals FIFO M/M/1 (a classic
 * result), provided for self-documenting call sites.
 */
double mm1PsMeanSojourn(double lambda, double mu);

} // namespace queueing
} // namespace sim
} // namespace wsc

#endif // WSC_ORACLES_QUEUEING_HH
