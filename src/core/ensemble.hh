/**
 * @file
 * Couples the closed-form diurnal model to the measured ensemble DES.
 *
 * core/diurnal.hh prices the three ensemble power policies by the
 * hour — a queueing-free, latency-free account. perfsim/ensemble_sim
 * simulates the same fleet server by server, where consolidation pays
 * for its energy win in wake-up latency and flash-crowd exposure. This
 * module runs both for every policy on the same DiurnalProfile and the
 * same per-server power envelope, ranks the policies by the measured
 * energy x QoS score, and converts results to the observability
 * report schema.
 */

#ifndef WSC_CORE_ENSEMBLE_HH
#define WSC_CORE_ENSEMBLE_HH

#include <string>
#include <vector>

#include "core/diurnal.hh"
#include "obs/run_report.hh"
#include "perfsim/ensemble_sim.hh"

namespace wsc {
namespace core {

/** Ensemble-DES evaluation knobs shared across the policy runs. */
struct EnsembleEvalParams {
    /** Closed-form model parameters; wattsPerServer scales the sleep
     * catalog, reserveMargin feeds the PowerOff autoscaler, and
     * servers sizes both fleets. */
    EnsembleEnergyParams energy;

    unsigned cells = 16;   //!< dispatch domains (model topology)
    unsigned shards = 1;   //!< cell blocks; caps workers (execution knob)
    unsigned workers = 1;  //!< threads (0 = min(shards, allowed CPUs))
    /** Event-ordering backend (execution knob; calendar by default,
     * heap as the oracle — results are byte-identical). */
    sim::QueueKind queue = sim::QueueKind::Calendar;
    unsigned hours = 24;
    /** Duty-cycle compression: simulated seconds per modeled hour. */
    double secondsPerHour = 5.0;
    /** Transition latencies on the compressed timescale. The catalog's
     * real-world values (30 s boot) would span whole compressed hours,
     * so the CLI path overrides them to compressed equivalents. */
    double sleepWakeSeconds = 0.5;
    double bootSeconds = 3.0;
    double idleToSleepSeconds = 1.0;

    double peakUtilization = 0.6;
    double powerCapWatts = 0.0; //!< 0 disables the ensemble cap
    perfsim::MmppConfig mmpp;   //!< flash-crowd bursts
    /** fast-mode/2 macro-event coalescing (sim/fast_mode.hh); off =
     * the exact engine, byte-identical reports. */
    sim::EnsembleFastConfig fast;
    /** Policies to evaluate; empty = all three (the default ranking).
     * A single entry turns rankEnsemblePolicies into a single-policy
     * run (wsc_eval --ensemble-policy). */
    std::vector<PowerPolicy> policies;
    std::uint64_t seed = 1;

    /** Platform-design coupling. A faster design serves each request
     * in less time: the mean service demand is divided by this
     * relative-performance factor (the design-space aggregate's perf
     * score), so --ensemble ranks policies on the fleet actually
     * being evaluated rather than a fixed reference server. 1.0 and
     * an empty name reproduce the uncoupled runs byte for byte. */
    double serviceDemandScale = 1.0;
    std::string designName; //!< report key `ensemble.design`
};

/** Measured + analytical evaluation of one policy. */
struct EnsemblePolicyOutcome {
    PowerPolicy policy = PowerPolicy::AlwaysOn;
    std::string design; //!< design the run was coupled to; may be ""
    perfsim::EnsembleResult measured;
    DiurnalEnergy analytical;
};

/** Map the analytical policy enum onto the simulator's. */
perfsim::EnsemblePolicy ensemblePolicy(PowerPolicy p);

/** Build the simulator configuration for one policy run. */
perfsim::EnsembleConfig ensembleConfig(const DiurnalProfile &profile,
                                       PowerPolicy policy,
                                       const EnsembleEvalParams &params);

/**
 * Run all three policies against @p profile (each also priced by the
 * closed-form model) and return them ranked by measured score —
 * kWh / QoS attainment, lower first. Every policy faces the
 * bit-identical arrival process, so offered counts match across rows.
 */
std::vector<EnsemblePolicyOutcome>
rankEnsemblePolicies(const DiurnalProfile &profile,
                     const EnsembleEvalParams &params);

/** Convert one outcome into its report form. */
obs::EnsembleReport ensembleReport(const EnsemblePolicyOutcome &outcome);

} // namespace core
} // namespace wsc

#endif // WSC_CORE_ENSEMBLE_HH
