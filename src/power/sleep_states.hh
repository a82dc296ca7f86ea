/**
 * @file
 * Server sleep-state power catalog.
 *
 * The paper's power model (component_power.hh) knows
 * two operating points: busy (activity-factor de-rated max) and idle
 * (the Fan et al. ~60%-of-busy floor of 2008-era hardware). The
 * ensemble simulator needs the rest of the ladder — a suspended state
 * a consolidation policy can park servers in, a powered-off state an
 * autoscaler can shut them down to, and the latencies to climb back
 * up — because wake-up time is exactly what the analytical diurnal
 * model cannot price and the measured policy ranking must.
 *
 * Defaults describe the paper's srvr-class machine: 52 W max
 * operational, 0.75 activity factor, 0.6 idle fraction (so 39 W busy
 * / 23.4 W idle), an ACPI-S3-style suspend holding DRAM refresh plus
 * the management controller, and a powered-off state where only the
 * management controller draws. Wake from suspend is seconds; a full
 * boot is tens of seconds — the asymmetry that makes PowerOff risky
 * under flash crowds and ConsolidateIdle the conservative middle.
 */

#ifndef WSC_POWER_SLEEP_STATES_HH
#define WSC_POWER_SLEEP_STATES_HH

namespace wsc {
namespace power {

/** Power draw and transition latencies of one server's sleep ladder. */
struct SleepStateCatalog {
    double busyWatts = 39.0;   //!< serving at the activity factor
    double idleWatts = 23.4;   //!< awake, nothing to serve
    double sleepWatts = 3.0;   //!< suspended (DRAM refresh + BMC)
    double offWatts = 0.5;     //!< powered off (BMC only)
    /** Draw while waking or booting; transitions burn near-busy
     * power without serving anything. */
    double transitionWatts = 39.0;

    double sleepWakeSeconds = 1.0; //!< suspend -> serving
    double bootSeconds = 30.0;     //!< off -> serving
    /** Governor timer: how long a server idles before suspending
     * (policies that use sleep states). */
    double idleToSleepSeconds = 2.0;

    /** Catalog scaled to a server of @p maxWatts max operational
     * power, keeping the default's activity factor, idle fraction,
     * and sleep/off floors proportional. */
    static SleepStateCatalog
    forServerWatts(double maxWatts)
    {
        SleepStateCatalog c;
        double f = maxWatts / 52.0;
        c.busyWatts *= f;
        c.idleWatts *= f;
        c.sleepWatts *= f;
        c.offWatts *= f;
        c.transitionWatts *= f;
        return c;
    }
};

} // namespace power
} // namespace wsc

#endif // WSC_POWER_SLEEP_STATES_HH
