/**
 * @file
 * Remote-access latency models and the slowdown computation.
 *
 * The paper derives 4 µs for a 4 KB page over a PCIe 2.0 x4 link
 * (published PCIe round-trip plus DRAM and bus-transfer latencies) and
 * 0.5 µs with the critical-block-first (CBF) optimization, where the
 * faulting access resumes as soon as the needed block arrives
 * (Figure 4b; Section 3.4 quotes 0.75 µs including DMA setup — we
 * expose both as named configurations).
 *
 * Execution slowdown for a workload:
 *
 *   slowdown = warm-miss rate * touches/second * stall seconds per miss
 *
 * i.e. the fraction of execution time spent stalled on remote fetches.
 */

#ifndef WSC_MEMBLADE_LATENCY_HH
#define WSC_MEMBLADE_LATENCY_HH

#include <string>

#include "memblade/replay.hh"
#include "memblade/trace.hh"

namespace wsc {
namespace memblade {

/** A remote-memory interconnect configuration. */
struct RemoteLink {
    std::string name;
    double stallSecondsPerMiss = 4.0e-6;

    /** PCIe 2.0 x4, full 4 KB page transferred before use. */
    static RemoteLink
    pcieX4()
    {
        return {"PCIe x4 (4 us)", 4.0e-6};
    }

    /** Critical-block-first: stall only until the needed block lands. */
    static RemoteLink
    cbf()
    {
        return {"CBF (0.5 us)", 0.5e-6};
    }

    /** CBF including DMA-setup overhead (Section 3.4 text). */
    static RemoteLink
    cbfWithSetup()
    {
        return {"CBF+setup (0.75 us)", 0.75e-6};
    }
};

/**
 * How a remote-page access is detected and the swap initiated.
 *
 * The baseline design detects the access as a TLB miss and runs a
 * light-weight software trap handler in the OS/hypervisor (Ekman &
 * Stenstrom); Section 4 floats hardware TLB handlers as an extension
 * that removes most of that cost.
 */
enum class TrapHandling {
    None,        //!< cost already folded into the link figure
    SoftwareTrap, //!< OS/hypervisor handler on every remote miss
    HardwareTlb  //!< dedicated hardware walker/initiator
};

/** Per-miss trap cost, seconds. */
double trapCostSeconds(TrapHandling handling);

/** A link with the detection/initiation cost added per miss. */
RemoteLink withTrapCost(const RemoteLink &base, TrapHandling handling);

/**
 * Execution slowdown (fractional, e.g. 0.047 = 4.7%) given replay
 * statistics, the workload's page-touch rate, and a link.
 *
 * Cold (first-touch) misses are excluded: in the real system they are
 * demand-zero or file-backed populations, not blade swaps.
 */
double slowdown(const ReplayStats &stats, const TraceProfile &profile,
                const RemoteLink &link);

} // namespace memblade
} // namespace wsc

#endif // WSC_MEMBLADE_LATENCY_HH
