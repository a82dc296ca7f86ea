/**
 * @file
 * The versioned fast-mode execution contract.
 *
 * Exact mode (the default, and the only mode the bit-identity gates
 * run in) pins everything: the RNG draw sequence, the event schedule,
 * and the floating-point accumulation order. Even reordering two
 * independent draws changes the bits, which caps how much an exact
 * engine can be restructured for speed.
 *
 * A fast mode trades that bit-identity for *statistical* equivalence,
 * verified by a gate built on stats/equivalence.hh. What it may change
 * and what it must preserve is a declared, versioned contract (DESIGN.md
 * "Fast mode"); a run that used it stamps contractVersion() into its
 * JSON report, and exact-mode reports omit the field entirely. Bump
 * kVersion whenever the set of relaxations changes.
 *
 * One contract is live: fast-mode/2, the ensemble DES's macro-event
 * arrival coalescing (EnsembleFastConfig below). Version 1, batched
 * demand draws for the request engines, was retired once exact demand
 * draws became as cheap as its batches; its number is not reused.
 */

#ifndef WSC_SIM_FAST_MODE_HH
#define WSC_SIM_FAST_MODE_HH

#include <string>

namespace wsc {
namespace sim {

/**
 * The "fast-mode/2" contract: macro-event arrival coalescing for the
 * ensemble DES (perfsim/ensemble_fast.cc). Instead of one DES event
 * per request arrival (~30M for a 100k-server day), each dispatch
 * cell runs one macro-event per conservative lookahead window that
 *
 *  - synthesizes the window's arrivals segment by segment: Poisson
 *    counts drawn in one shot per constant-rate segment
 *    (SplitMix64::poisson, per-cell identity-seeded streams exactly
 *    as the exact engine), placed at sorted uniform order statistics
 *    via exponential spacings — exact for a piecewise-constant
 *    Poisson process. Segment boundaries are the window end, MMPP
 *    phase flips, and incoming cross-cell spill deliveries, so rate
 *    changes land mid-window exactly and spilled jobs interleave
 *    into the destination's FCFS order at their true delivery
 *    times (lookahead == network latency means every delivery into
 *    window W+1 is known when W's spills are staged at the barrier),
 *  - advances each server's queue with the Kiefer–Wolfowitz slot
 *    recursion (exact M/M/c FCFS start/completion times given the
 *    sampled arrivals and services), and
 *  - integrates energy and sleep-state residency lazily over a
 *    per-server timeline (transition → active → idle → sleep
 *    segments), with the idle-to-sleep governor evaluated as a
 *    deadline instead of a timer event.
 *
 * Sleep/wake/boot control, autoscaling and power-cap hour barriers,
 * MMPP phase flips, and cross-cell spill stay *real* DES events, so
 * sim::ShardedEventQueue's conservative windowed execution (and its
 * shard/worker bit-invariance) is untouched.
 *
 * Pinned (fast-mode/2 MUST preserve):
 *  - the arrival law: per-hour Poisson rates, MMPP burst modulation,
 *    exponential service draws — same distributions, same per-cell
 *    identity-seeded streams;
 *  - the energy model: per-state watts, transition energy, hour-bucket
 *    attribution, and the policy/autoscaler control plane at hour
 *    barriers;
 *  - QoS semantics: latency measured arrival→completion against the
 *    same deadline, attainment over the same population;
 *  - per-seed determinism: a seed reproduces the same fast run bit for
 *    bit at any shard/worker count and queue backend.
 *
 * Relaxed (fast-mode/2 MAY change):
 *  - event granularity: per-request arrival/completion/governor events
 *    are replaced by per-(cell, window) macro-events;
 *  - RNG draw order: segment counts then spacings then services, not
 *    the exact engine's per-arrival interleaving (same laws, different
 *    bits — gated statistically, stats/equivalence.hh);
 *  - arrival realizations at MMPP flips: the exact engine cancels the
 *    pending inter-arrival gap and redraws at the new rate
 *    (memoryless, so an exact rate change); fast-mode/2 closes the
 *    old-rate segment and opens a new-rate segment at the flip time —
 *    the same law, but a different realization from the same seed;
 *  - FP accumulation order of energy/latency aggregates.
 *
 * Verified by bench_ensemble's equivalence gate. Because cross-cell
 * spills and shared burst luck correlate every per-cell sample within
 * one seed's run, naive pooled-KS p-values are anti-conservative
 * (exact-vs-exact A/A pools fail them); the gate therefore uses
 * seed-block permutation KS tests (stats::blockPermutationKs — runs
 * are the exchangeable unit, per-run blocks mean-centered) on
 * per-cell day-aggregate utilization/latency at the bench config and
 * on per-cell-hour samples at a dynamics-resolving timescale
 * (secondsPerHour = 60), plus 95% CI overlap on per-seed kWh/day and
 * QoS attainment, and preservation of the policy energy ordering —
 * the gate's verdict is the bench exit code.
 */
struct EnsembleFastConfig {
    /** Off by default: exact per-arrival DES, bit-identical to PR-9. */
    bool enabled = false;

    /** Contract revision; bump when the relaxation set changes. */
    static constexpr unsigned kVersion = 2;

    /** Version string stamped into JSON reports of fast-mode runs. */
    static std::string
    contractVersion()
    {
        return "fast-mode/" + std::to_string(kVersion);
    }
};

} // namespace sim
} // namespace wsc

#endif // WSC_SIM_FAST_MODE_HH
