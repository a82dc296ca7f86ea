/**
 * @file
 * Ensemble-DES tests: the sharded-queue determinism contract
 * (byte-identical reports at 1/2/8 shards, across worker counts, and
 * between the heap and calendar event-queue backends),
 * sleep-state wake-latency accounting, MMPP burst rates, power-cap
 * clamping, zero-load hours, the policy energy ordering, config
 * validation, cross-commit report-byte digests of both engines,
 * latency-histogram overflow reporting, and the fast-mode/2
 * macro-event engine's own contract:
 * per-seed bit-identity across execution knobs, the report stamp,
 * coarse statistical closeness to the exact engine, and policy-
 * ordering preservation; and bench_ensemble's count-option checks,
 * run on the built bench.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/ensemble.hh"
#include "obs/run_report.hh"
#include "perfsim/ensemble_sim.hh"
#include "util/hash.hh"
#include "util/logging.hh"

using namespace wsc;
using namespace wsc::perfsim;

namespace {

std::array<double, 24>
internetProfile()
{
    return core::DiurnalProfile::internetService().hourly;
}

/** Shared base config: small enough to run in seconds, busy enough to
 * exercise spills, wakes, and the hour-boundary control plane. */
EnsembleConfig
baseConfig()
{
    EnsembleConfig cfg;
    cfg.servers = 2000;
    cfg.cells = 8;
    cfg.hours = 24;
    cfg.secondsPerHour = 2.0;
    cfg.profile = internetProfile();
    cfg.policy = EnsemblePolicy::PowerOff;
    cfg.mmpp.enabled = true;
    // Compressed-timescale transition latencies (a real 30 s boot
    // would span 15 compressed hours).
    cfg.power.bootSeconds = 1.0;
    cfg.power.sleepWakeSeconds = 0.25;
    cfg.power.idleToSleepSeconds = 0.5;
    return cfg;
}

/** The identity serialization the determinism contract is stated
 * over: the ensemble.* report section without wall-clock fields. */
std::string
identityJson(const EnsembleResult &r)
{
    core::EnsemblePolicyOutcome o;
    o.measured = r;
    obs::ReportOptions opts;
    opts.includeTimings = false;
    return obs::toJson(core::ensembleReport(o), opts);
}

/**
 * Cross-commit byte pin: the identity JSON of the three policies on
 * baseConfig() at 500 servers, plus a power-capped PowerOff run so the
 * cap branch of the autoscaler is covered. The other determinism tests
 * only compare runs of one build; these constants catch a refactor
 * that moves report bytes. A deliberate model change re-records them.
 */
void
expectPinnedBytes(bool fast, const std::array<std::uint64_t, 4> &want)
{
    EnsembleConfig cfg = baseConfig();
    cfg.servers = 500;
    cfg.fast.enabled = fast;
    const EnsemblePolicy policies[] = {EnsemblePolicy::AlwaysOn,
                                       EnsemblePolicy::ConsolidateIdle,
                                       EnsemblePolicy::PowerOff};
    for (std::size_t i = 0; i < 4; ++i) {
        cfg.policy = policies[std::min<std::size_t>(i, 2)];
        if (i == 3)
            cfg.powerCapWatts = 0.7 * cfg.servers * cfg.power.busyWatts;
        auto r = runEnsemble(cfg);
        if (i == 3) {
            EXPECT_GT(r.capClamps, 0u);
        }
        std::uint64_t digest = hashCombine(0, identityJson(r));
        EXPECT_EQ(digest, want[i])
            << "run " << i << ": 0x" << std::hex << digest;
    }
}

} // namespace

// The ISSUE acceptance bar: >= 10,000 servers over 24 simulated hours,
// byte-identical ensemble.* JSON at 1, 2, and 8 shards.
TEST(Ensemble, BitIdenticalAcrossShardCounts)
{
    EnsembleConfig cfg = baseConfig();
    cfg.servers = 10000;
    cfg.cells = 16;

    std::string ref;
    for (unsigned shards : {1u, 2u, 8u}) {
        cfg.shards = shards;
        auto r = runEnsemble(cfg);
        EXPECT_EQ(r.servers, 10000u);
        EXPECT_EQ(r.hours, 24u);
        EXPECT_GT(r.offered, 0u);
        std::string json = identityJson(r);
        if (ref.empty())
            ref = json;
        else
            EXPECT_EQ(json, ref) << "shards=" << shards;
    }
}

// Worker threads are an execution knob like shards: a multi-threaded
// run must reproduce the serial bytes. (This test is the TSan probe
// for the sharded queue's barrier protocol.)
TEST(Ensemble, BitIdenticalAcrossWorkerCounts)
{
    EnsembleConfig cfg = baseConfig();
    cfg.shards = 4;

    cfg.workers = 1;
    std::string serial = identityJson(runEnsemble(cfg));
    cfg.workers = 2;
    EXPECT_EQ(identityJson(runEnsemble(cfg)), serial);
    cfg.workers = 0; // min(shards, hardware)
    EXPECT_EQ(identityJson(runEnsemble(cfg)), serial);
}

// The event-queue backend is the third execution knob: the calendar
// queue must reproduce the heap oracle's bytes at every shard and
// worker count, because both dispatch the identical (time, seq)
// order. This is the cross-backend acceptance gate; the per-operation
// cross-check lives in test_calendar_queue.
TEST(Ensemble, BitIdenticalAcrossQueueBackends)
{
    EnsembleConfig cfg = baseConfig();
    cfg.queue = sim::QueueKind::Heap;
    std::string ref = identityJson(runEnsemble(cfg));

    cfg.queue = sim::QueueKind::Calendar;
    for (unsigned shards : {1u, 2u, 8u}) {
        cfg.shards = shards;
        for (unsigned workers : {1u, 2u}) {
            if (workers > shards)
                continue;
            cfg.workers = workers;
            EXPECT_EQ(identityJson(runEnsemble(cfg)), ref)
                << "calendar shards=" << shards
                << " workers=" << workers;
        }
    }
}

// Wake-up latency is the cost consolidation pays: the same fleet with
// a slow suspend->serving transition must complete jobs slower than
// one with a near-free transition, and the governor must actually be
// putting servers to sleep for that to show.
TEST(Ensemble, WakeLatencyShowsUpInRequestLatency)
{
    EnsembleConfig cfg = baseConfig();
    cfg.policy = EnsemblePolicy::ConsolidateIdle;
    cfg.mmpp.enabled = false;
    cfg.peakUtilization = 0.3; // plenty of idle time to sleep through

    cfg.power.sleepWakeSeconds = 1.0;
    auto slow = runEnsemble(cfg);
    cfg.power.sleepWakeSeconds = 1e-3;
    auto fast = runEnsemble(cfg);

    EXPECT_GT(slow.wakes, 100u);
    EXPECT_GT(fast.wakes, 100u);
    EXPECT_GT(slow.meanLatency, fast.meanLatency + 0.01);
    EXPECT_GT(slow.p99, fast.p99);
    // Waking time is accounted as its own state, not hidden.
    EXPECT_GT(slow.stateFractions[std::size_t(ServerState::Waking)],
              fast.stateFractions[std::size_t(ServerState::Waking)]);
}

// With equal calm/burst dwells and multiplier m, the MMPP's long-run
// arrival rate is (1 + m) / 2 times the base rate.
TEST(Ensemble, MmppBurstsRaiseOfferedLoad)
{
    EnsembleConfig cfg = baseConfig();
    cfg.policy = EnsemblePolicy::AlwaysOn;
    cfg.secondsPerHour = 4.0;
    cfg.profile = flatHourlyProfile();
    cfg.peakUtilization = 0.3; // headroom so bursts aren't clipped

    cfg.mmpp.enabled = false;
    auto calm = runEnsemble(cfg);

    cfg.mmpp.enabled = true;
    cfg.mmpp.burstMultiplier = 3.0;
    cfg.mmpp.calmMeanSeconds = 2.0;
    cfg.mmpp.burstMeanSeconds = 2.0;
    auto bursty = runEnsemble(cfg);

    double ratio = double(bursty.offered) / double(calm.offered);
    EXPECT_NEAR(ratio, 2.0, 0.2);
}

// Dead-of-night troughs are legitimate input: zero-load hours must
// neither crash nor poison the accounting.
TEST(Ensemble, ZeroLoadHoursRunClean)
{
    EnsembleConfig cfg = baseConfig();
    cfg.servers = 400;
    cfg.cells = 4;
    cfg.profile.fill(0.0);
    cfg.profile[12] = 0.8; // single busy hour mid-day

    auto r = runEnsemble(cfg);
    EXPECT_GT(r.offered, 0u);
    EXPECT_GT(r.completed, 0u);
    EXPECT_GT(r.kWhPerDay, 0.0);
    ASSERT_EQ(r.hourKWh.size(), 24u);
    EXPECT_GT(r.hourKWh[12], r.hourKWh[3]);

    // The degenerate all-zero day: nothing offered, attainment is
    // vacuously perfect, the fleet still burns floor power.
    cfg.profile.fill(0.0);
    auto dark = runEnsemble(cfg);
    EXPECT_EQ(dark.offered, 0u);
    EXPECT_DOUBLE_EQ(dark.qosAttainment, 1.0);
    EXPECT_GT(dark.kWhPerDay, 0.0);
}

// The ensemble power cap clamps the autoscaler's awake target and
// records every hour it bound.
TEST(Ensemble, PowerCapClampsAutoscaler)
{
    EnsembleConfig cfg = baseConfig();
    cfg.servers = 1000;
    cfg.mmpp.enabled = false;

    auto uncapped = runEnsemble(cfg);
    EXPECT_EQ(uncapped.capClamps, 0u);

    // Cap at roughly half the fleet's busy draw.
    cfg.powerCapWatts = 0.5 * cfg.servers * cfg.power.busyWatts;
    auto capped = runEnsemble(cfg);
    EXPECT_GT(capped.capClamps, 0u);
    EXPECT_LT(capped.meanAwakeServers, uncapped.meanAwakeServers);
    EXPECT_LT(capped.kWhPerDay, uncapped.kWhPerDay);
    EXPECT_LT(capped.qosAttainment, uncapped.qosAttainment);
}

// The core coupling: all three policies ride the bit-identical arrival
// process, energy orders PowerOff < ConsolidateIdle < AlwaysOn on a
// diurnal profile, and the ranking is sorted by score.
TEST(Ensemble, PolicyRankingOrdersEnergy)
{
    core::EnsembleEvalParams ep;
    ep.energy.servers = 1000;
    ep.cells = 8;
    ep.secondsPerHour = 2.0;
    ep.sleepWakeSeconds = 0.25;
    ep.bootSeconds = 1.0;
    ep.idleToSleepSeconds = 0.5;

    auto ranked = core::rankEnsemblePolicies(
        core::DiurnalProfile::internetService(), ep);
    ASSERT_EQ(ranked.size(), 3u);

    double kwh[3] = {};
    std::uint64_t offered[3] = {};
    for (const auto &o : ranked) {
        auto i = std::size_t(ensemblePolicy(o.policy));
        kwh[i] = o.measured.kWhPerDay;
        offered[i] = o.measured.offered;
        EXPECT_GT(o.analytical.kWhPerDay, 0.0);
        EXPECT_GT(o.measured.qosAttainment, 0.9);
    }
    EXPECT_EQ(offered[0], offered[1]);
    EXPECT_EQ(offered[1], offered[2]);
    using P = EnsemblePolicy;
    EXPECT_LT(kwh[std::size_t(P::PowerOff)],
              kwh[std::size_t(P::ConsolidateIdle)]);
    EXPECT_LT(kwh[std::size_t(P::ConsolidateIdle)],
              kwh[std::size_t(P::AlwaysOn)]);
    EXPECT_LE(ranked[0].measured.score, ranked[1].measured.score);
    EXPECT_LE(ranked[1].measured.score, ranked[2].measured.score);
}

// Report shape: state fractions partition server-time, hour arrays
// span the day, and the JSON section carries the policy name.
TEST(Ensemble, ReportAccountingCloses)
{
    EnsembleConfig cfg = baseConfig();
    cfg.servers = 500;
    auto r = runEnsemble(cfg);

    double sum = 0.0;
    for (double f : r.stateFractions)
        sum += f;
    EXPECT_NEAR(sum, 1.0, 1e-9);

    double hourSum = 0.0;
    for (double h : r.hourKWh)
        hourSum += h;
    EXPECT_NEAR(hourSum, r.kWhPerDay, 1e-6 * r.kWhPerDay);

    core::EnsemblePolicyOutcome o;
    o.policy = core::PowerPolicy::PowerOff;
    o.measured = r;
    std::string json = obs::toJson(core::ensembleReport(o));
    EXPECT_NE(json.find("\"policy\": \"power-off\""), std::string::npos);
    EXPECT_NE(json.find("\"state_fractions\""), std::string::npos);
    obs::ReportOptions noTimings;
    noTimings.includeTimings = false;
    std::string id = obs::toJson(core::ensembleReport(o), noTimings);
    // Timings and shard balance are execution observables: present
    // with the timing switch on, absent from the identity bytes.
    for (const char *key :
         {"\"wall_seconds\"", "\"shard_events\"", "\"window_imbalance\"",
          "\"phase_seconds\"", "\"barrier_wait\"", "\"lanes_stolen\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
        EXPECT_EQ(id.find(key), std::string::npos) << key;
    }
    EXPECT_EQ(r.shardEvents.size(), cfg.shards);
}

// Latencies past the histogram (4x the deadline) clamp the quantiles
// to its upper edge; both engines must count and report them instead
// of dropping them. A deadline far below the 0.25 s service mean puts
// most of the mass past the last bin.
TEST(Ensemble, LatencyOverflowReported)
{
    EnsembleConfig cfg = baseConfig();
    cfg.servers = 500;
    cfg.qosLatencySeconds = 0.05;
    for (bool fast : {false, true}) {
        cfg.fast.enabled = fast;
        auto r = runEnsemble(cfg);
        EXPECT_GT(r.latencyOverflow, 0u) << "fast=" << fast;
        double binWidth = 4.0 * cfg.qosLatencySeconds / 1024;
        EXPECT_DOUBLE_EQ(r.p99, 1024 * binWidth) << "fast=" << fast;
        EXPECT_NE(identityJson(r).find("\"overflow\""), std::string::npos)
            << "fast=" << fast;
    }
}

TEST(Ensemble, ReportBytesPinned)
{
    expectPinnedBytes(false,
                      {0x6c7dbd447dad66d2ULL, 0x22c0bc25f638d968ULL,
                       0xa4b848da0f1a9c68ULL, 0xa27589c91cdb7d6aULL});
}

TEST(EnsembleFast, ReportBytesPinned)
{
    expectPinnedBytes(true,
                      {0xe0e37148f551a0a9ULL, 0x9177b11e52c3b619ULL,
                       0xe6032ec77e71affdULL, 0xfb533e09ae5d00c6ULL});
}

// fast-mode/2 keeps the exact engine's execution-knob invariance: the
// macro-event engine must produce one byte stream per seed regardless
// of shards, workers, or event-queue backend, and reproduce it on a
// repeat run. (Bit-identity *across* engines is exactly what fast
// mode gives up; that boundary is gated statistically.)
TEST(EnsembleFast, BitIdenticalAcrossExecutionKnobs)
{
    EnsembleConfig cfg = baseConfig();
    cfg.fast.enabled = true;

    std::string ref = identityJson(runEnsemble(cfg));
    EXPECT_EQ(identityJson(runEnsemble(cfg)), ref) << "repeat run";

    for (auto kind : {sim::QueueKind::Heap, sim::QueueKind::Calendar})
        for (unsigned shards : {1u, 2u, 8u})
            for (unsigned workers : {1u, 2u}) {
                if (workers > shards)
                    continue;
                cfg.queue = kind;
                cfg.shards = shards;
                cfg.workers = workers;
                EXPECT_EQ(identityJson(runEnsemble(cfg)), ref)
                    << sim::queueKindName(kind) << " shards=" << shards
                    << " workers=" << workers;
            }
}

// The contract version is stamped into fast reports and absent from
// exact ones — exact-mode bytes must not move when the feature ships.
TEST(EnsembleFast, ContractStampedOnlyWhenEnabled)
{
    EnsembleConfig cfg = baseConfig();
    cfg.servers = 500;

    std::string exact = identityJson(runEnsemble(cfg));
    EXPECT_EQ(exact.find("\"fast_mode\""), std::string::npos);

    cfg.fast.enabled = true;
    std::string fast = identityJson(runEnsemble(cfg));
    EXPECT_NE(fast.find("\"fast_mode\": \"fast-mode/2\""),
              std::string::npos);
    EXPECT_NE(exact, fast);
}

// Coarse statistical closeness on one seed: not the real gate (that
// is bench_ensemble's permutation-KS + CI machinery over seed pools),
// but a cheap tripwire that catches gross engine divergence — wrong
// arrival law, broken energy integration, missing spill handling —
// in every ctest run.
TEST(EnsembleFast, TracksExactAggregates)
{
    EnsembleConfig cfg = baseConfig();

    cfg.fast.enabled = false;
    auto exact = runEnsemble(cfg);
    cfg.fast.enabled = true;
    auto fast = runEnsemble(cfg);

    auto rel = [](double a, double b) {
        return std::abs(a - b) / std::max(std::abs(a), 1e-12);
    };
    EXPECT_LT(rel(double(exact.offered), double(fast.offered)), 0.05);
    EXPECT_LT(rel(exact.kWhPerDay, fast.kWhPerDay), 0.05);
    EXPECT_LT(rel(exact.meanAwakeServers, fast.meanAwakeServers),
              0.05);
    EXPECT_LT(rel(exact.meanLatency, fast.meanLatency), 0.25);
    EXPECT_LT(std::abs(exact.qosAttainment - fast.qosAttainment),
              0.05);
    EXPECT_GT(fast.spilled, 0u);
    EXPECT_GT(fast.wakes, 0u);
    // The coalescing is the point: far fewer dispatched events than
    // the per-arrival engine for the same offered load.
    EXPECT_LT(fast.eventsDispatched, exact.eventsDispatched / 2);
}

// The paper's headline ordering must survive the macro-event engine.
TEST(EnsembleFast, PolicyEnergyOrderingPreserved)
{
    EnsembleConfig cfg = baseConfig();
    cfg.fast.enabled = true;

    cfg.policy = EnsemblePolicy::PowerOff;
    auto off = runEnsemble(cfg);
    cfg.policy = EnsemblePolicy::AlwaysOn;
    auto on = runEnsemble(cfg);

    EXPECT_LT(off.kWhPerDay, on.kWhPerDay);
    EXPECT_GT(off.offs, 0u);
    EXPECT_EQ(on.offs, 0u);
}

TEST(Ensemble, RejectsDegenerateConfigs)
{
    EnsembleConfig cfg = baseConfig();
    cfg.servers = 0;
    EXPECT_THROW(runEnsemble(cfg), PanicError);

    cfg = baseConfig();
    cfg.profile[7] = 1.5;
    EXPECT_THROW(runEnsemble(cfg), PanicError);

    cfg = baseConfig();
    cfg.secondsPerHour = 0.0;
    EXPECT_THROW(runEnsemble(cfg), PanicError);

    cfg = baseConfig();
    cfg.cells = 0;
    EXPECT_THROW(runEnsemble(cfg), PanicError);
}

// bench_ensemble rejects bad counts with a usage error (exit 1)
// before it simulates anything: an out-of-range one instead of the
// engine's config assert (an abort), a fraction instead of silently
// truncating it.
TEST(BenchEnsembleTool, RejectsBadCounts)
{
    const std::pair<const char *, const char *> cases[] = {
        {"--cells -1", "--cells must be a whole number"},
        {"--cells 2.5", "--cells must be a whole number"},
        {"--cells 20 --servers 10", "--cells must be a whole number"},
        {"--hours 30", "--hours must be a whole number in [1, 24]"},
        {"--hours 0.5", "--hours must be a whole number in [1, 24]"},
        {"--reps 1.5", "--reps must be a whole number in [1, 100]"},
    };
    std::string out = testing::TempDir() + "bench_ensemble_args.out";
    for (const auto &[args, message] : cases) {
        std::string cmd = std::string(WSC_BENCH_ENSEMBLE) + " " + args +
                          " --out " + testing::TempDir() +
                          "bench_ensemble_args.json > " + out + " 2>&1";
        int status = std::system(cmd.c_str());
        ASSERT_TRUE(WIFEXITED(status)) << args;
        EXPECT_EQ(WEXITSTATUS(status), 1) << args;
        std::ifstream in(out);
        std::stringstream text;
        text << in.rdbuf();
        EXPECT_NE(text.str().find(message), std::string::npos)
            << args << ": " << text.str();
    }
    std::remove(out.c_str());
}
