/**
 * @file
 * The parallel-evaluation determinism contract: fanning a sweep out
 * over a thread pool must produce bit-identical metrics to the serial
 * path, at every pool width. This is what lets BENCH results and
 * paper-table reproductions be compared across machines regardless of
 * --threads.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/design_space.hh"
#include "core/evaluator.hh"
#include "core/sweep_report.hh"
#include "obs/run_report.hh"
#include "perfsim/cluster_sim.hh"
#include "platform/catalog.hh"
#include "sim/fast_mode.hh"

namespace {

using namespace wsc;
using namespace wsc::core;

EvaluatorParams
fastParams()
{
    // Small windows keep the suite quick; determinism does not depend
    // on the window sizes.
    EvaluatorParams p;
    p.search.window.warmupSeconds = 1.0;
    p.search.window.measureSeconds = 4.0;
    p.search.iterations = 3;
    return p;
}

std::vector<EvalCell>
sweepCells()
{
    DesignSpaceOptions opts;
    opts.allPackaging = false;
    opts.allMemorySharing = false;
    opts.allStorage = false;
    std::vector<EvalCell> cells;
    for (const auto &d : enumerateDesigns(opts)) {
        cells.push_back({d, workloads::Benchmark::MapredWc});
        cells.push_back({d, workloads::Benchmark::Websearch});
    }
    return cells;
}

void
expectBitIdentical(const std::vector<EfficiencyMetrics> &a,
                   const std::vector<EfficiencyMetrics> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        // Bitwise comparison, not EXPECT_DOUBLE_EQ: the contract is
        // identity, not closeness.
        EXPECT_EQ(std::memcmp(&a[i].perf, &b[i].perf, sizeof(double)),
                  0)
            << "perf differs at cell " << i;
        EXPECT_EQ(
            std::memcmp(&a[i].watts, &b[i].watts, sizeof(double)), 0)
            << "watts differs at cell " << i;
        EXPECT_EQ(std::memcmp(&a[i].tcoDollars, &b[i].tcoDollars,
                              sizeof(double)),
                  0)
            << "tco differs at cell " << i;
    }
}

TEST(ParallelDeterminism, BatchMatchesSerialAtEveryWidth)
{
    auto cells = sweepCells();

    // Serial reference: plain evaluate() calls, no pool involved.
    DesignEvaluator ref(fastParams());
    std::vector<EfficiencyMetrics> serial;
    for (const auto &cell : cells)
        serial.push_back(ref.evaluate(cell.design, cell.benchmark));

    for (unsigned threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        DesignEvaluator ev(fastParams());
        auto batch = ev.evaluateBatch(cells, &pool);
        expectBitIdentical(serial, batch);
    }
}

TEST(ParallelDeterminism, FullDesignSpaceSweepMatchesSerial)
{
    // The whole 216-design screen on the batch workload, at the
    // stage-1 screening windows: the sweep wrapper itself, not only
    // the batch evaluator under it, must not depend on the pool width.
    EvaluatorParams params;
    params.search.window.warmupSeconds = 4.0;
    params.search.window.measureSeconds = 20.0;
    params.search.iterations = 7;
    auto designs = enumerateDesigns();
    ASSERT_EQ(designs.size(), 216u);

    ThreadPool serialPool(1), widePool(4);
    DesignEvaluator serialEval(params), wideEval(params);
    auto serial = evaluateSweep(serialEval, designs,
                                workloads::Benchmark::MapredWc,
                                &serialPool);
    auto wide = evaluateSweep(wideEval, designs,
                              workloads::Benchmark::MapredWc, &widePool);
    expectBitIdentical(serial.metrics, wide.metrics);
}

TEST(ParallelDeterminism, WarmCacheReturnsSameBits)
{
    auto cells = sweepCells();
    ThreadPool pool(4);
    DesignEvaluator ev(fastParams());
    auto cold = ev.evaluateBatch(cells, &pool);
    auto warm = ev.evaluateBatch(cells, &pool);
    expectBitIdentical(cold, warm);
}

TEST(ParallelDeterminism, DuplicateCellsShareOneSimulation)
{
    auto cells = sweepCells();
    auto doubled = cells;
    doubled.insert(doubled.end(), cells.begin(), cells.end());

    ThreadPool pool(4);
    DesignEvaluator ev(fastParams());
    auto out = ev.evaluateBatch(doubled, &pool);
    ASSERT_EQ(out.size(), doubled.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(out[i].perf, out[cells.size() + i].perf);
}

TEST(ParallelDeterminism, ReportJsonIdenticalAtEveryWidth)
{
    // The observability layer must not weaken the contract: with
    // wall-clock timings excluded, the serialized run report — latency
    // percentiles, station stats, kernel counters, rollup — is
    // byte-identical at every pool width.
    auto cells = sweepCells();
    obs::ReportOptions noTimings;
    noTimings.includeTimings = false;

    std::vector<std::string> reports;
    for (unsigned threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        DesignEvaluator ev(fastParams());
        ev.evaluateBatch(cells, &pool);
        auto report = buildSweepReport(ev, cells, "test");
        // Metric counters include nondeterministic-order-insensitive
        // sums only; cache-hit counts depend on batch vs report
        // replay, which is identical across widths here.
        reports.push_back(obs::toJson(report, noTimings));
    }
    ASSERT_EQ(reports.size(), 3u);
    EXPECT_EQ(reports[0], reports[1]);
    EXPECT_EQ(reports[0], reports[2]);
    // Sanity: the comparison is over real content.
    EXPECT_NE(reports[0].find("\"kernel\""), std::string::npos);
    EXPECT_NE(reports[0].find("\"p95\""), std::string::npos);
    EXPECT_NE(reports[0].find("\"bottleneck\""), std::string::npos);
    // Exact-mode reports must not mention fast mode at all — the
    // field's absence is what keeps them byte-identical to
    // pre-fast-mode output.
    EXPECT_EQ(reports[0].find("\"fast_mode\""), std::string::npos);
}

TEST(ParallelDeterminism, FastModeStampOnlyWhenEnabled)
{
    auto cells = sweepCells();
    obs::ReportOptions noTimings;
    noTimings.includeTimings = false;

    DesignEvaluator ev(fastParams());
    ev.evaluateBatch(cells, nullptr);
    auto report = buildSweepReport(ev, cells, "test");
    auto plain = obs::toJson(report, noTimings);
    EXPECT_EQ(plain.find("\"fast_mode\""), std::string::npos);

    report.fastMode = sim::FastModeConfig::contractVersion();
    auto stamped = obs::toJson(report, noTimings);
    EXPECT_NE(stamped.find("\"fast_mode\": \"fast-mode/1\""),
              std::string::npos);
}

TEST(ParallelDeterminism, ClusterSweepMatchesAtEveryWidth)
{
    perfsim::PerfEvaluator perf;
    auto emb1 = platform::makeSystem(platform::SystemClass::Emb1);
    auto workload =
        workloads::makeBenchmark(workloads::Benchmark::Websearch);
    auto st = perf.stationsFor(emb1, workload->traits(), {});

    perfsim::SearchParams sp;
    sp.iterations = 3;
    sp.window.warmupSeconds = 1.0;
    sp.window.measureSeconds = 4.0;

    std::vector<std::vector<perfsim::ClusterSweepPoint>> runs;
    for (unsigned threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        runs.push_back(perfsim::sweepClusterScaling(
            workloads::Benchmark::Websearch, st, {2u, 4u},
            {perfsim::DispatchPolicy::RoundRobin,
             perfsim::DispatchPolicy::LeastOutstanding},
            sp, 99, &pool));
    }
    for (std::size_t r = 1; r < runs.size(); ++r) {
        ASSERT_EQ(runs[r].size(), runs[0].size());
        for (std::size_t i = 0; i < runs[0].size(); ++i) {
            EXPECT_EQ(runs[r][i].servers, runs[0][i].servers);
            EXPECT_EQ(runs[r][i].policy, runs[0][i].policy);
            EXPECT_EQ(runs[r][i].result.clusterRps,
                      runs[0][i].result.clusterRps)
                << "point " << i << " at width run " << r;
            EXPECT_EQ(runs[r][i].result.scalingEfficiency,
                      runs[0][i].result.scalingEfficiency);
        }
    }
}

} // namespace
