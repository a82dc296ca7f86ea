/**
 * @file
 * Guide-table sampling throughput: scalar draws vs the batched
 * SampleBatcher (sim/batch_sampler.hh).
 *
 * The scalar path pays two dependent cache misses per draw on large
 * tables (the uniformly-hit guide cell, then the CDF resolution line);
 * the batcher issues a block of prefetches per pass so the misses
 * overlap. Two comparisons per table:
 *
 *  - mt19937 rows: batched draws from the same Rng must reproduce the
 *    scalar sequence exactly (the batcher consumes one uniform per
 *    draw in draw order) — gated on bit-identity;
 *  - splitmix64 rows: the fast-mode engine (util/random.hh), same
 *    uniform law but different bits, so the gate is a two-sample KS
 *    test on the drawn ranks instead (stats/equivalence.hh).
 *
 * The bench exits nonzero if any gate fails. Timings land in
 * BENCH_sampler.json.
 */

#include <iostream>
#include <string>
#include <vector>

#include "harness.hh"
#include "sim/batch_sampler.hh"
#include "sim/distributions.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace wsc;
using namespace wsc::sim;

namespace {

struct SamplerRow {
    std::string engine; //!< uniform source of the batched side
    /** The row's gate: name, "bit-identity" or "ks", verdict, and the
     * KS p-value (1.0 on bit-identity rows). */
    stats::GateCheck check;
    std::size_t tableEntries = 0;
    std::size_t draws = 0;
    double scalarSec = 0.0;
    double batchedSec = 0.0;

    double scalarDrawsPerSec() const { return bench::ratio(draws, scalarSec); }
    double
    batchedDrawsPerSec() const { return bench::ratio(draws, batchedSec); }
    double speedup() const { return bench::ratio(scalarSec, batchedSec); }
};

SamplerRow
newRow(const std::string &name, const std::string &engine,
       const std::string &gate, std::size_t draws)
{
    SamplerRow row;
    row.engine = engine;
    row.check.name = name;
    row.check.kind = gate;
    row.draws = draws;
    return row;
}

/**
 * Scalar mt19937 draws vs batched draws. With @p fast unset the
 * batcher reads the same Rng, so the sequences must be bit-identical.
 * With @p fast set it runs the fast-mode configuration: SplitMix64
 * uniforms, same law but different bits, so the gate is a two-sample
 * KS test on the drawn ranks — with millions of draws per side any
 * law mismatch drives the p-value to ~0.
 */
SamplerRow
compareZipf(const std::string &name, std::uint64_t items,
            double exponent, std::size_t draws, std::uint64_t seed,
            bool fast = false)
{
    SamplerRow row = newRow(name, fast ? "splitmix64" : "mt19937",
                            fast ? "ks" : "bit-identity", draws);
    row.tableEntries = std::size_t(items);

    ZipfDist dist(items, exponent);
    std::vector<std::uint64_t> scalarOut(draws), batchedOut(draws);
    row.scalarSec = bench::bestOf([&] {
        Rng rng(seed);
        for (std::size_t i = 0; i < draws; ++i)
            scalarOut[i] = dist.sampleRank(rng);
    });

    SampleBatcher batcher;
    std::uint64_t fastSeed = Rng(seed).stream("uniforms").seed();
    row.batchedSec = bench::bestOf([&] {
        if (fast) {
            SplitMix64 rng(fastSeed);
            batcher.drawZipfRanks(dist, rng, batchedOut.data(), draws);
        } else {
            Rng rng(seed);
            batcher.drawZipfRanks(dist, rng, batchedOut.data(), draws);
        }
    });

    if (!fast) {
        row.check.passed = scalarOut == batchedOut;
        return row;
    }
    // KS on (subsampled) ranks: the test is O(n log n) in sample size
    // and saturates in power long before millions of points.
    constexpr std::size_t kKsCap = 200000;
    std::size_t stride = draws > kKsCap ? draws / kKsCap : 1;
    std::vector<double> a, b;
    a.reserve(draws / stride + 1);
    b.reserve(draws / stride + 1);
    for (std::size_t i = 0; i < draws; i += stride) {
        a.push_back(double(scalarOut[i]));
        b.push_back(double(batchedOut[i]));
    }
    auto ks = stats::ksTwoSample(std::move(a), std::move(b));
    row.check.statistic = ks.statistic;
    row.check.pValue = ks.pValue;
    row.check.passed = ks.passes(stats::EquivalenceSpec{}.ksAlpha);
    return row;
}

SamplerRow
compareEmpirical(const std::string &name, std::size_t draws,
                 std::uint64_t seed)
{
    SamplerRow row = newRow(name, "mt19937", "bit-identity", draws);

    // The websearch keyword-count mix: a 5-entry table, fully
    // cache-resident — the case where batching must at least not lose.
    EmpiricalDist dist({1.0, 2.0, 3.0, 4.0, 5.0},
                       {0.28, 0.36, 0.22, 0.10, 0.04});
    row.tableEntries = dist.size();
    std::vector<std::uint32_t> scalarOut(draws), batchedOut(draws);
    row.scalarSec = bench::bestOf([&] {
        Rng rng(seed);
        for (std::size_t i = 0; i < draws; ++i)
            scalarOut[i] = std::uint32_t(dist.sampleIndex(rng));
    });

    SampleBatcher batcher;
    row.batchedSec = bench::bestOf([&] {
        Rng rng(seed);
        batcher.drawEmpiricalIndices(dist, rng, batchedOut.data(),
                                     draws);
    });

    row.check.passed = scalarOut == batchedOut;
    return row;
}

} // namespace

int
run(int argc, char **argv)
{
    ArgParser args("bench_sampler",
                   "scalar vs batched guide-table sampling, gated on "
                   "sequence bit-identity");
    args.addOption("draws", "draws per comparison", "2000000")
        .addOption("out", "JSON output path", "BENCH_sampler.json");
    if (!args.parse(argc, argv))
        return 0;

    double drawsArg = args.getDouble("draws");
    if (drawsArg < 1000.0 || drawsArg > 1e9)
        fatal("--draws must be in [1e3, 1e9]");
    std::size_t draws = std::size_t(drawsArg);

    std::cout << "=== Guide-table sampling throughput (" << draws
              << " draws, best of " << bench::kTimedReps << ") ===\n\n";

    std::vector<SamplerRow> rows;
    // The closed-loop suite's actual tables: websearch terms (200k,
    // ~2.4 MB guide+cdf, misses on every draw) and ytube popularity
    // (100k), plus the tiny cache-resident keyword mix. The mt19937
    // rows isolate the batching win (bit-identical draws); the
    // splitmix64 rows measure the full fast-mode configuration.
    rows.push_back(
        compareZipf("zipf-200k (websearch terms)", 200000, 0.95, draws,
                    11));
    rows.push_back(
        compareZipf("zipf-100k (ytube popularity)", 100000, 0.9, draws,
                    22));
    rows.push_back(
        compareZipf("zipf-10k (small table)", 10000, 0.9, draws, 33));
    rows.push_back(
        compareEmpirical("empirical-5 (keyword mix)", draws, 44));
    rows.push_back(compareZipf("zipf-200k fast (websearch terms)",
                               200000, 0.95, draws, 11, true));
    rows.push_back(compareZipf("zipf-100k fast (ytube popularity)",
                               100000, 0.9, draws, 22, true));

    bench::Report report("sampler", 1);
    Table t({"Table", "Engine", "Entries", "Scalar Mdraw/s",
             "Batched Mdraw/s", "Speedup", "Result"});
    for (const auto &r : rows) {
        report.gate(r.check);
        std::string result;
        if (r.check.kind == "bit-identity")
            result = r.check.passed ? "bit-identical" : "MISMATCH";
        else
            result = (r.check.passed ? "KS pass p=" : "KS FAIL p=") +
                     fmtF(r.check.pValue, 3);
        t.addRow({r.check.name, r.engine,
                  std::to_string(r.tableEntries),
                  fmtF(r.scalarDrawsPerSec() / 1e6, 2),
                  fmtF(r.batchedDrawsPerSec() / 1e6, 2),
                  fmtF(r.speedup(), 2) + "x", result});
    }
    t.print(std::cout);

    // Acceptance target: >= 2x on at least one workload-sized table
    // (the splitmix64 rows are the fast-mode configuration).
    bool target = false;
    for (const auto &r : rows)
        if (r.tableEntries >= 100000)
            target = target || r.speedup() >= 2.0;
    std::cout << "\nTarget: >= 2x on a workload-sized table "
              << (target ? "met" : "NOT MET") << "\n";

    auto &w = report.json();
    w.key("config").beginObject()
        .key("draws").value(draws)
        .key("reps").value(std::uint64_t(bench::kTimedReps))
        .endObject();
    w.key("runs").beginArray();
    for (const auto &r : rows)
        w.beginObject()
            .key("table").value(r.check.name)
            .key("engine").value(r.engine)
            .key("gate").value(r.check.kind)
            .key("entries").value(r.tableEntries)
            .key("scalar_seconds").value(r.scalarSec)
            .key("batched_seconds").value(r.batchedSec)
            .key("scalar_draws_per_sec").value(r.scalarDrawsPerSec())
            .key("batched_draws_per_sec").value(r.batchedDrawsPerSec())
            .key("speedup").value(r.speedup())
            .key("ks_p_value").value(r.check.pValue)
            .key("gate_passed").value(r.check.passed)
            .endObject();
    w.endArray();
    w.key("targets").beginObject()
        .key("workload_table_2x").value(target)
        .endObject();
    return report.finish(args.get("out"));
}

int
main(int argc, char **argv)
{
    return bench::runMain(argc, argv, run);
}
