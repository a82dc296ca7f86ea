/**
 * @file
 * google-benchmark microbenchmarks of the simulation kernels: event
 * queue throughput (closure EventQueue and typed ShardedEventQueue
 * lanes), processor-sharing resource, Zipf sampling, and
 * the page-replacement policies, trace generation and stack-distance
 * engine that dominate the trace studies.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "flashcache/io_trace.hh"
#include "memblade/replacement.hh"
#include "memblade/replay.hh"
#include "memblade/stack_distance.hh"
#include "memblade/trace.hh"
#include "sim/distributions.hh"
#include "sim/event_queue.hh"
#include "sim/resources.hh"
#include "sim/sharded_queue.hh"
#include "util/random.hh"

using namespace wsc;

namespace {

void
BM_EventQueueScheduleDispatch(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        int sink = 0;
        for (int i = 0; i < 1024; ++i)
            eq.schedule(double(i), [&sink] { ++sink; });
        eq.runAll();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleDispatch);

void
BM_EventQueueCancelHeavy(benchmark::State &state)
{
    // Timer-wheel style churn: most scheduled events are cancelled
    // before firing, which drives the stale-slot compaction path.
    for (auto _ : state) {
        sim::EventQueue eq;
        int sink = 0;
        std::vector<sim::EventId> ids;
        ids.reserve(1024);
        for (int i = 0; i < 1024; ++i)
            ids.push_back(
                eq.schedule(double(i + 1), [&sink] { ++sink; }));
        for (int i = 0; i < 1024; ++i)
            if (i % 8 != 0)
                eq.cancel(ids[std::size_t(i)]);
        eq.runAll();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueCancelHeavy);

void
BM_EventQueueTraceEnabled(benchmark::State &state)
{
    // Same workload as BM_EventQueueScheduleDispatch but with a live
    // tracer installed. Compare against that baseline (which runs
    // with instrumentation compiled in but disabled) to measure the
    // tracing cost; the disabled-path overhead budget is < 2%.
    for (auto _ : state) {
        sim::EventQueue eq;
        std::uint64_t records = 0;
        eq.setTracer([&records](const sim::EventQueue::TraceRecord &) {
            ++records;
        });
        int sink = 0;
        for (int i = 0; i < 1024; ++i)
            eq.schedule(double(i), [&sink] { ++sink; });
        eq.runAll();
        benchmark::DoNotOptimize(sink);
        benchmark::DoNotOptimize(records);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueTraceEnabled);

void
BM_QueueHold(benchmark::State &state)
{
    // Classic hold model (Vaucher & Duval): keep the queue at a fixed
    // depth and alternate dispatch-one / schedule-one at an
    // exponential gap ahead. Steady-state cost per event as a function
    // of depth is exactly where the heap's O(log n) and the calendar's
    // amortized O(1) diverge; sweep the depth axis on both backends to
    // find the crossover.
    const auto kind = sim::QueueKind(state.range(0));
    const auto depth = std::size_t(state.range(1));
    sim::EventQueue eq(kind);
    eq.reserve(depth + 16);
    SplitMix64 rng(42);
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < depth; ++i)
        eq.schedule(rng.exponential(1.0), [&sink] { ++sink; });
    for (auto _ : state) {
        eq.step();
        eq.schedule(eq.now() + rng.exponential(1.0),
                    [&sink] { ++sink; });
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(sim::queueKindName(kind));
}
BENCHMARK(BM_QueueHold)
    ->Args({0, 1 << 8})
    ->Args({1, 1 << 8})
    ->Args({0, 1 << 12})
    ->Args({1, 1 << 12})
    ->Args({0, 1 << 16})
    ->Args({1, 1 << 16})
    ->Args({0, 1 << 18})
    ->Args({1, 1 << 18});

void
BM_QueueEnsembleMix(benchmark::State &state)
{
    // Ensemble-shaped churn at fixed depth: completions arrive at
    // short exponential gaps while every server keeps one governor
    // timer pending at a fixed horizon, rescheduled (cancel + insert)
    // whenever its server sees traffic — the idle-to-sleep governor
    // racing arrivals in perfsim/ensemble_sim. Cancels hit both
    // backends' stale-slot machinery, so the crossover depth here is
    // the one that matters for shard sizing.
    const auto kind = sim::QueueKind(state.range(0));
    const auto depth = std::size_t(state.range(1)); // power of two
    sim::EventQueue eq(kind);
    eq.reserve(2 * depth + 16);
    SplitMix64 rng(7);
    std::uint64_t sink = 0;
    std::vector<sim::EventId> timers(depth, 0);
    for (std::size_t i = 0; i < depth; ++i)
        eq.schedule(rng.exponential(0.25), [&sink] { ++sink; });
    std::size_t cursor = 0;
    for (auto _ : state) {
        eq.step();
        eq.schedule(eq.now() + rng.exponential(0.25),
                    [&sink] { ++sink; });
        sim::EventId &slot = timers[cursor];
        if (slot)
            eq.cancel(slot);
        slot = eq.schedule(eq.now() + 1.0, [&sink] { ++sink; });
        cursor = (cursor + 1) & (depth - 1);
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(sim::queueKindName(kind));
}
BENCHMARK(BM_QueueEnsembleMix)
    ->Args({0, 1 << 8})
    ->Args({1, 1 << 8})
    ->Args({0, 1 << 12})
    ->Args({1, 1 << 12})
    ->Args({0, 1 << 16})
    ->Args({1, 1 << 16});

/** A run() model for the lane benches: @p fire runs a record,
 * @p stale says whether it was retracted. */
template <typename Stale, typename Fire>
struct LaneModel {
    Stale stale;
    Fire fire;
};

/**
 * Run @p lane (one lane, one worker) in windows of ~1024 records per
 * benchmark iteration at @p rate live records per simulated second;
 * items are the live records handled. The window loop's fixed cost
 * is amortized over the window, so the rate is the typed lane's
 * per-event cost.
 */
template <typename Model>
void
runLaneBench(benchmark::State &state, sim::ShardedEventQueue &lane,
             double rate, Model &&model)
{
    const double window = 1024.0 / rate;
    sim::Time until = lane.now();
    for (auto _ : state) {
        until += window;
        lane.run(until, window, 1, model);
    }
    state.SetItemsProcessed(
        std::int64_t(lane.counters().dispatched));
    state.SetLabel(std::string("typed ") +
                   sim::queueKindName(lane.kind()));
}

auto
neverStale()
{
    return [](unsigned, std::uint64_t) { return false; };
}

void
BM_LaneHold(benchmark::State &state)
{
    // BM_QueueHold on a typed lane of sim::ShardedEventQueue: the
    // same depth and gaps, but each record is a 64-bit payload
    // handed to one handler instead of a closure in a slot pool.
    const auto kind = sim::QueueKind(state.range(0));
    const auto depth = std::size_t(state.range(1));
    sim::ShardedEventQueue lane(1, 1, kind);
    lane.reserve(depth + 16);
    SplitMix64 rng(42);
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < depth; ++i)
        lane.schedule(0, rng.exponential(1.0), 0);
    runLaneBench(state, lane, double(depth),
                 LaneModel{neverStale(),
                           [&](unsigned, sim::Time now,
                               std::uint64_t payload,
                               const sim::Parcel *) {
                               sink += payload + 1;
                               lane.schedule(
                                   0, now + rng.exponential(1.0), 0);
                           }});
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_LaneHold)
    ->Args({0, 1 << 8})
    ->Args({1, 1 << 8})
    ->Args({0, 1 << 12})
    ->Args({1, 1 << 12})
    ->Args({0, 1 << 16})
    ->Args({1, 1 << 16})
    ->Args({0, 1 << 18})
    ->Args({1, 1 << 18});

void
BM_LaneEnsembleMix(benchmark::State &state)
{
    // BM_QueueEnsembleMix on a typed lane: every live record
    // schedules a completion and re-arms one of `depth` governor
    // timers. A re-arm bumps the timer's generation instead of
    // cancelling, so the superseded record stays queued until it
    // pops or a sweep drops it — the ensemble engine's retraction
    // scheme.
    const auto kind = sim::QueueKind(state.range(0));
    const auto depth = std::size_t(state.range(1)); // power of two
    constexpr std::uint64_t kTimerBit = std::uint64_t(1) << 62;
    sim::ShardedEventQueue lane(1, 1, kind);
    lane.reserve(2 * depth + 16);
    SplitMix64 rng(7);
    std::uint64_t sink = 0;
    std::vector<std::uint32_t> gen(depth, 0);
    for (std::size_t i = 0; i < depth; ++i)
        lane.schedule(0, rng.exponential(0.25), 0);
    std::size_t cursor = 0;
    runLaneBench(
        state, lane, 4.0 * double(depth),
        LaneModel{[&](unsigned, std::uint64_t payload) {
                      return (payload & kTimerBit) &&
                             (std::uint32_t(payload >> 32) & 0x3fffffff) !=
                                 (gen[std::uint32_t(payload)] & 0x3fffffff);
                  },
                  [&](unsigned, sim::Time now, std::uint64_t,
                      const sim::Parcel *) {
                      ++sink;
                      lane.schedule(0, now + rng.exponential(0.25), 0);
                      std::uint32_t g = ++gen[cursor] & 0x3fffffff;
                      lane.schedule(0, now + 1.0,
                                    kTimerBit | std::uint64_t(g) << 32 |
                                        cursor);
                      cursor = (cursor + 1) & (depth - 1);
                  }});
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_LaneEnsembleMix)
    ->Args({0, 1 << 8})
    ->Args({1, 1 << 8})
    ->Args({0, 1 << 12})
    ->Args({1, 1 << 12})
    ->Args({0, 1 << 16})
    ->Args({1, 1 << 16});

void
BM_PsResourceChurn(benchmark::State &state)
{
    const auto jobs = std::size_t(state.range(0));
    for (auto _ : state) {
        sim::EventQueue eq;
        sim::PsResource cpu(eq, "cpu", 8.0, 8);
        Rng rng(1);
        std::uint64_t done = 0;
        for (std::size_t i = 0; i < jobs; ++i)
            cpu.submit(rng.uniform(0.001, 0.01), [&done] { ++done; });
        eq.runAll();
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations() * jobs);
}
BENCHMARK(BM_PsResourceChurn)->Arg(64)->Arg(1024)->Arg(8192);

void
BM_ZipfSample(benchmark::State &state)
{
    sim::ZipfDist zipf(std::uint64_t(state.range(0)), 0.9);
    Rng rng(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sampleRank(rng));
    state.SetItemsProcessed(state.iterations());
}
// 4,800,000 ranks: the ytube-io cold table of the flash-cache sweep.
BENCHMARK(BM_ZipfSample)
    ->Arg(1000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Arg(4800000);

void
BM_ReplacementReplay(benchmark::State &state)
{
    auto kind = memblade::PolicyKind(state.range(0));
    auto profile =
        memblade::profileFor(workloads::Benchmark::Websearch);
    Rng rng(3);
    memblade::TraceGenerator gen(profile, rng);
    auto policy = memblade::makePolicy(
        kind, std::size_t(double(profile.footprintPages) * 0.25),
        Rng(4));
    for (auto _ : state)
        benchmark::DoNotOptimize(policy->access(gen.next()));
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(memblade::to_string(kind));
}
BENCHMARK(BM_ReplacementReplay)
    ->Arg(int(memblade::PolicyKind::Lru))
    ->Arg(int(memblade::PolicyKind::Random))
    ->Arg(int(memblade::PolicyKind::Clock));

void
BM_TraceGeneration(benchmark::State &state)
{
    auto profile = memblade::profileFor(workloads::Benchmark::Ytube);
    Rng rng(5);
    memblade::TraceGenerator gen(profile, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGeneration);

/** The generator profiles the trace studies run: the five memory-
 * blade profiles, then webmail-io, the flash sweep's most expensive
 * profile to generate per page. */
memblade::TraceProfile
traceProfileArg(std::int64_t arg)
{
    if (arg < std::int64_t(std::size(workloads::allBenchmarks)))
        return memblade::profileFor(workloads::allBenchmarks[arg]);
    return flashcache::ioProfileFor(workloads::Benchmark::Webmail);
}

void
BM_TraceGenerationBatch(benchmark::State &state)
{
    // Pulled 4096 ids at a time, the chunk the replay loops use.
    auto profile = traceProfileArg(state.range(0));
    memblade::TraceGenerator gen(profile, Rng(5));
    std::vector<memblade::PageId> buf(4096);
    for (auto _ : state) {
        gen.nextBatch(buf.data(), buf.size());
        benchmark::DoNotOptimize(buf.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * 4096);
    state.SetLabel(profile.name);
}
BENCHMARK(BM_TraceGenerationBatch)->DenseRange(0, 5);

void
BM_KernelReplay(benchmark::State &state)
{
    // Allocation-free kernels over a pregenerated trace; compare with
    // BM_ReplacementReplay (the legacy virtual-dispatch policies).
    auto kind = memblade::PolicyKind(state.range(0));
    auto profile =
        memblade::profileFor(workloads::Benchmark::Websearch);
    auto trace = memblade::generateTrace(profile, 1 << 20, Rng(3));
    auto frames = std::size_t(double(profile.footprintPages) * 0.25);
    for (auto _ : state) {
        auto st = memblade::replayPages(trace.data(), trace.size(),
                                        kind, frames,
                                        profile.footprintPages, Rng(4));
        benchmark::DoNotOptimize(st.hits);
    }
    state.SetItemsProcessed(state.iterations() *
                            std::int64_t(trace.size()));
    state.SetLabel(memblade::to_string(kind));
}
BENCHMARK(BM_KernelReplay)
    ->Arg(int(memblade::PolicyKind::Lru))
    ->Arg(int(memblade::PolicyKind::Random))
    ->Arg(int(memblade::PolicyKind::Clock));

void
BM_StackDistancePass(benchmark::State &state)
{
    // One pass = the exact LRU curve at every capacity.
    auto profile =
        memblade::profileFor(workloads::Benchmark::Websearch);
    const std::uint64_t n = 1 << 19;
    for (auto _ : state) {
        auto curve = memblade::lruCurveForProfile(profile, n, 7);
        benchmark::DoNotOptimize(curve.accesses);
    }
    state.SetItemsProcessed(state.iterations() * std::int64_t(n));
}
BENCHMARK(BM_StackDistancePass);

void
BM_StackDistanceEngine(benchmark::State &state)
{
    // The engine alone over a pregenerated trace: 1M websearch accesses (a Figure 4 curve) or
    // 400k ytube-io accesses (a flash sweep's 5M-page id space).
    bool flash = state.range(0) != 0;
    auto profile =
        flash ? flashcache::ioProfileFor(workloads::Benchmark::Ytube)
              : memblade::profileFor(workloads::Benchmark::Websearch);
    auto trace = memblade::generateTrace(
        profile, flash ? 400000 : 1000000, Rng(7));
    const std::size_t n = trace.size();
    for (auto _ : state) {
        memblade::StackDistanceEngine eng(profile.footprintPages, n);
        eng.access(trace.data(), n);
        benchmark::DoNotOptimize(eng.finish().coldMisses);
    }
    state.SetItemsProcessed(state.iterations() * std::int64_t(n));
    state.SetLabel(profile.name);
}
BENCHMARK(BM_StackDistanceEngine)->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();
