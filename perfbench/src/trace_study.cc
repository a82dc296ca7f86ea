/**
 * @file
 * trace-study: the memory-blade and flash-cache trace studies (paper
 * Sections 3.4 and 3.5), with no event queue. One memblade layer
 * serves as writer, streaming reader, in-memory reader, one-pass
 * stack-distance sweep and per-capacity replay, so a gain for one use
 * that costs another shows up here.
 */

#include <cmath>
#include <cstdio>

#include "bench.hh"
#include "flashcache/io_trace.hh"
#include "memblade/replay.hh"
#include "memblade/stack_distance.hh"
#include "memblade/trace_stream.hh"
#include "util/hash.hh"

namespace perfbench {
namespace {

using namespace wsc;
using namespace wsc::memblade;

// Sizes of one pass. The streaming trace (8 bytes per access) stays
// far below the page cache.
constexpr std::uint64_t kStreamAccesses = 4000000;
constexpr std::uint64_t kCurveAccesses = 1000000;
constexpr std::uint64_t kZooAccesses = 200000;
constexpr std::uint64_t kFlashAccesses = 400000;
constexpr std::uint64_t kOracleAccesses = 100000;
constexpr std::uint64_t kWarmupAccesses = 300000;
constexpr double kLocalFraction = 0.25;

std::size_t
framesFor(const TraceProfile &p)
{
    return std::size_t(
        std::ceil(double(p.footprintPages) * kLocalFraction));
}

void
addStats(Digest &d, const ReplayStats &s)
{
    d.add(s.accesses).add(s.hits).add(s.misses).add(s.coldMisses);
}

bool
sameStats(const ReplayStats &a, const ReplayStats &b)
{
    return a.accesses == b.accesses && a.hits == b.hits &&
           a.misses == b.misses && a.coldMisses == b.coldMisses;
}

class TraceStudy : public Workload
{
  public:
    explicit TraceStudy(const Options &o)
        : opts(o), tracePath(o.scratchDir + "/trace-study.strace")
    {}

    std::string
    workUnit() const override
    {
        return "page accesses written, read or replayed";
    }

    void
    setup() override
    {
        profiles.clear();
        for (auto b : workloads::allBenchmarks)
            profiles.push_back(profileFor(b));
        flashSpecs.clear();
        for (double gb : {0.25, 0.5, 1.0, 2.0, 4.0}) {
            flashSpecs.push_back({});
            flashSpecs.back().capacityGB = gb;
        }
        seed = seedFor(opts.seed, "trace-study");

        // Warm-up: a short replay through each kernel family.
        const auto &p = profiles.front();
        TraceGenerator gen(p, Rng(seed));
        for (PolicyKind kind : allPolicyKinds)
            replayWindowed(gen, kind, framesFor(p), p.footprintPages,
                           kWarmupAccesses, 0, Rng(seed));
        lruCurveForProfile(p, kWarmupAccesses, seed);
    }

    PassOutput
    pass(Tracer *tracer, unsigned run, Checks &checks) override
    {
        PassOutput out;
        auto &L = out.layer;
        const TraceProfile &web = profiles.front();
        const std::size_t frames = framesFor(web);
        Digest replay, curves, zoo, flash;

        {
            Scope s(tracer, "memblade.stream_write", run);
            TraceGenerator gen(web, Rng(seedFor(seed, "stream")));
            TraceStreamWriter w(tracePath);
            std::vector<PageId> buf(4096);
            for (std::uint64_t done = 0; done < kStreamAccesses;) {
                auto n = std::size_t(std::min<std::uint64_t>(
                    buf.size(), kStreamAccesses - done));
                gen.nextBatch(buf.data(), n);
                for (std::size_t i = 0; i < n; ++i)
                    w.append(buf[i]);
                done += n;
            }
            w.close();
        }
        L["memblade.stream_bytes"] = double(kStreamAccesses * 8);

        ReplayStats streamLru, streamArc, pagesLru, pagesArc;
        {
            Scope s(tracer, "memblade.stream_replay", run);
            TraceStream ts(tracePath);
            streamLru = replayStream(ts, PolicyKind::Lru, frames, Rng(seed));
            ts.rewind();
            streamArc = replayStream(ts, PolicyKind::Arc, frames, Rng(seed));
        }
        std::vector<PageId> pages;
        std::uint64_t bound = 0;
        {
            Scope s(tracer, "memblade.materialize", run);
            pages = readTraceStreamPages(tracePath);
            bound = traceStreamInfo(tracePath).pageBound;
        }
        {
            Scope s(tracer, "memblade.pages_replay", run);
            pagesLru = replayPages(pages.data(), pages.size(),
                                   PolicyKind::Lru, frames, bound,
                                   Rng(seed));
            pagesArc = replayPages(pages.data(), pages.size(),
                                   PolicyKind::Arc, frames, bound,
                                   Rng(seed));
        }
        checks.expect(sameStats(streamLru, pagesLru),
                      "LRU stream replay equals in-memory replay");
        checks.expect(sameStats(streamArc, pagesArc),
                      "ARC stream replay equals in-memory replay");
        for (const auto *st : {&streamLru, &streamArc, &pagesLru, &pagesArc})
            addStats(replay, *st);
        L["memblade.hit_rate_lru"] =
            double(streamLru.hits) / double(streamLru.accesses);
        L["memblade.hit_rate_arc"] =
            double(streamArc.hits) / double(streamArc.accesses);

        {
            // Figure 4: exact LRU curves, sampled at 25 local fractions.
            Scope s(tracer, "memblade.curve", run);
            for (const auto &p : profiles) {
                auto curve = lruCurveForProfile(p, kCurveAccesses, seed);
                for (unsigned i = 1; i <= 25; ++i)
                    addStats(curves,
                             curve.statsAt(std::size_t(std::ceil(
                                 double(p.footprintPages) * i / 25.0))));
            }
        }
        {
            Scope s(tracer, "memblade.zoo", run);
            for (const auto &p : profiles)
                for (PolicyKind kind : allPolicyKinds) {
                    TraceGenerator gen(p, Rng(seedFor(seed, p.name)));
                    auto r = replayWindowed(gen, kind, framesFor(p),
                                            p.footprintPages, kZooAccesses,
                                            0, Rng(seed));
                    addStats(zoo, r.total);
                }
        }
        {
            Scope s(tracer, "flashcache.sweep", run);
            for (auto b : workloads::allBenchmarks)
                for (const auto &o : flashcache::evaluateFlashCacheSweep(
                         b, flashSpecs, kFlashAccesses, 5.0e6, seed))
                    flash.add(o.hitRate).add(o.wearCyclesPerBlock)
                        .add(o.lifetimeYears);
        }

        out.work = double(6 * kStreamAccesses) +
                   double(profiles.size()) *
                       double(kCurveAccesses +
                              std::size(allPolicyKinds) * kZooAccesses +
                              kFlashAccesses);
        digestParts = {replay.hex(), curves.hex(), zoo.hex(), flash.hex()};
        out.digest = Digest()
                         .add(replay.value())
                         .add(curves.value())
                         .add(zoo.value())
                         .add(flash.value())
                         .value();
        return out;
    }

    void
    derive(Metrics &m) const override
    {
        double write = m["memblade.stream_write_s"];
        m["memblade.stream_write_mb_per_s"] =
            write > 0 ? m["memblade.stream_bytes"] / 1e6 / write : 0.0;
        // Both replays process the same accesses, so the throughput
        // ratio is the inverse ratio of their times.
        double stream = m["memblade.stream_replay_s"];
        m["memblade.stream_vs_pages"] =
            stream > 0 ? m["memblade.pages_replay_s"] / stream : 0.0;
    }

    void
    verify(Checks &checks) override
    {
        // Every zoo kernel makes the reference policy's decisions.
        const auto &p = profiles.front();
        auto trace = generateTrace(p, kOracleAccesses,
                                   Rng(seedFor(seed, "oracle")));
        for (PolicyKind kind : allPolicyKinds) {
            auto fast = replayPages(trace.data(), trace.size(), kind,
                                    framesFor(p), p.footprintPages,
                                    Rng(seed));
            auto ref = makePolicy(kind, framesFor(p), Rng(seed));
            std::uint64_t hits = 0;
            for (PageId page : trace)
                hits += ref->access(page);
            checks.expect(fast.hits == hits,
                          "zoo kernel equals reference policy: " +
                              to_string(kind));
        }
    }

    std::map<std::string, std::string>
    digests() const override
    {
        return {{"trace-study.replay", digestParts[0]},
                {"trace-study.curves", digestParts[1]},
                {"trace-study.zoo", digestParts[2]},
                {"trace-study.flash", digestParts[3]}};
    }

    void
    cleanup() override
    {
        std::remove(tracePath.c_str());
    }

  private:
    Options opts;
    std::string tracePath;
    std::vector<TraceProfile> profiles;
    std::vector<flashcache::FlashSpec> flashSpecs;
    std::uint64_t seed = 0;
    std::vector<std::string> digestParts{4};
};

} // namespace

std::unique_ptr<Workload>
makeTraceStudy(const Options &opts)
{
    return std::make_unique<TraceStudy>(opts);
}

} // namespace perfbench
