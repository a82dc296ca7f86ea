/**
 * @file
 * The per-request rules every request-level simulator shares.
 *
 * requestWork() turns a workload's ServiceDemand into station work;
 * the open-loop engine (simulateInteractive and simulateCluster, in
 * cluster_sim.cc), the closed-loop driver and the availability DES
 * (faults/availability_sim.cc) all call it, so the cache-hit draw, the
 * access charges and the unit conversions exist once. advanceStage()
 * moves a request through one server's CPU -> disk -> NIC stations
 * for the open-loop engine and the closed-loop driver's classic path;
 * advanceCarried() is its twin for attempts that can outlive their
 * slot (the closed-loop timed path and the availability DES).
 * The analytic bound (throughput.cc) and the batch runner apply
 * different, expected-value formulas and keep their own; the
 * closed-loop oracle (closed_loop_oracle.cc) keeps its verbatim copy.
 */

#ifndef WSC_PERFSIM_REQUEST_PIPELINE_HH
#define WSC_PERFSIM_REQUEST_PIPELINE_HH

#include <cstdint>
#include <string>
#include <utility>

#include "perfsim/calibration.hh"
#include "perfsim/request_arena.hh"
#include "perfsim/server_sim.hh"
#include "sim/resources.hh"
#include "util/random.hh"
#include "workloads/workload.hh"

namespace wsc {
namespace perfsim {

/** One request's work at each station. */
struct RequestWork {
    double cpuWork = 0.0;     //!< CPU work units (slowdown applied)
    double diskService = 0.0; //!< disk seconds (0 on a cache hit)
    double netMb = 0.0;       //!< NIC megabytes
};

/**
 * Station work for @p demand on @p st. Draws the page-cache hit from
 * @p rng only for requests that read, so callers that draw the demand
 * from the same stream keep the order nextRequest, then the hit.
 */
inline RequestWork
requestWork(const workloads::ServiceDemand &demand,
            const StationConfig &st, Rng &rng)
{
    RequestWork w;
    w.cpuWork = demand.cpuWork * st.serviceSlowdown;
    if (demand.diskReadBytes > 0.0 && !rng.bernoulli(st.diskCacheHitRate))
        w.diskService += st.diskAccessMs * 1e-3 +
                         demand.diskReadBytes / (st.diskReadMBs * 1e6);
    if (demand.diskWriteBytes > 0.0)
        w.diskService += st.diskAccessMs * 1e-3 * writeAccessFactor +
                         demand.diskWriteBytes / (st.diskWriteMBs * 1e6);
    w.netMb = demand.netBytes / 1e6;
    return w;
}

/** One server's stations, in the order a request visits them. */
struct ServerStations {
    sim::PsResource cpu;
    sim::FifoResource disk;
    sim::PsResource nic;

    /** Stations named cpu, disk and nic plus @p suffix; @p owner tags
     * their internal events for bulk cancellation. */
    ServerStations(sim::EventQueue &eq, const StationConfig &st,
                   const std::string &suffix = {},
                   std::uint64_t owner = 0)
        : cpu(eq, "cpu" + suffix, st.cpuCapacityGHz, st.cpuSlots, owner),
          disk(eq, "disk" + suffix, 1, owner),
          nic(eq, "nic" + suffix, st.nicMBs, 1, owner)
    {
    }
};

/** Pipeline stage that just completed. */
enum class Stage : unsigned { Cpu, Disk, Net };

/**
 * Stage @p done of the request behind @p h completed: submit the next
 * stage with work, falling through zero-work stages synchronously, and
 * respond after the last. @p Engine supplies, as in ensemble_core.hh,
 * statically bound hooks:
 *
 *  - arena: a RequestArena whose payload carries a RequestWork `work`;
 *  - stationsOf(req): the ServerStations serving the request;
 *  - respond(h, req): the response left the server.
 *
 * Continuations capture only {engine pointer, handle}, inside
 * sim::InlineAction's inline storage.
 */
template <class Engine>
void
advanceStage(Engine &e, RequestHandle h, Stage done)
{
    auto &r = e.arena.get(h);
    ServerStations &at = e.stationsOf(r);
    switch (done) {
      case Stage::Cpu:
        if (r.work.diskService > 0.0) {
            at.disk.submit(r.work.diskService, [ep = &e, h] {
                advanceStage(*ep, h, Stage::Disk);
            });
            return;
        }
        [[fallthrough]];
      case Stage::Disk:
        if (r.work.netMb > 0.0) {
            at.nic.submit(r.work.netMb, [ep = &e, h] {
                advanceStage(*ep, h, Stage::Net);
            });
            return;
        }
        [[fallthrough]];
      case Stage::Net:
        e.respond(h, r);
        break;
    }
}

/** Enter the pipeline: submit the request's CPU work. */
template <class Engine>
void
startStages(Engine &e, RequestHandle h)
{
    auto &r = e.arena.get(h);
    e.stationsOf(r).cpu.submit(r.work.cpuWork, [ep = &e, h] {
        advanceStage(*ep, h, Stage::Cpu);
    });
}

/**
 * advanceStage() for engines whose attempts can outlive their arena
 * slot: a timed-out attempt keeps loading its server after the client
 * has released or re-armed the request, so it cannot read its work
 * back from the slot. Its continuations carry the downstream disk and
 * NIC work and @p Engine's attempt record @p a (handle, attempt stamp
 * and whatever else the engine routes by); nothing consults the slot
 * until the answer. Hooks:
 *
 *  - stationsOf(a): the ServerStations serving the attempt;
 *  - answer(a): the attempt's response left the server; the engine
 *    checks there whether the request still waits for it.
 *
 * Each capture is {engine pointer, attempt record, up to two doubles}
 * and must fit sim::InlineAction's inline storage.
 */
template <class Engine, class Attempt>
void
advanceCarried(Engine &e, const Attempt &a, double diskService,
               double netMb, Stage done)
{
    switch (done) {
      case Stage::Cpu:
        if (diskService > 0.0) {
            e.stationsOf(a).disk.submit(diskService, [ep = &e, a, netMb] {
                advanceCarried(*ep, a, 0.0, netMb, Stage::Disk);
            });
            return;
        }
        [[fallthrough]];
      case Stage::Disk:
        if (netMb > 0.0) {
            e.stationsOf(a).nic.submit(netMb, [ep = &e, a] {
                advanceCarried(*ep, a, 0.0, 0.0, Stage::Net);
            });
            return;
        }
        [[fallthrough]];
      case Stage::Net:
        e.answer(a);
        break;
    }
}

/** Enter the carried pipeline: submit attempt @p a's CPU work, carrying
 * the rest of @p w. */
template <class Engine, class Attempt>
void
startCarried(Engine &e, const Attempt &a, const RequestWork &w)
{
    auto cpuDone = [ep = &e, a, disk = w.diskService, net = w.netMb] {
        advanceCarried(*ep, a, disk, net, Stage::Cpu);
    };
    static_assert(sim::InlineAction::fitsInline<decltype(cpuDone)>,
                  "attempt record too large for an inline continuation");
    e.stationsOf(a).cpu.submit(w.cpuWork, std::move(cpuDone));
}

} // namespace perfsim
} // namespace wsc

#endif // WSC_PERFSIM_REQUEST_PIPELINE_HH
