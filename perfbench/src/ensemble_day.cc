/**
 * @file
 * ensemble-day: the diurnal fleet day with MMPP flash crowds. Ranks
 * the three power policies (one runEnsemble per policy, priced by the
 * closed-form model and converted to report form) on the calendar
 * queue with four shards, first with the exact engine, then with
 * fast-mode/2, uncoupled from any platform design.
 *
 * The sharded and calendar event queues and both ensemble engines do
 * all the work. The exact engine is bound by the per-event kernel;
 * fast mode by windows, barriers and the control plane. The
 * closed-loop search does nothing here.
 */

#include <algorithm>

#include "bench.hh"
#include "core/diurnal.hh"
#include "core/ensemble.hh"
#include "obs/run_report.hh"
#include "perfsim/ensemble_sim.hh"
#include "util/hash.hh"

namespace perfbench {
namespace {

using namespace wsc;
using namespace wsc::core;

/** Fleet size and hour compression of the timed day, scaled so one
 * pass (six ensemble days) stays a few seconds on a 4-core host. */
constexpr unsigned kServers = 2500;
constexpr double kSecondsPerHour = 16.0;

constexpr PowerPolicy kPolicies[] = {PowerPolicy::AlwaysOn,
                                     PowerPolicy::ConsolidateIdle,
                                     PowerPolicy::PowerOff};

std::string
identityJson(const EnsemblePolicyOutcome &o)
{
    obs::ReportOptions noTimings;
    noTimings.includeTimings = false;
    return obs::toJson(ensembleReport(o), noTimings);
}

class EnsembleDay : public Workload
{
  public:
    explicit EnsembleDay(const Options &o) : opts(o) {}

    std::string
    workUnit() const override
    {
        return "offered simulated requests";
    }

    void
    setup() override
    {
        profile = DiurnalProfile::internetService();
        params = EnsembleEvalParams{};
        params.energy.servers = kServers;
        params.cells = 16;
        params.shards = 4;
        params.workers = std::min(opts.threads, params.shards);
        params.queue = sim::QueueKind::Calendar;
        params.hours = 24;
        params.secondsPerHour = kSecondsPerHour;
        params.mmpp.enabled = true;
        params.serviceDemandScale = 1.0;
        params.seed = seedFor(opts.seed, "ensemble-day");

        // Warm-up on a small fleet through both engines.
        EnsembleEvalParams warm = params;
        warm.energy.servers = kServers / 4;
        for (bool fast : {false, true}) {
            warm.fast.enabled = fast;
            perfsim::runEnsemble(
                ensembleConfig(profile, PowerPolicy::PowerOff, warm));
        }
    }

    PassOutput
    pass(Tracer *tracer, unsigned run, Checks &checks) override
    {
        PassOutput out;
        auto &L = out.layer;
        Digest exact, fast;
        double fastKWh[3] = {};
        std::vector<double> imbalance, maxShare;
        for (bool isFast : {false, true}) {
            EnsembleEvalParams ep = params;
            ep.fast.enabled = isFast;
            for (std::size_t i = 0; i < 3; ++i) {
                PowerPolicy policy = kPolicies[i];
                EnsemblePolicyOutcome o;
                o.policy = policy;
                {
                    Scope s(tracer,
                            isFast ? "perfsim.ensemble_fast"
                                   : "perfsim.ensemble_exact",
                            run);
                    o.measured = perfsim::runEnsemble(
                        ensembleConfig(profile, policy, ep));
                }
                {
                    Scope s(tracer, "core.analytic", run);
                    o.analytical = dailyEnergy(profile, policy, ep.energy);
                }
                obs::EnsembleReport rep;
                {
                    Scope s(tracer, "core.ensemble_report", run);
                    rep = ensembleReport(o);
                }
                {
                    Scope s(tracer, "obs.json", run);
                    L["obs.json_bytes"] += double(obs::toJson(rep).size());
                }
                (isFast ? fast : exact).add(identityJson(o));

                const auto &r = o.measured;
                out.work += double(r.offered);
                L["sim.ensemble_events"] += double(r.eventsDispatched);
                L["sim.windows"] += double(r.windows);
                L["sim.cross_cell_messages"] +=
                    double(r.crossCellMessages);
                if (isFast) {
                    fastKWh[i] = r.kWhPerDay;
                    L["sim.fast_windows"] += double(r.windows);
                    continue;
                }
                L["sim.exact_events"] += double(r.eventsDispatched);
                imbalance.push_back(r.meanWindowImbalance);
                std::uint64_t total = 0, top = 0;
                for (auto e : r.shardEvents) {
                    total += e;
                    top = std::max(top, e);
                }
                maxShare.push_back(total ? double(top) / double(total)
                                         : 0.0);
            }
        }
        L["sim.window_imbalance"] = median(imbalance);
        L["sim.shard_max_share"] = median(maxShare);
        exactDigest = exact.hex();
        fastDigest = fast.hex();
        out.digest = Digest().add(exact.value()).add(fast.value()).value();
        checks.expect(fastKWh[2] < fastKWh[0],
                      "fast-mode power-off uses less energy than "
                      "always-on");
        return out;
    }

    void
    derive(Metrics &m) const override
    {
        double events = m["sim.exact_events"];
        m["perfsim.ensemble_ns_per_event"] =
            events > 0 ? m["perfsim.ensemble_exact_s"] / events * 1e9
                       : 0.0;
        double windows = m["sim.fast_windows"];
        m["perfsim.fast_us_per_window"] =
            windows > 0 ? m["perfsim.ensemble_fast_s"] / windows * 1e6
                        : 0.0;
    }

    void
    verify(Checks &checks) override
    {
        // Exact reports are byte-identical at any shard count.
        EnsembleEvalParams ep = params;
        ep.energy.servers = kServers / 5;
        std::string ref;
        for (unsigned shards : {1u, 4u}) {
            ep.shards = shards;
            ep.workers = std::min(opts.threads, shards);
            EnsemblePolicyOutcome o;
            o.policy = PowerPolicy::PowerOff;
            o.measured = perfsim::runEnsemble(
                ensembleConfig(profile, o.policy, ep));
            std::string id = identityJson(o);
            if (ref.empty())
                ref = id;
            else
                checks.expect(id == ref, "exact ensemble report bytes "
                                         "invariant to shard count");
        }
    }

    std::map<std::string, std::string>
    digests() const override
    {
        return {{"ensemble-day.exact", exactDigest},
                {"ensemble-day.fast", fastDigest}};
    }

  private:
    Options opts;
    DiurnalProfile profile;
    EnsembleEvalParams params;
    std::string exactDigest, fastDigest;
};

} // namespace

std::unique_ptr<Workload>
makeEnsembleDay(const Options &opts)
{
    return std::make_unique<EnsembleDay>(opts);
}

} // namespace perfbench
