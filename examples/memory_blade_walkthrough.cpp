/**
 * @file
 * Memory-blade walkthrough: the Section 3.4 study step by step.
 *
 * 1. Generate a synthetic page-access trace for websearch.
 * 2. Replay it through the two-level memory simulator at several
 *    local-memory sizes and replacement policies.
 * 3. Convert miss rates into execution slowdowns for the PCIe and
 *    critical-block-first links.
 * 4. Price the static and dynamic provisioning schemes.
 *
 * Run: build/examples/memory_blade_walkthrough
 */

#include <iostream>

#include "memblade/blade.hh"
#include "memblade/latency.hh"
#include "memblade/replay.hh"
#include "platform/catalog.hh"
#include "util/table.hh"

using namespace wsc;
using namespace wsc::memblade;

int
main()
{
    auto profile = profileFor(workloads::Benchmark::Websearch);
    std::cout << "Workload: " << profile.name << " ("
              << profile.footprintPages << " pages = "
              << fmtF(double(profile.footprintPages) * 4 / (1024 * 1024),
                      1)
              << " GB footprint)\n\n";

    std::cout << "Step 1-2: replay 1M accesses through the two-level "
                 "memory\n";
    Table t({"Local fraction", "Policy", "Miss rate", "Warm miss "
                                                      "rate"});
    for (double f : {0.125, 0.25, 0.5}) {
        for (auto kind : {PolicyKind::Lru, PolicyKind::Random}) {
            auto st = replayProfile(profile, f, kind, 1000000, 7);
            t.addRow({fmtPct(f, 1), to_string(kind),
                      fmtPct(st.missRate(), 2),
                      fmtPct(st.warmMissRate(), 2)});
        }
    }
    t.print(std::cout);

    std::cout << "\nStep 3: slowdowns at 25% local (random "
                 "replacement)\n";
    auto st = replayProfile(profile, 0.25, PolicyKind::Random, 1000000,
                            7);
    Table s({"Link", "Stall per miss", "Slowdown"});
    for (auto link : {RemoteLink::pcieX4(), RemoteLink::cbf(),
                      RemoteLink::cbfWithSetup()}) {
        s.addRow({link.name,
                  fmtF(link.stallSecondsPerMiss * 1e6, 2) + " us",
                  fmtPct(slowdown(st, profile, link), 2)});
    }
    s.print(std::cout);

    std::cout << "\nStep 4: provisioning economics on emb1\n";
    auto emb1 = platform::makeSystem(platform::SystemClass::Emb1);
    Table p({"Scheme", "Memory $ (was " +
                           fmtDollars(emb1.memory.dollars) + ")",
             "Memory W (was " + fmtF(emb1.memory.watts, 0) + ")"});
    for (auto scheme : {Provisioning::Static, Provisioning::Dynamic}) {
        auto out = applyMemorySharing(emb1, BladeParams{}, scheme);
        p.addRow({to_string(scheme), fmtDollars(out.memoryDollars),
                  fmtF(out.memoryWatts, 2)});
    }
    p.print(std::cout);
    std::cout << "\nRemote DRAM is 24% cheaper per GB and idles in "
                 "active power-down (>90% saving); each server adds a "
                 "$10 / 1.45 W PCIe share.\n";
    return 0;
}
