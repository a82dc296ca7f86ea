/**
 * @file
 * wsc_reproduce: run the paper reproduction and check it against the
 * paper's numeric targets.
 *
 * Runs every registered experiment (or one, with --id), prints its
 * tables and one verdict per target, and writes the REPRO document:
 * per target the paper value or interval, the measured values, the
 * delta and the verdict. Exits 1 when an ordering claim fails; a
 * value outside its tolerance is recorded as a miss and does not fail
 * the run.
 *
 * Examples:
 *   wsc_reproduce
 *   wsc_reproduce --id fig2c --out fig2c.json
 */

#include <fstream>
#include <iostream>

#include "core/experiments.hh"
#include "util/args.hh"
#include "util/logging.hh"

using namespace wsc;
using namespace wsc::core;

int
main(int argc, char **argv)
{
    std::string ids;
    for (const auto &e : allExperiments())
        ids += (ids.empty() ? "" : ", ") + e.id;
    ArgParser args("wsc_reproduce",
                   "run the paper reproduction against its numeric "
                   "targets");
    args.addOption("id", "experiment to run, or all: " + ids, "all")
        .addOption("out", "where to write the REPRO JSON document",
                   "REPRO.json");

    try {
        if (!args.parse(argc, argv))
            return 0;
        std::vector<const ExperimentInfo *> run;
        const std::string &id = args.get("id");
        if (id == "all") {
            for (const auto &e : allExperiments())
                run.push_back(&e);
        } else if (auto *e = findExperiment(id)) {
            run.push_back(e);
        } else {
            fatal("unknown experiment id '" + id + "' (known: " + ids +
                  ")");
        }
        std::ofstream json(args.get("out"));
        if (!json)
            fatal("cannot write '" + args.get("out") + "'");
        return reproduce(run, std::cout, json);
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
}
