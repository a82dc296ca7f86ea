/**
 * @file
 * Tests keeping the experiment registry complete, its targets readable,
 * and the verdict rules (and wsc_reproduce's exit status) honest.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "core/experiments.hh"

namespace {

using namespace wsc;
using namespace wsc::core;

TEST(Experiments, RegistryNonEmptyAndUnique)
{
    const auto &all = allExperiments();
    ASSERT_GE(all.size(), 25u);
    std::set<std::string> ids;
    for (const auto &e : all) {
        EXPECT_FALSE(e.id.empty());
        EXPECT_FALSE(e.title.empty());
        EXPECT_NE(e.run, nullptr) << e.id;
        ids.insert(e.id);
    }
    EXPECT_EQ(ids.size(), all.size()) << "duplicate experiment ids";
}

TEST(Experiments, EveryPaperArtifactRegistered)
{
    for (const auto &id :
         {"table1", "fig1a", "fig1b", "table2", "fig2c", "fig3",
          "fig4b", "fig4c", "table3a", "table3b", "fig5", "sec36"}) {
        auto *e = findExperiment(id);
        ASSERT_NE(e, nullptr) << id;
        EXPECT_NE(e->kind, ExperimentKind::Extension) << id;
        EXPECT_FALSE(e->paperReference.empty()) << id;
    }
}

TEST(Experiments, ExtensionsHaveNoPaperReference)
{
    for (const auto &e : allExperiments()) {
        if (e.kind == ExperimentKind::Extension) {
            EXPECT_TRUE(e.paperReference.empty()) << e.id;
        }
    }
}

TEST(Experiments, LookupMissReturnsNull)
{
    EXPECT_EQ(findExperiment("nonexistent"), nullptr);
}

TEST(Experiments, EveryPaperArtifactHasATarget)
{
    for (const auto &id :
         {"table1", "fig1a", "fig1b", "table2", "fig2c", "fig3", "fig4b",
          "fig4c", "table3a", "table3b", "fig5", "sec36", "rackpower",
          "activity", "tariff"}) {
        auto *e = findExperiment(id);
        ASSERT_NE(e, nullptr) << id;
        EXPECT_FALSE(e->targets.empty()) << id;
    }
    for (const auto &e : allExperiments()) {
        if (e.kind == ExperimentKind::Extension) {
            EXPECT_TRUE(e.targets.empty()) << e.id;
        }
    }
}

TEST(Experiments, EveryTargetReadsAProducedValue)
{
    for (const auto &e : allExperiments()) {
        if (e.targets.empty())
            continue;
        auto out = e.run();
        EXPECT_FALSE(out.tables.empty()) << e.id;
        for (const auto &t : e.targets)
            for (const auto &key : t.keys)
                EXPECT_EQ(out.values.count(key), 1u)
                    << e.id << " target reads unproduced '" << key << "'";
    }
}

TEST(Experiments, ToleranceFollowsStatedPrecision)
{
    auto exact = stated("x", 126, 0);
    EXPECT_EQ(exact.lo, 125.5);
    EXPECT_EQ(exact.hi, 126.5);
    auto dollars = stated("x", 5758, 0);
    EXPECT_EQ(dollars.hi - dollars.paper, 0.5);
    auto tilde = approx("x", 1.5, 0.5);
    EXPECT_EQ(tilde.lo, 1.25);
    EXPECT_EQ(tilde.hi, 1.75);
    auto ten = approx("x", 10, 10);
    EXPECT_EQ(ten.lo, 5.0);
    EXPECT_EQ(ten.hi, 15.0);
}

TEST(Experiments, ValueOneUlpOutsideToleranceIsAMiss)
{
    const double inf = std::numeric_limits<double>::infinity();
    auto t = stated("x", 126, 0);
    EXPECT_TRUE(judge(t, {{"x", 126.5}}).pass);
    EXPECT_TRUE(judge(t, {{"x", 125.5}}).pass);
    EXPECT_FALSE(judge(t, {{"x", std::nextafter(126.5, inf)}}).pass);
    EXPECT_FALSE(judge(t, {{"x", std::nextafter(125.5, -inf)}}).pass);
    EXPECT_FALSE(judge(t, {{"x", std::nan("")}}).pass);
    EXPECT_DOUBLE_EQ(judge(t, {{"x", 126.25}}).delta, 0.25);

    auto r = within("x", 1.8, 2.0);
    EXPECT_TRUE(judge(r, {{"x", 2.0}}).pass);
    auto above = judge(r, {{"x", std::nextafter(2.0, inf)}});
    EXPECT_FALSE(above.pass);
    EXPECT_GT(above.delta, 0.0);
    auto below = judge(r, {{"x", 1.5}});
    EXPECT_FALSE(below.pass);
    EXPECT_DOUBLE_EQ(below.delta, -0.3);
    EXPECT_EQ(judge(r, {{"x", 1.9}}).delta, 0.0);
    EXPECT_TRUE(judge(within("x", 25, inf), {{"x", 1e300}}).pass);
}

TEST(Experiments, ReversedOrderingFails)
{
    auto t = descending({"a", "b", "c"});
    auto holds = judge(t, {{"a", 3.0}, {"b", 2.0}, {"c", 0.5}});
    EXPECT_TRUE(holds.pass);
    EXPECT_EQ(holds.delta, 1.0);
    EXPECT_FALSE(judge(t, {{"a", 0.5}, {"b", 2.0}, {"c", 3.0}}).pass);
    // One swapped pair, and a tie, each fail the whole claim.
    EXPECT_FALSE(judge(t, {{"a", 3.0}, {"b", 0.5}, {"c", 2.0}}).pass);
    EXPECT_FALSE(judge(t, {{"a", 3.0}, {"b", 2.0}, {"c", 2.0}}).pass);
    EXPECT_FALSE(
        judge(t, {{"a", 3.0}, {"b", std::nan("")}, {"c", 2.0}}).pass);
}

ExperimentOutput
fakeRun()
{
    ExperimentOutput out;
    Table t({"Key", "Value"});
    t.addRow({"a", "1"});
    out.tables.push_back({"", std::move(t)});
    out.values = {{"a", 1.0}, {"b", 2.0}};
    return out;
}

TEST(Experiments, ReproduceExitsOneWhenAnOrderingFails)
{
    ExperimentInfo missing{"fake-miss", ExperimentKind::PaperClaim,
                           "a missed value", "a = 5", fakeRun,
                           {stated("a", 5, 0), descending({"b", "a"})}};
    ExperimentInfo reversed{"fake-order", ExperimentKind::PaperClaim,
                            "a reversed ordering", "a > b", fakeRun,
                            {descending({"a", "b"})}};
    std::ostringstream os, json;
    // A value outside its tolerance is recorded, not fatal.
    EXPECT_EQ(reproduce({&missing}, os, json), 0);
    EXPECT_NE(json.str().find("\"missed\""), std::string::npos);
    EXPECT_NE(os.str().find("| a   |     1 |"), std::string::npos)
        << os.str();
    std::ostringstream os2, json2;
    EXPECT_EQ(reproduce({&missing, &reversed}, os2, json2), 1);
    EXPECT_NE(json2.str().find("\"fails\""), std::string::npos);
}

TEST(Experiments, ReproduceRejectsUnknownId)
{
    std::string dir = testing::TempDir();
    std::string err = dir + "wsc_reproduce_nosuch.err";
    std::string cmd = std::string(WSC_REPRODUCE) + " --id nosuch --out " +
                      dir + "wsc_reproduce_nosuch.json 2> " + err;
    int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 1);
    std::ifstream in(err);
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_NE(text.str().find("unknown experiment id 'nosuch'"),
              std::string::npos)
        << text.str();
}

TEST(Experiments, KindNamesPrintable)
{
    EXPECT_EQ(to_string(ExperimentKind::PaperTable), "paper-table");
    EXPECT_EQ(to_string(ExperimentKind::Extension), "extension");
}

} // namespace
