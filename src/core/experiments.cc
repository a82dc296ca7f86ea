#include "core/experiments.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "obs/json.hh"
#include "util/logging.hh"

namespace wsc {
namespace core {

std::string
to_string(ExperimentKind k)
{
    switch (k) {
      case ExperimentKind::PaperTable:
        return "paper-table";
      case ExperimentKind::PaperFigure:
        return "paper-figure";
      case ExperimentKind::PaperClaim:
        return "paper-claim";
      case ExperimentKind::Extension:
        return "extension";
    }
    panic("unknown experiment kind");
}

Target
stated(std::string key, double paper, int decimals, std::string note)
{
    double half = 0.5 * std::pow(10.0, -decimals);
    return {Target::Kind::Value, {std::move(key)}, paper, paper - half,
            paper + half, std::move(note)};
}

Target
approx(std::string key, double paper, double step, std::string note)
{
    return {Target::Kind::Value, {std::move(key)}, paper,
            paper - step / 2.0, paper + step / 2.0, std::move(note)};
}

Target
within(std::string key, double lo, double hi, std::string note)
{
    return {Target::Kind::Range, {std::move(key)}, 0.0, lo, hi,
            std::move(note)};
}

Target
descending(std::vector<std::string> keys, std::string note)
{
    WSC_ASSERT(keys.size() >= 2, "an ordering needs two or more keys");
    return {Target::Kind::Ordering, std::move(keys), 0.0, 0.0, 0.0,
            std::move(note)};
}

Verdict
judge(const Target &t, const ExperimentValues &values)
{
    Verdict v;
    for (const auto &key : t.keys) {
        auto it = values.find(key);
        if (it == values.end())
            panic("target reads unmeasured value '" + key + "'");
        v.measured.push_back(it->second);
    }
    if (t.kind == Target::Kind::Ordering) {
        v.delta = std::numeric_limits<double>::infinity();
        v.pass = true;
        for (std::size_t i = 1; i < v.measured.size(); ++i) {
            double gap = v.measured[i - 1] - v.measured[i];
            v.pass = v.pass && gap > 0.0; // false for NaN
            v.delta = std::min(v.delta, gap);
        }
        return v;
    }
    double x = v.measured.front();
    v.pass = x >= t.lo && x <= t.hi; // false for NaN
    if (t.kind == Target::Kind::Value)
        v.delta = x - t.paper;
    else
        v.delta = x < t.lo ? x - t.lo : x > t.hi ? x - t.hi : 0.0;
    return v;
}

const ExperimentInfo *
findExperiment(const std::string &id)
{
    for (const auto &e : allExperiments())
        if (e.id == id)
            return &e;
    return nullptr;
}

int
reproduce(const std::vector<const ExperimentInfo *> &experiments,
          std::ostream &os, std::ostream &json)
{
    obs::JsonWriter w;
    w.beginObject().key("schema_version").value(std::uint64_t(1));
    w.key("experiments").beginArray();
    std::uint64_t met = 0, missed = 0, holds = 0, fails = 0;
    for (const auto *e : experiments) {
        os << "=== " << e->id << " (" << to_string(e->kind)
           << "): " << e->title << " ===\n\n";
        auto out = e->run();
        for (const auto &ct : out.tables) {
            if (!ct.caption.empty())
                os << ct.caption << "\n";
            ct.table.print(os);
            os << "\n";
        }
        if (!e->targets.empty())
            os << "Targets (paper: " << e->paperReference << "):\n";

        w.beginObject().key("id").value(e->id);
        w.key("kind").value(to_string(e->kind));
        w.key("targets").beginArray();
        for (const auto &t : e->targets) {
            auto v = judge(t, out.values);
            bool ordering = t.kind == Target::Kind::Ordering;
            const char *verdict = ordering ? (v.pass ? "holds" : "fails")
                                           : (v.pass ? "met" : "missed");
            ++(ordering ? (v.pass ? holds : fails)
                        : (v.pass ? met : missed));
            os << "  " << verdict << "\t";
            for (std::size_t i = 0; i < t.keys.size(); ++i)
                os << (i ? " > " : "") << t.keys[i] << " " << v.measured[i];
            if (!ordering)
                os << " (paper [" << t.lo << ", " << t.hi << "])";
            os << "\n";

            w.beginObject().key("keys").beginArray();
            for (const auto &k : t.keys)
                w.value(k);
            w.endArray();
            if (t.kind == Target::Kind::Value)
                w.key("paper").value(t.paper);
            if (!ordering)
                w.key("lo").value(t.lo).key("hi").value(t.hi);
            w.key("measured").beginArray();
            for (double x : v.measured)
                w.value(x);
            w.endArray();
            w.key("delta").value(v.delta);
            w.key("verdict").value(verdict);
            if (!t.note.empty())
                w.key("note").value(t.note);
            w.endObject();
        }
        w.endArray().endObject();
        if (!e->targets.empty())
            os << "\n";
    }
    w.endArray();
    w.key("summary").beginObject();
    w.key("met").value(met).key("missed").value(missed);
    w.key("orderings_hold").value(holds).key("orderings_fail").value(fails);
    w.endObject().endObject();
    json << w.str() << "\n";

    os << "Targets: " << met << " met, " << missed << " missed; "
       << "orderings: " << holds << " hold, " << fails << " fail\n";
    return fails > 0 ? 1 : 0;
}

} // namespace core
} // namespace wsc
