/**
 * @file
 * Machine-readable experiment registry.
 *
 * One entry per paper table/figure (and per extension study): a run
 * that regenerates its tables and measures named values, and numeric
 * targets that state the paper's claims as checkable intervals and
 * orderings over those values. wsc_reproduce runs the registry and
 * writes the verdicts to REPRO.json, which CI compares against the
 * committed record, so a drifting reproduced number fails a check.
 */

#ifndef WSC_CORE_EXPERIMENTS_HH
#define WSC_CORE_EXPERIMENTS_HH

#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "util/table.hh"

namespace wsc {
namespace core {

/** Provenance of an experiment. */
enum class ExperimentKind {
    PaperTable,   //!< reproduces a numbered paper table
    PaperFigure,  //!< reproduces a numbered paper figure
    PaperClaim,   //!< reproduces an in-text quantitative claim
    Extension     //!< builds out the paper's stated future work
};

std::string to_string(ExperimentKind k);

/** Named scalars an experiment measured, each in the unit the paper
 * states its claim in (percent, X, dollars, watts, ...). */
using ExperimentValues = std::map<std::string, double>;

/**
 * One numeric claim of the paper about an experiment's values.
 *
 * A Value or Range target reads one key and is met when the value
 * lies in [lo, hi] (bounds inclusive, either may be infinite); a miss
 * is recorded, not fatal. An Ordering target reads two or more keys
 * and holds when their values are strictly descending; a failed
 * ordering fails the reproduction.
 */
struct Target {
    enum class Kind { Value, Range, Ordering };
    Kind kind = Kind::Value;
    std::vector<std::string> keys;
    double paper = 0.0; //!< the stated value (Value only)
    double lo = 0.0;
    double hi = 0.0;
    /** Why the reproduction departs from the paper here, for targets
     * known to miss. */
    std::string note;
};

/**
 * An exact paper number: met within half a unit of its last stated
 * digit (@p decimals after the point; 126% -> [125.5, 126.5]).
 */
Target stated(std::string key, double paper, int decimals,
              std::string note = "");

/** A "~" paper number: met within half its stated step (~1.5X with
 * step 0.5 -> [1.25, 1.75]; ~10% with step 10 -> [5, 15]). */
Target approx(std::string key, double paper, double step,
              std::string note = "");

/** A stated range: met inside [lo, hi]. */
Target within(std::string key, double lo, double hi,
              std::string note = "");

/** An ordering claim: @p keys' values strictly descending. */
Target descending(std::vector<std::string> keys, std::string note = "");

/** The outcome of checking one target against measured values. */
struct Verdict {
    std::vector<double> measured; //!< one per target key
    /**
     * Value: measured - paper. Range: distance outside [lo, hi]
     * (negative below, positive above, 0 inside). Ordering: the
     * smallest gap between neighbours (positive when it holds).
     */
    double delta = 0.0;
    bool pass = false; //!< met (Value/Range) or holds (Ordering)
};

/** Check @p t against @p values; panics if a key is not present. */
Verdict judge(const Target &t, const ExperimentValues &values);

/** One printed block of an experiment: a caption (may be empty) and
 * its table. */
struct CaptionedTable {
    std::string caption;
    Table table;
};

/** What an experiment's run produces. */
struct ExperimentOutput {
    /** Printed in order; a deque, so table() references stay valid
     * while later tables are added. */
    std::deque<CaptionedTable> tables;
    ExperimentValues values; //!< every key the targets read

    /** Append an empty table under @p caption and return it. */
    Table &
    table(std::string caption, std::vector<std::string> header)
    {
        return tables
            .emplace_back(CaptionedTable{std::move(caption),
                                         Table(std::move(header))})
            .table;
    }
};

/** One experiment in the reproduction. */
struct ExperimentInfo {
    std::string id;          //!< e.g. "fig2c", "table3b", "sec36"
    ExperimentKind kind;
    std::string title;       //!< what the paper shows
    /** One-line summary of the paper's reference values ("" for
     * extensions with no paper counterpart). */
    std::string paperReference;
    /** Runs the experiment (deterministic seeds); building the
     * registry runs nothing. */
    ExperimentOutput (*run)();
    /** The paper's claims as checkable targets (none for
     * extensions). */
    std::vector<Target> targets;
};

/** The full registry, in paper order then extensions. */
const std::vector<ExperimentInfo> &allExperiments();

/** Look up by id; null when absent. */
const ExperimentInfo *findExperiment(const std::string &id);

/**
 * Run @p experiments in order, print each one's tables and target
 * verdicts to @p os, and write the REPRO document (per target: paper
 * value or interval, measured values, delta, verdict) to @p json.
 * Returns the exit status: 1 when any ordering claim fails, else 0.
 * A value outside its tolerance is a recorded miss, not a failure.
 */
int reproduce(const std::vector<const ExperimentInfo *> &experiments,
              std::ostream &os, std::ostream &json);

} // namespace core
} // namespace wsc

#endif // WSC_CORE_EXPERIMENTS_HH
