/**
 * @file
 * The scaffolding every gated bench shares: best-of-N timing, the
 * host fingerprint, the BENCH_*.json envelope, and the rule that
 * turns gate checks into the exit code.
 *
 * A gated bench builds one Report, writes its own keys through
 * Report::json(), folds every correctness check (bit-identity,
 * statistical equivalence) into the report's verdict, and returns
 * Report::finish(). The written document is
 *
 *   {"bench": ..., "schema_version": N,
 *    "host": {"hardware_threads", "cpus_allowed", "compiler",
 *             "build_type"},
 *    ...bench keys...,
 *    "passed": <every gate check passed>}
 *
 * and the exit code is 0 exactly when "passed" is true.
 */

#ifndef WSC_BENCH_HARNESS_HH
#define WSC_BENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "stats/equivalence.hh"

namespace wsc {
namespace bench {

/** Default repetitions of a best-of-N timing. */
constexpr int kTimedReps = 3;

/**
 * Minimum wall time, in seconds, over @p reps runs of @p fn. The
 * minimum discards interference from a noisy shared host, which the
 * mean does not.
 */
template <typename Fn>
double
bestOf(Fn &&fn, int reps = kTimedReps)
{
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        fn();
        double sec = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
        if (rep == 0 || sec < best)
            best = sec;
    }
    return best;
}

/** @p num / @p den, or 0 when @p den is not positive (an untimed or
 * empty arm). */
inline double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** The machine a bench ran on: numbers from two hosts compare only
 * when these agree. */
struct Host {
    /** CPUs the affinity mask allows (ThreadPool::allowedCpus()). */
    unsigned hardwareThreads = 1;
    std::string cpusAllowed; //!< Cpus_allowed_list, or "unknown"
    std::string compiler;
    std::string buildType;
};

/** This process's host fingerprint (read once). */
const Host &host();

/** Write @p checks as an array of {name, kind, passed, statistic,
 * p_value} objects. */
void writeChecks(obs::JsonWriter &w,
                 const std::vector<stats::GateCheck> &checks);

/** One bench run's BENCH_*.json document and gate verdict. */
class Report
{
  public:
    /** Opens the document with bench, schema_version and host. */
    Report(const std::string &bench, std::uint64_t schemaVersion);

    /** The open top-level object: the bench writes its keys here. */
    obs::JsonWriter &json() { return w; }

    /** Fold one check into the verdict. */
    void gate(stats::GateCheck check);
    /** Fold every check of @p verdict into the verdict. */
    void gate(const stats::GateVerdict &verdict);
    /** Fold in a bit-identity check. */
    void identity(const std::string &name, bool identical);

    bool passed() const { return verdict.passed; }

    /** Close the document with "passed", write it to @p path, and
     * return the exit code: 0 iff every check passed. */
    int finish(const std::string &path);

  private:
    obs::JsonWriter w;
    stats::GateVerdict verdict;
};

/** Run a bench body, turning a FatalError into exit status 1. */
int runMain(int argc, char **argv, int (*body)(int, char **));

} // namespace bench
} // namespace wsc

#endif // WSC_BENCH_HARNESS_HH
