/**
 * @file
 * Shared pieces of the benchmark: output digests, the span
 * tracer, output checks, and the interface every workload implements.
 *
 * A workload is a fixed pipeline of calls into the wsc libraries. The
 * benchmark sets it up, then repeats pass() back to back (a closed loop)
 * for the requested number of seconds. Simulated outputs are
 * deterministic per seed, so every pass must reproduce the same
 * digest; a change counts as a failed check, never as a speed-up.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/** Seconds on the monotonic clock. */
double now();

/** FNV-1a 64-bit digest of simulated outputs (doubles by bit pattern). */
class Digest
{
  public:
    Digest &bytes(const void *p, std::size_t n);
    Digest &add(double x);
    Digest &add(std::uint64_t x);
    Digest &add(const std::string &s);

    std::uint64_t value() const { return h; }
    std::string hex() const;

  private:
    std::uint64_t h = 14695981039346656037ull;
};

/** One traced call: [start, end) on the monotonic clock. */
struct Span {
    std::string name;  //!< "<layer>.<step>", e.g. "core.screen"
    double start = 0.0;
    double end = 0.0;
    int parent = -1;   //!< index of the enclosing span, -1 at the root
    unsigned run = 0;  //!< pass number the span belongs to
};

/**
 * In-memory span recorder. Spans nest by call order; nothing is
 * written until write() at exit.
 */
class Tracer
{
  public:
    int begin(const std::string &name, unsigned run);
    void end(int id);

    /** Self time (duration minus the time covered by child spans)
     * summed per span name over the spans of pass @p run. */
    std::map<std::string, double> selfTimes(unsigned run) const;

    /** Write every span as JSON lines to @p path. */
    void write(const std::string &path) const;

  private:
    std::vector<Span> spans;
    std::vector<int> open;
};

/** Records a span for its lifetime; a no-op without a tracer. */
class Scope
{
  public:
    Scope(Tracer *tracer, const std::string &name, unsigned run);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer;
    int id;
};

/** Output checks: each expect() is one attempted check. */
class Checks
{
  public:
    void expect(bool ok, const std::string &what);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; //!< first few, for the log
};

/** Named per-layer numbers. */
using Metrics = std::map<std::string, double>;

/** What one pass of a workload produced. */
struct PassOutput {
    double work = 0.0;        //!< work units completed (see workUnit)
    std::uint64_t digest = 0; //!< digest of every simulated output
    /** Counts and times read from the libraries' result structs. */
    Metrics layer;
};

struct Options {
    std::uint64_t seed = 1;
    unsigned threads = 1;   //!< pool width and ensemble workers
    std::string scratchDir; //!< for files a workload writes
};

class Workload
{
  public:
    Workload() = default;
    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** What PassOutput::work counts, e.g. "design x benchmark cells". */
    virtual std::string workUnit() const = 0;

    /** Build the inputs and run an untimed warm-up at reduced size. */
    virtual void setup() = 0;

    /** One timed pass; spans go to @p tracer when it is non-null. */
    virtual PassOutput pass(Tracer *tracer, unsigned run,
                            Checks &checks) = 0;

    /** Add metrics derived from span times and pass counts. */
    virtual void derive(Metrics &m) const = 0;

    /** Untimed invariant checks after the timed passes. */
    virtual void verify(Checks &checks) = 0;

    /** Named digests of the last pass, compared against the
     * reference digests at the default seed. */
    virtual std::map<std::string, std::string> digests() const = 0;

    /** Human-readable lines printed ahead of the result. */
    virtual std::vector<std::string> notes() const { return {}; }

    /** Remove files the workload wrote. */
    virtual void cleanup() {}
};

std::unique_ptr<Workload> makePaperEval(const Options &opts);
std::unique_ptr<Workload> makeEnsembleDay(const Options &opts);
std::unique_ptr<Workload> makeTraceStudy(const Options &opts);

/** @p json (pretty-printed by obs::JsonWriter) on one line. */
std::string compactJson(const std::string &json);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank percentile, @p p in [0, 100] (0 when empty). */
double percentile(std::vector<double> v, double p);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
