/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload paper-eval|ensemble-day|trace-study
 *             --seed N --seconds S --trace 0|1 --scratch DIR
 *
 * Sets the workload up five times (setup_s is the median), then runs
 * its pass back to back until S seconds have elapsed and prints one
 * JSON line: quartiles over the passes, the output checks, the digests
 * of the last pass and the host description. The first pass is a
 * warm-up and is not measured.
 *
 * --trace 0 measures the end-to-end metrics with tracing off.
 * --trace 1 alternates untraced and traced passes; the traced passes
 * record a span around every call into a library layer and give the
 * per-layer numbers, and the ratio of traced to untraced pass time is
 * the tracing overhead. Spans are written to DIR at exit.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.hh"
#include "obs/json.hh"
#include "util/logging.hh"

using namespace perfbench;

namespace {

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

unsigned
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

std::string
cpusAllowedList()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::string key = "Cpus_allowed_list:";
    while (std::getline(in, line))
        if (line.rfind(key, 0) == 0) {
            auto v = line.substr(key.size());
            v.erase(0, v.find_first_not_of(" \t"));
            return v;
        }
    return "unknown";
}

void
writeMetrics(wsc::obs::JsonWriter &w, const std::string &key,
             const Metrics &m)
{
    w.key(key).beginObject();
    for (const auto &[name, value] : m)
        w.key(name).value(value);
    w.endObject();
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string scratch = ".";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            wsc::fatal("missing value for " + flag);
        std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::stoull(v);
        else if (flag == "--seconds")
            a.seconds = std::stod(v);
        else if (flag == "--trace")
            a.trace = v == "1";
        else if (flag == "--scratch")
            a.scratch = v;
        else
            wsc::fatal("unknown option " + flag);
    }
    if (a.seconds <= 0.0)
        wsc::fatal("--seconds must be positive");
    return a;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Options &opts)
{
    if (name == "paper-eval")
        return makePaperEval(opts);
    if (name == "ensemble-day")
        return makeEnsembleDay(opts);
    if (name == "trace-study")
        return makeTraceStudy(opts);
    wsc::fatal("unknown workload '" + name +
               "' (paper-eval|ensemble-day|trace-study)");
}

/** Span self times of one traced pass as per-layer metrics: each span
 * name gives "<name>_s" and each layer "<layer>.self_s". */
Metrics
spanMetrics(const Tracer &tracer, unsigned run)
{
    Metrics m;
    for (const auto &[name, self] : tracer.selfTimes(run)) {
        m[name + "_s"] += self;
        m[name.substr(0, name.find('.')) + ".self_s"] += self;
    }
    return m;
}

int
run(int argc, char **argv, double start)
{
    Args args = parseArgs(argc, argv);
    Options opts;
    opts.seed = args.seed;
    opts.threads = allowedCpus();
    opts.scratchDir = args.scratch;
    auto workload = makeWorkload(args.workload, opts);

    // Set-up is repeated so setup_s is a median; the first repetition
    // also carries process start-up up to this point.
    std::vector<double> setups;
    for (int i = 0; i < 5; ++i) {
        double t0 = i == 0 ? start : now();
        workload->setup();
        setups.push_back(now() - t0);
    }

    Checks checks;
    Tracer tracer;
    std::vector<double> walls, cpus, rates, tracedWalls;
    std::vector<Metrics> layers;
    std::uint64_t firstDigest = 0;
    double deadline = now() + args.seconds;
    // Pass 0 warms caches and the allocator at full size and is not
    // measured; it sets the digest every later pass must reproduce.
    for (unsigned pass = 0;; ++pass) {
        bool traced = args.trace && pass > 0 && pass % 2 == 0;
        Tracer *t = traced ? &tracer : nullptr;
        double c0 = cpuSeconds(), w0 = now();
        PassOutput out;
        {
            Scope root(t, "bench.pass", pass);
            out = workload->pass(t, pass, checks);
        }
        double wall = now() - w0, cpu = cpuSeconds() - c0;
        if (pass == 0) {
            firstDigest = out.digest;
            continue;
        }
        checks.expect(out.digest == firstDigest,
                      "pass reproduces the first pass's outputs");
        if (traced) {
            tracedWalls.push_back(wall);
            Metrics m = spanMetrics(tracer, pass);
            m.insert(out.layer.begin(), out.layer.end());
            workload->derive(m);
            layers.push_back(std::move(m));
        } else {
            walls.push_back(wall);
            cpus.push_back(cpu);
            rates.push_back(out.work / wall);
        }
        bool enough =
            !walls.empty() && (!args.trace || !tracedWalls.empty());
        if (now() >= deadline && enough)
            break;
    }
    workload->verify(checks);
    auto digests = workload->digests();
    workload->cleanup();

    // On a shared host a pass slows with the neighbours' memory traffic
    // for minutes at a time. The better quartile of the passes tracks
    // the workload's own cost and moves less from run to run than the
    // median does.
    Metrics e2e{{"setup_s", median(setups)},
                {"wall_s", percentile(walls, 25.0)},
                {"work_per_s", percentile(rates, 75.0)},
                {"cpu_s", percentile(cpus, 25.0)},
                {"peak_rss_mb", peakRssMb()}};
    Metrics perLayer;
    if (args.trace) {
        std::map<std::string, std::vector<double>> series;
        for (const auto &m : layers)
            for (const auto &[name, value] : m)
                series[name].push_back(value);
        for (auto &[name, values] : series)
            perLayer[name] = median(values);
        perLayer["trace.overhead"] = median(tracedWalls) / median(walls);
        tracer.write(args.scratch + "/spans-" + args.workload + "-seed" +
                     std::to_string(args.seed) + ".jsonl");
    }

    for (const auto &note : workload->notes())
        std::cout << args.workload << ": " << note << "\n";
    for (const auto &f : checks.failures)
        std::cout << args.workload << ": FAILED CHECK: " << f << "\n";

    wsc::obs::JsonWriter w;
    w.beginObject()
        .key("workload").value(args.workload)
        .key("seed").value(args.seed)
        .key("trace").value(args.trace)
        .key("work_unit").value(workload->workUnit())
        .key("passes").value(std::uint64_t(walls.size()))
        .key("traced_passes").value(std::uint64_t(tracedWalls.size()))
        .key("attempted").value(checks.attempted)
        .key("failed").value(checks.failed);
    w.key("host").beginObject()
        .key("nproc").value(std::uint64_t(opts.threads))
        .key("cpus_allowed_list").value(cpusAllowedList())
        .key("compiler").value(PERFBENCH_COMPILER)
        .key("build_type").value(PERFBENCH_BUILD_TYPE)
        .endObject();
    w.key("digests").beginObject();
    for (const auto &[name, hex] : digests)
        w.key(name).value(hex);
    w.endObject();
    w.key("pass_walls").beginArray();
    for (double x : walls)
        w.value(x);
    w.endArray();
    writeMetrics(w, "end_to_end", e2e);
    writeMetrics(w, "per_layer", perLayer);
    w.endObject();
    std::cout << compactJson(w.str()) << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    double start = now();
    try {
        return run(argc, argv, start);
    } catch (const wsc::FatalError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
