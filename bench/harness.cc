#include "harness.hh"

#include <fstream>
#include <iostream>

#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace wsc {
namespace bench {

namespace {

std::string
readCpusAllowed()
{
    std::ifstream status("/proc/self/status");
    const std::string tag = "Cpus_allowed_list:";
    for (std::string line; std::getline(status, line);)
        if (line.compare(0, tag.size(), tag) == 0) {
            auto start = line.find_first_not_of(" \t", tag.size());
            return start == std::string::npos ? "" : line.substr(start);
        }
    return "unknown";
}

} // namespace

const Host &
host()
{
    static const Host h = [] {
        Host r;
        r.hardwareThreads = ThreadPool::allowedCpus();
        r.cpusAllowed = readCpusAllowed();
#if defined(__clang__)
        r.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
        r.compiler = "gcc " __VERSION__;
#else
        r.compiler = "unknown";
#endif
        r.buildType = WSC_BUILD_TYPE;
        return r;
    }();
    return h;
}

void
writeChecks(obs::JsonWriter &w,
            const std::vector<stats::GateCheck> &checks)
{
    w.beginArray();
    for (const auto &c : checks)
        w.beginObject()
            .key("name").value(c.name)
            .key("kind").value(c.kind)
            .key("passed").value(c.passed)
            .key("statistic").value(c.statistic)
            .key("p_value").value(c.pValue)
            .endObject();
    w.endArray();
}

Report::Report(const std::string &bench, std::uint64_t schemaVersion)
{
    const Host &h = host();
    w.beginObject()
        .key("bench").value(bench)
        .key("schema_version").value(schemaVersion)
        .key("host").beginObject()
        .key("hardware_threads").value(std::uint64_t(h.hardwareThreads))
        .key("cpus_allowed").value(h.cpusAllowed)
        .key("compiler").value(h.compiler)
        .key("build_type").value(h.buildType)
        .endObject();
}

void
Report::gate(stats::GateCheck check)
{
    verdict.passed = verdict.passed && check.passed;
    verdict.checks.push_back(std::move(check));
}

void
Report::gate(const stats::GateVerdict &v)
{
    for (const auto &c : v.checks)
        gate(c);
    verdict.passed = verdict.passed && v.passed;
}

void
Report::identity(const std::string &name, bool identical)
{
    stats::GateCheck c;
    c.name = name;
    c.kind = "bit-identity";
    c.passed = identical;
    gate(std::move(c));
}

int
Report::finish(const std::string &path)
{
    w.key("passed").value(verdict.passed).endObject();
    std::ofstream out(path);
    out << w.str() << "\n";
    if (!out)
        fatal("cannot write " + path);
    std::cout << "\nWrote " << path << "\n";
    return verdict.passed ? 0 : 1;
}

int
runMain(int argc, char **argv, int (*body)(int, char **))
{
    try {
        return body(argc, argv);
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
}

} // namespace bench
} // namespace wsc
