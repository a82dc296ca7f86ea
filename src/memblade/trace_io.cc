#include "memblade/trace_io.hh"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>

#include "memblade/replay.hh"
#include "memblade/trace_stream.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace wsc {
namespace memblade {

namespace {

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

} // namespace

void
writeTraceText(std::ostream &os, const std::vector<PageId> &trace)
{
    os << "# wsc page trace, " << trace.size() << " accesses\n";
    for (PageId p : trace)
        os << p << "\n";
    WSC_ASSERT(os.good(), "trace write failed");
}

std::vector<PageId>
readTraceText(std::istream &is)
{
    std::vector<PageId> out;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        std::string t = trim(line);
        if (t.empty() || t[0] == '#')
            continue;
        try {
            std::size_t consumed = 0;
            unsigned long long v = std::stoull(t, &consumed);
            if (consumed != t.size())
                throw std::invalid_argument("trailing characters");
            out.push_back(PageId(v));
        } catch (const std::exception &) {
            fatal("bad trace line " + std::to_string(line_no) + ": '" +
                  t + "'");
        }
    }
    return out;
}

void
checkTraceExtension(const std::string &path)
{
    if (!endsWith(path, ".strace") && !endsWith(path, ".trace"))
        fatal("unknown trace extension on '" + path +
              "' (use .trace or .strace)");
}

void
saveTrace(const std::string &path, const std::vector<PageId> &trace)
{
    checkTraceExtension(path);
    if (endsWith(path, ".strace")) {
        writeTraceStream(path, trace);
        return;
    }
    std::ofstream os(path);
    if (!os)
        fatal("cannot open '" + path + "' for writing");
    writeTraceText(os, trace);
}

std::vector<PageId>
loadTrace(const std::string &path)
{
    checkTraceExtension(path);
    if (endsWith(path, ".strace"))
        return readTraceStreamPages(path);
    std::ifstream is(path);
    if (!is)
        fatal("cannot open '" + path + "'");
    return readTraceText(is);
}

ReplayStats
replayTrace(const std::vector<PageId> &trace, std::size_t localFrames,
            PolicyKind kind, std::uint64_t seed,
            std::uint64_t pageBound)
{
    WSC_ASSERT(localFrames > 0, "need at least one local frame");
    // Dense id spaces get bitset cold tracking; sparse ones fall back
    // to a hash set inside ColdTracker. Callers that already know the
    // bound (the streaming format carries it in the header) pass it
    // in and skip this extra pass.
    std::uint64_t bound = pageBound;
    if (bound == 0) {
        for (PageId p : trace)
            bound = std::max(bound, p + 1);
    }
    return replayPages(trace.data(), trace.size(), kind, localFrames,
                       bound, Rng(seed));
}

} // namespace memblade
} // namespace wsc
