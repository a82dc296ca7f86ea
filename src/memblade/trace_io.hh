/**
 * @file
 * Page-trace persistence.
 *
 * The paper replayed traces gathered from full-system simulation; our
 * generators substitute for those. This module lets users of the
 * library replay *real* traces instead: a simple line-oriented text
 * format (one decimal page id per line, '#' comments), with
 * round-trip guarantees, next to the streaming format of
 * memblade/trace_stream.hh for long traces.
 */

#ifndef WSC_MEMBLADE_TRACE_IO_HH
#define WSC_MEMBLADE_TRACE_IO_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "memblade/replay.hh"
#include "memblade/trace.hh"

namespace wsc {
namespace memblade {

/**
 * Write a trace as text: a header comment, then one page id per line.
 */
void writeTraceText(std::ostream &os, const std::vector<PageId> &trace);

/**
 * Read a text trace. Blank lines and lines starting with '#' are
 * skipped; anything unparsable raises FatalError (user input).
 */
std::vector<PageId> readTraceText(std::istream &is);

/** Convenience: file-path variants (format chosen by extension:
 * ".trace" text, ".strace" streaming — see memblade/trace_stream.hh;
 * any other extension raises FatalError). */
void saveTrace(const std::string &path,
               const std::vector<PageId> &trace);
/** Raise FatalError unless @p path names a trace format (.trace or
 * .strace); lets a tool reject an output path before any work. */
void checkTraceExtension(const std::string &path);
std::vector<PageId> loadTrace(const std::string &path);

/**
 * Replay an explicit trace through a two-level memory of
 * @p localFrames frames and return the statistics.
 *
 * @param pageBound Declared bound on page ids (0 = unknown, computed
 *        with an extra O(n) pass; streaming callers pass the header
 *        bound and skip the scan).
 */
ReplayStats replayTrace(const std::vector<PageId> &trace,
                        std::size_t localFrames, PolicyKind kind,
                        std::uint64_t seed,
                        std::uint64_t pageBound = 0);

} // namespace memblade
} // namespace wsc

#endif // WSC_MEMBLADE_TRACE_IO_HH
