/**
 * @file
 * Streaming trace ingestion: the "WSCS" binary record format and an
 * mmap-backed reader that feeds the allocation-free replay kernels in
 * batched windows, so multi-GB real traces replay at memory bandwidth
 * without ever materializing the access sequence in RAM.
 *
 * Format (version 1, all integers little-endian on disk):
 *
 *   offset  size  field
 *   ------  ----  -----------------------------------------------
 *        0     4  magic "WSCS"
 *        4     1  version (1)
 *        5     1  flags (bit 0: records carry a timestamp word)
 *        6     2  reserved (0)
 *        8     8  u64 record count
 *       16     8  u64 page-id bound (every page id < bound)
 *       24     8  reserved (0)
 *
 * followed by `count` fixed-width records, drcachesim memref-style:
 * one u64 word encoding the page id in bits 0..62 and a read/write
 * flag in bit 63, then (iff flags bit 0) a u64 timestamp. Page ids
 * must therefore be < 2^63 — far beyond the reserved PageSlotMap
 * empty marker, which the writer rejects anyway.
 *
 * Carrying the page-id bound in the header is what makes streaming
 * replay single-pass: the replay kernels size their direct-mapped
 * slot maps and cold-miss bitsets from the bound, which the text
 * `.trace` path can only learn by pre-scanning the whole trace.
 *
 * The reader mmaps the file read-only (MADV_SEQUENTIAL) and serves
 * batches straight out of the mapping, releasing each fully consumed
 * MB of it after a fill (MADV_DONTNEED), so a pass keeps about 1 MB
 * of the file resident however long the trace; a rewound pass
 * re-faults the same bytes from the file. When mmap is unavailable (or
 * the platform lacks it) it falls back to buffered ifstream reads of
 * the same batch size. Both paths validate the header against the
 * actual file size before touching a record, so a corrupt count can
 * never drive an allocation.
 */

#ifndef WSC_MEMBLADE_TRACE_STREAM_HH
#define WSC_MEMBLADE_TRACE_STREAM_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "memblade/replay.hh"
#include "memblade/stack_distance.hh"
#include "memblade/trace.hh"

namespace wsc {
namespace memblade {

/** One decoded streaming-trace record. */
struct TraceRecord {
    PageId page = 0;
    bool write = false;
    std::uint64_t timestamp = 0; //!< 0 when the file has none
};

/** Header fields of a streaming trace file. */
struct TraceStreamInfo {
    std::uint64_t count = 0;     //!< records in the file
    std::uint64_t pageBound = 0; //!< every page id < pageBound
    std::uint64_t writes = 0;    //!< records with the write flag set
    bool hasTimestamps = false;
};

/**
 * Incremental writer for the streaming format. Records are buffered
 * and flushed in large blocks; close() (or the destructor) patches
 * the final count and page-id bound into the header, so callers never
 * pre-compute either.
 */
class TraceStreamWriter
{
  public:
    /**
     * @param path Output file (created/truncated).
     * @param withTimestamps Write 16-byte records carrying the
     *        timestamp argument of append().
     */
    explicit TraceStreamWriter(const std::string &path,
                               bool withTimestamps = false);

    /** Flushes and finalizes the header if close() was not called. */
    ~TraceStreamWriter();

    TraceStreamWriter(const TraceStreamWriter &) = delete;
    TraceStreamWriter &operator=(const TraceStreamWriter &) = delete;

    /** Append one record. @p page must be < 2^63. */
    void append(PageId page, bool write = false,
                std::uint64_t timestamp = 0);

    /** Flush buffered records and patch the header. Idempotent. */
    void close();

    std::uint64_t count() const { return count_; }

  private:
    void flushBuffer();

    std::string path_;
    std::ofstream os;
    bool withTimestamps_;
    bool closed = false;
    std::uint64_t count_ = 0;
    std::uint64_t pageBound_ = 0;
    std::uint64_t writes_ = 0;
    std::vector<std::uint64_t> buffer; //!< encoded on-disk words
};

/**
 * Streaming reader. Construction validates the header against the
 * real file size (fatal() on any mismatch — bad magic, unknown
 * version, truncated body, oversized count); fillPages()/fillRecords()
 * then decode sequential batches.
 */
class TraceStream
{
  public:
    /**
     * @param forceBuffered Skip the mmap attempt and serve batches
     *        through the buffered-ifstream fallback. A test hook: the
     *        fallback otherwise only runs on platforms without mmap
     *        (or when mapping fails), so its identity with the mapped
     *        path would go unexercised by CI.
     */
    explicit TraceStream(const std::string &path,
                         bool forceBuffered = false);
    ~TraceStream();

    TraceStream(const TraceStream &) = delete;
    TraceStream &operator=(const TraceStream &) = delete;

    std::uint64_t count() const { return info_.count; }
    std::uint64_t pageBound() const { return info_.pageBound; }
    bool hasTimestamps() const { return info_.hasTimestamps; }
    const TraceStreamInfo &info() const { return info_; }

    /** Records not yet consumed. */
    std::uint64_t remaining() const { return info_.count - consumed; }

    /**
     * Decode up to @p maxN page ids (write flags stripped) into
     * @p out; returns the number decoded, 0 at end of trace. Batches
     * are validated against the header page bound (fatal on a record
     * breaking the bound — the file is corrupt, and the replay
     * kernels' direct-mapped tables would index out of range).
     */
    std::size_t fillPages(PageId *out, std::size_t maxN);

    /** Decode up to @p maxN full records. */
    std::size_t fillRecords(TraceRecord *out, std::size_t maxN);

    /** Restart from the first record (released pages re-fault). */
    void rewind();

    /** True when the reader serves batches from an mmap'd view. */
    bool mapped() const { return base != nullptr; }

  private:
    std::size_t stride() const { return info_.hasTimestamps ? 16 : 8; }
    /** Raw bytes of records [consumed, consumed + n) into @p dst. */
    void fetchWords(std::uint64_t *dst, std::size_t n);
    /** Drop the mapping's fully consumed MBs from the resident set. */
    void releaseConsumed();

    std::string path_;
    TraceStreamInfo info_;
    std::uint64_t consumed = 0;

    // mmap path
    const unsigned char *base = nullptr; //!< whole-file mapping
    std::size_t mapLen = 0;
    std::size_t released = 0; //!< mapping bytes [0, released) dropped

    // ifstream fallback
    std::ifstream is;
    std::vector<std::uint64_t> ioBuf;
};

/** Read just the header of a streaming trace (validated). */
TraceStreamInfo traceStreamInfo(const std::string &path);

/**
 * Full-file header + body scan: header info with `writes` filled in
 * (the header does not store the write count).
 */
TraceStreamInfo traceStreamStats(const std::string &path);

/** Write @p trace (reads, no timestamps) as a streaming file. */
void writeTraceStream(const std::string &path,
                      const std::vector<PageId> &trace);

/** Materialize every page id of a streaming file (tests, small
 * conversions; defeats the point for multi-GB traces). Fills in
 * bounded chunks, so the mapping is released as the output grows. */
std::vector<PageId> readTraceStreamPages(const std::string &path);

/**
 * Replay the whole stream through one kernel of @p kind with
 * @p frames frames, batched straight off the mapping. The kernel and
 * cold tracker are sized from the header page bound — no pre-scan.
 *
 * @param kernelRng Consumed only by PolicyKind::Random.
 */
ReplayStats replayStream(TraceStream &ts, PolicyKind kind,
                         std::size_t frames, Rng kernelRng);

/** replayStream with a warmup window (see replayWindowed). */
WindowedReplay replayStreamWindowed(TraceStream &ts, PolicyKind kind,
                                    std::size_t frames,
                                    std::uint64_t warmup,
                                    Rng kernelRng);

/**
 * Single-pass Mattson stack-distance curve over a streaming trace
 * (exact LRU hit counts at every capacity). Only LRU admits the
 * sweep; other policies replay directly. Fatal on traces with 2^32 or
 * more accesses (the engine's timestamp width).
 */
StackDistanceCurve lruCurveFromStream(TraceStream &ts);

} // namespace memblade
} // namespace wsc

#endif // WSC_MEMBLADE_TRACE_STREAM_HH
