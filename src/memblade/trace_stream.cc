#include "memblade/trace_stream.hh"

#include <algorithm>
#include <cstring>

#include "memblade/page_source.hh"
#include "util/endian.hh"
#include "util/logging.hh"

#if defined(__unix__) || defined(__APPLE__)
#define WSC_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace wsc {
namespace memblade {

namespace {

constexpr char kMagic[4] = {'W', 'S', 'C', 'S'};
constexpr std::uint8_t kVersion = 1;
constexpr std::uint8_t kFlagTimestamps = 0x1;
constexpr std::size_t kHeaderSize = 32;

/** Write-flag bit of the record word; page ids use bits 0..62. */
constexpr std::uint64_t kWriteBit = std::uint64_t(1) << 63;

/** Writer flush threshold and reader batch size, in records. */
constexpr std::size_t kIoBatch = 1 << 16;

/** Granule (bytes, page-aligned) the reader releases consumed
 * mapping in. */
constexpr std::size_t kReleaseBytes = std::size_t(1) << 20;

void
encodeHeader(unsigned char *h, std::uint8_t flags, std::uint64_t count,
             std::uint64_t pageBound)
{
    std::memset(h, 0, kHeaderSize);
    std::memcpy(h, kMagic, sizeof(kMagic));
    h[4] = kVersion;
    h[5] = flags;
    std::uint64_t le = toLittle64(count);
    std::memcpy(h + 8, &le, sizeof(le));
    le = toLittle64(pageBound);
    std::memcpy(h + 16, &le, sizeof(le));
}

std::uint64_t
loadLe64(const unsigned char *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return fromLittle64(v);
}

} // namespace

// --------------------------------------------------------------------
// TraceStreamWriter
// --------------------------------------------------------------------

TraceStreamWriter::TraceStreamWriter(const std::string &path,
                                     bool withTimestamps)
    : path_(path), os(path, std::ios::binary | std::ios::trunc),
      withTimestamps_(withTimestamps)
{
    if (!os)
        fatal("cannot open '" + path + "' for writing");
    // Placeholder header; close() patches the real count and bound.
    unsigned char h[kHeaderSize];
    encodeHeader(h, withTimestamps_ ? kFlagTimestamps : 0, 0, 0);
    os.write(reinterpret_cast<const char *>(h), kHeaderSize);
    buffer.reserve(kIoBatch * (withTimestamps_ ? 2 : 1));
}

TraceStreamWriter::~TraceStreamWriter()
{
    if (!closed) {
        try {
            close();
        } catch (...) {
            // Destructor must not throw; an explicit close() reports.
        }
    }
}

void
TraceStreamWriter::append(PageId page, bool write,
                          std::uint64_t timestamp)
{
    WSC_ASSERT(page < kWriteBit,
               "streaming trace page ids must be < 2^63");
    std::uint64_t word = page | (write ? kWriteBit : 0);
    buffer.push_back(toLittle64(word));
    if (withTimestamps_)
        buffer.push_back(toLittle64(timestamp));
    ++count_;
    writes_ += write;
    pageBound_ = std::max(pageBound_, page + 1);
    if (buffer.size() >= kIoBatch * (withTimestamps_ ? 2 : 1))
        flushBuffer();
}

void
TraceStreamWriter::flushBuffer()
{
    if (buffer.empty())
        return;
    os.write(reinterpret_cast<const char *>(buffer.data()),
             std::streamsize(buffer.size() * sizeof(std::uint64_t)));
    buffer.clear();
}

void
TraceStreamWriter::close()
{
    if (closed)
        return;
    flushBuffer();
    unsigned char h[kHeaderSize];
    encodeHeader(h, withTimestamps_ ? kFlagTimestamps : 0, count_,
                 pageBound_);
    os.seekp(0);
    os.write(reinterpret_cast<const char *>(h), kHeaderSize);
    os.flush();
    if (!os.good())
        fatal("write to '" + path_ + "' failed");
    os.close();
    closed = true;
}

// --------------------------------------------------------------------
// TraceStream
// --------------------------------------------------------------------

TraceStream::TraceStream(const std::string &path, bool forceBuffered)
    : path_(path)
{
    // Learn the real file size first: every header field is checked
    // against it before any record-sized allocation or read happens.
    std::uint64_t fileSize = 0;

#if WSC_HAVE_MMAP
    if (!forceBuffered) {
        int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0)
            fatal("cannot open '" + path + "'");
        struct stat st;
        if (::fstat(fd, &st) != 0) {
            ::close(fd);
            fatal("cannot stat '" + path + "'");
        }
        fileSize = std::uint64_t(st.st_size);
        if (fileSize >= kHeaderSize) {
            void *m = ::mmap(nullptr, std::size_t(fileSize), PROT_READ,
                             MAP_PRIVATE, fd, 0);
            if (m != MAP_FAILED) {
                base = static_cast<const unsigned char *>(m);
                mapLen = std::size_t(fileSize);
#if defined(MADV_SEQUENTIAL)
                ::madvise(m, mapLen, MADV_SEQUENTIAL);
#endif
            }
        }
        ::close(fd);
    }
#else
    (void)forceBuffered;
#endif

    unsigned char h[kHeaderSize];
    if (base) {
        std::memcpy(h, base, kHeaderSize);
    } else {
        is.open(path, std::ios::binary);
        if (!is)
            fatal("cannot open '" + path + "'");
        is.seekg(0, std::ios::end);
        fileSize = std::uint64_t(is.tellg());
        is.seekg(0);
        if (fileSize < kHeaderSize)
            fatal("'" + path + "': truncated streaming trace header");
        is.read(reinterpret_cast<char *>(h), kHeaderSize);
        if (!is.good())
            fatal("'" + path + "': truncated streaming trace header");
    }
    if (fileSize < kHeaderSize)
        fatal("'" + path + "': truncated streaming trace header");

    if (std::memcmp(h, kMagic, sizeof(kMagic)) != 0)
        fatal("'" + path + "': not a wsc streaming trace (bad magic)");
    if (h[4] != kVersion)
        fatal("'" + path + "': unsupported streaming trace version " +
              std::to_string(unsigned(h[4])) + " (expected " +
              std::to_string(unsigned(kVersion)) + ")");
    if (h[5] & ~kFlagTimestamps)
        fatal("'" + path + "': unknown streaming trace flags");
    info_.hasTimestamps = (h[5] & kFlagTimestamps) != 0;
    info_.count = loadLe64(h + 8);
    info_.pageBound = loadLe64(h + 16);

    // The count is untrusted until proven consistent with the file
    // size; an oversized value must fatal(), never drive allocation.
    std::uint64_t body = fileSize - kHeaderSize;
    std::uint64_t recStride = stride();
    if (info_.count > body / recStride)
        fatal("'" + path + "': streaming trace count " +
              std::to_string(info_.count) +
              " exceeds the file's record capacity (" +
              std::to_string(body / recStride) + ")");
    if (info_.count * recStride != body)
        fatal("'" + path + "': streaming trace body is " +
              std::to_string(body) + " bytes; header count " +
              std::to_string(info_.count) + " needs " +
              std::to_string(info_.count * recStride));

    if (!base)
        ioBuf.resize(kIoBatch * (info_.hasTimestamps ? 2 : 1));
}

TraceStream::~TraceStream()
{
#if WSC_HAVE_MMAP
    if (base)
        ::munmap(const_cast<unsigned char *>(base), mapLen);
#endif
}

void
TraceStream::rewind()
{
    consumed = 0;
    released = 0;
    if (!base) {
        is.clear();
        is.seekg(std::streamoff(kHeaderSize));
    }
}

void
TraceStream::releaseConsumed()
{
#if WSC_HAVE_MMAP && defined(MADV_DONTNEED)
    // A read-only private file mapping re-faults dropped pages from
    // the file, so a later rewind reads the same bytes.
    std::size_t done = kHeaderSize + std::size_t(consumed) * stride();
    std::size_t upTo = done / kReleaseBytes * kReleaseBytes;
    if (upTo > released) {
        ::madvise(const_cast<unsigned char *>(base) + released,
                  upTo - released, MADV_DONTNEED);
        released = upTo;
    }
#endif
}

const unsigned char *
TraceStream::records(std::uint64_t first, std::size_t &n)
{
    if (base)
        return base + kHeaderSize + first * stride();
    n = std::min(n, ioBuf.size() / (stride() / 8));
    std::size_t bytes = n * stride();
    is.read(reinterpret_cast<char *>(ioBuf.data()),
            std::streamsize(bytes));
    if (std::size_t(is.gcount()) != bytes)
        fatal("'" + path_ + "': short read in streaming trace body");
    return reinterpret_cast<const unsigned char *>(ioBuf.data());
}

template <typename Out, typename Decode>
std::size_t
TraceStream::fill(Out *out, std::size_t maxN, Decode decode)
{
    auto n = std::size_t(
        std::min<std::uint64_t>(maxN, info_.count - consumed));
    std::size_t st = stride();
    std::uint64_t batchMax = 0;
    for (std::size_t done = 0; done < n;) {
        std::size_t chunk = n - done;
        const unsigned char *src = records(consumed + done, chunk);
        for (std::size_t i = 0; i < chunk; ++i)
            batchMax =
                std::max(batchMax, decode(src + i * st, out[done + i]));
        done += chunk;
    }
    if (n > 0 && batchMax >= info_.pageBound)
        fatal("'" + path_ + "': record page id " +
              std::to_string(batchMax) +
              " breaks the header page bound " +
              std::to_string(info_.pageBound));
    consumed += n;
    if (base)
        releaseConsumed();
    return n;
}

std::size_t
TraceStream::fillPages(PageId *out, std::size_t maxN)
{
    return fill(out, maxN, [](const unsigned char *src, PageId &page) {
        page = loadLe64(src) & ~kWriteBit;
        return page;
    });
}

std::size_t
TraceStream::fillRecords(TraceRecord *out, std::size_t maxN)
{
    bool stamped = info_.hasTimestamps;
    return fill(out, maxN,
                [stamped](const unsigned char *src, TraceRecord &r) {
                    std::uint64_t word = loadLe64(src);
                    r.page = word & ~kWriteBit;
                    r.write = (word & kWriteBit) != 0;
                    r.timestamp = stamped ? loadLe64(src + 8) : 0;
                    return r.page;
                });
}

// --------------------------------------------------------------------
// Convenience entry points
// --------------------------------------------------------------------

TraceStreamInfo
traceStreamInfo(const std::string &path)
{
    TraceStream ts(path);
    return ts.info();
}

TraceStreamInfo
traceStreamStats(const std::string &path)
{
    TraceStream ts(path);
    TraceStreamInfo info = ts.info();
    std::vector<TraceRecord> buf(4096);
    for (;;) {
        std::size_t n = ts.fillRecords(buf.data(), buf.size());
        if (n == 0)
            break;
        for (std::size_t i = 0; i < n; ++i)
            info.writes += buf[i].write;
    }
    return info;
}

void
writeTraceStream(const std::string &path,
                 const std::vector<PageId> &trace)
{
    PageSource src(trace.data(), trace.size(), 0);
    writeTraceStream(path, src);
}

void
writeTraceStream(const std::string &path, PageSource &src)
{
    TraceStreamWriter w(path);
    for (auto b = src.next(); !b.empty(); b = src.next())
        for (PageId p : b)
            w.append(p);
    w.close();
}

std::vector<PageId>
readTraceStreamPages(const std::string &path)
{
    TraceStream ts(path);
    // The constructor proved count * stride bytes really exist, so
    // this allocation is bounded by the actual file size.
    std::vector<PageId> out(std::size_t(ts.count()));
    std::size_t done = 0;
    while (done < out.size())
        done += ts.fillPages(out.data() + done,
                             std::min(kIoBatch, out.size() - done));
    return out;
}

} // namespace memblade
} // namespace wsc
