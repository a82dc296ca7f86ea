/**
 * @file
 * Zero-filled arrays that cost memory only where they are written.
 *
 * Anonymous private pages read as zero and are backed by the kernel's
 * shared zero page until first written, so a large table that is
 * touched sparsely (a lazily filled Zipf CDF, a per-page timestamp
 * array of which a short trace sets a few entries) makes only the
 * pages it writes resident, and unmapping returns them at once. A
 * heap chunk instead can be recycled memory that calloc zeroes, and
 * so faults, up front; and a block released into the heap can stay
 * resident after it dies.
 */

#ifndef WSC_UTIL_ZERO_PAGES_HH
#define WSC_UTIL_ZERO_PAGES_HH

#include <cstddef>
#include <type_traits>

namespace wsc {

/** Map @p bytes (> 0) of zero-filled anonymous pages; throws
 * std::bad_alloc on failure. */
void *mapZeroPages(std::size_t bytes);

/** Release a mapping from mapZeroPages (same @p bytes). */
void unmapZeroPages(void *p, std::size_t bytes);

/**
 * An owned array of @p n zero-valued T on zero pages. Like a
 * unique_ptr<T[]>, constness does not reach the elements: a const
 * owner can still write them (the lazily filled tables rely on it).
 */
template <typename T>
class ZeroPageArray
{
    static_assert(std::is_trivially_default_constructible_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "zero pages hold only trivial types");

  public:
    explicit ZeroPageArray(std::size_t n)
        : p(n ? static_cast<T *>(mapZeroPages(n * sizeof(T))) : nullptr),
          n(n)
    {
    }

    ~ZeroPageArray()
    {
        if (p)
            unmapZeroPages(p, n * sizeof(T));
    }

    ZeroPageArray(const ZeroPageArray &) = delete;
    ZeroPageArray &operator=(const ZeroPageArray &) = delete;

    T *data() const { return p; }
    std::size_t size() const { return n; }
    T &operator[](std::size_t i) const { return p[i]; }

  private:
    T *p = nullptr;
    std::size_t n = 0;
};

} // namespace wsc

#endif // WSC_UTIL_ZERO_PAGES_HH
