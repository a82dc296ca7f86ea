#include "util/zero_pages.hh"

#include <new>

#if defined(__unix__) || defined(__APPLE__)
#define WSC_HAVE_MMAP 1
#include <sys/mman.h>
#endif

namespace wsc {

void *
mapZeroPages(std::size_t bytes)
{
#if WSC_HAVE_MMAP
    void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return p;
#else
    return new unsigned char[bytes](); // zeroed, and so resident
#endif
}

void
unmapZeroPages(void *p, std::size_t bytes)
{
#if WSC_HAVE_MMAP
    ::munmap(p, bytes);
#else
    (void)bytes;
    delete[] static_cast<unsigned char *>(p);
#endif
}

} // namespace wsc
