/**
 * @file
 * PageMappedAllocator: large arrays mapped straight from the OS.
 *
 * The simulator's largest allocations live once per rig or per
 * checkpoint: a frame table's records (24.6 MB at Big1M) and a
 * checkpoint image's bytes. Through malloc, freeing a block that size
 * raises glibc's dynamic mmap threshold to it, and later images of a
 * smaller size then stay resident in heap arenas after they are freed.
 * Mapped here, a large array is unmapped on free (its pages go back to
 * the OS at once) and glibc's threshold never moves.
 *
 * Blocks under 2 MiB come from operator new, so small tables (unit
 * tests, Default-scale trials) keep reusing heap memory.
 *
 * With @p Recycle, for arrays that are written whole as soon as they
 * are built (frame tables), each thread keeps the last mapping it
 * freed until its next allocation, which takes it if the mapped length
 * matches (and unmaps it if not), as the heap would: a worker's next
 * rig reuses the table its last rig touched instead of faulting a
 * fresh one in. Such a mapping is also
 * aligned to 2 MiB and advised MADV_HUGEPAGE, so where transparent
 * huge pages are enabled its first touch faults 2 MiB at a time: a
 * Big1M frame table takes about a dozen faults instead of ~6,000, each
 * several microseconds on a virtualized host. (Elsewhere the hint is
 * ignored.) Checkpoint images are neither: one freed by a cache would
 * stay resident in the slot, and huge pages would round up the part of
 * its reserved bound a capture touches.
 *
 * construct() without arguments default-initializes: a vector of bytes
 * grows without zeroing, so a writer that reserves a bound and fills
 * part of it (Sink::grow) never touches the rest. Types with default
 * member initializers still get them.
 */

#ifndef PAGESIM_SIM_PAGE_ALLOC_HH
#define PAGESIM_SIM_PAGE_ALLOC_HH

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace pagesim
{

/** Byte size from which PageMappedAllocator maps (the huge-page size). */
constexpr std::size_t kMappedBlockBytes = std::size_t{2} << 20;

namespace detail
{

/** The mapping a thread freed last, kept for its next allocation. */
struct RecycledMapping
{
    void *base = nullptr;
    std::size_t len = 0;

    RecycledMapping() = default;
    RecycledMapping(const RecycledMapping &) = delete;
    RecycledMapping &operator=(const RecycledMapping &) = delete;

    ~RecycledMapping()
    {
        if (base != nullptr)
            ::munmap(base, len);
    }

    static RecycledMapping &
    local()
    {
        thread_local RecycledMapping slot;
        return slot;
    }
};

} // namespace detail

template <typename T, bool Recycle = false>
struct PageMappedAllocator
{
    using value_type = T;

    template <typename U>
    struct rebind
    {
        using other = PageMappedAllocator<U, Recycle>;
    };

    PageMappedAllocator() = default;

    template <typename U>
    PageMappedAllocator(const PageMappedAllocator<U, Recycle> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        const std::size_t bytes = n * sizeof(T);
        if (bytes < kMappedBlockBytes)
            return static_cast<T *>(::operator new(bytes));
        const std::size_t len = mappedLength(bytes);
        // Map one huge page extra, then trim both ends to alignment.
        void *raw = ::mmap(nullptr, len + kMappedBlockBytes,
                           PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (raw == MAP_FAILED)
            throw std::bad_alloc();
        auto *base = static_cast<char *>(raw);
        const std::size_t head =
            (kMappedBlockBytes -
             reinterpret_cast<std::uintptr_t>(base) % kMappedBlockBytes) %
            kMappedBlockBytes;
        if (head != 0)
            ::munmap(base, head);
        ::munmap(base + head + len, kMappedBlockBytes - head);
        // Huge pages only where the array fills them: a partly used
        // last one would add up to 2 MiB of resident padding.
        if constexpr (Recycle)
            ::madvise(base + head, bytes / kMappedBlockBytes * kMappedBlockBytes,
                      MADV_HUGEPAGE);
        return reinterpret_cast<T *>(base + head);
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        const std::size_t bytes = n * sizeof(T);
        if (bytes < kMappedBlockBytes)
            return ::operator delete(p);
        ::munmap(p, mappedLength(bytes));
    }

    template <typename U>
    void
    construct(U *p) noexcept(std::is_nothrow_default_constructible_v<U>)
    {
        ::new (static_cast<void *>(p)) U;
    }

    template <typename U, typename... Args>
    void
    construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }

    template <typename U>
    bool
    operator==(const PageMappedAllocator<U, Recycle> &) const noexcept
    {
        return true;
    }

  private:
    static std::size_t
    mappedLength(std::size_t bytes)
    {
        return (bytes + kMappedBlockBytes - 1) / kMappedBlockBytes *
               kMappedBlockBytes;
    }
};

/**
 * Hand the whole pages inside [@p begin, @p end) back to the OS, for a
 * span a writer used as scratch and gave up (its bytes read as zero if
 * touched again). Partial pages at either end are kept.
 */
inline void
releasePages(void *begin, void *end)
{
    constexpr std::uintptr_t kPage = 4096;
    const auto b = (reinterpret_cast<std::uintptr_t>(begin) + kPage - 1) &
                   ~(kPage - 1);
    const auto e = reinterpret_cast<std::uintptr_t>(end) & ~(kPage - 1);
    if (e > b)
        ::madvise(reinterpret_cast<void *>(b), e - b, MADV_DONTNEED);
}

} // namespace pagesim

#endif // PAGESIM_SIM_PAGE_ALLOC_HH
