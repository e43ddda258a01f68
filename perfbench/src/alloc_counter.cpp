/**
 * @file
 * Counting replacements of the global allocation functions, so the
 * benchmark can watch the library's heap from outside: the number of
 * allocations (core.heap_allocs_per_frame) and the high-water mark of
 * live heap bytes (peak_heap_mb). Every form of operator new funnels
 * into allocate()/allocateAligned(), every delete into release().
 */

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "harness.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_bytes{0};

void *
counted(void *p)
{
    if (p == nullptr)
        throw std::bad_alloc();
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    const auto size = static_cast<std::int64_t>(malloc_usable_size(p));
    const std::int64_t live =
        g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
    std::int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
    while (live > peak && !g_peak_bytes.compare_exchange_weak(
                              peak, live, std::memory_order_relaxed)) {
    }
    return p;
}

void
release(void *p) noexcept
{
    if (p == nullptr)
        return;
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
    std::free(p);
}

void *
allocate(std::size_t size)
{
    return counted(std::malloc(size == 0 ? 1 : size));
}

void *
allocateAligned(std::size_t size, std::align_val_t align)
{
    const auto alignment = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded =
        (size + alignment - 1) / alignment * alignment;
    return counted(
        std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded));
}

}  // namespace

namespace perfbench {

std::uint64_t
heapAllocations()
{
    return g_allocations.load(std::memory_order_relaxed);
}

void
resetHeapPeak()
{
    g_peak_bytes.store(g_live_bytes.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
}

double
heapPeakMb()
{
    return static_cast<double>(g_peak_bytes.load(std::memory_order_relaxed)) /
           (1024.0 * 1024.0);
}

}  // namespace perfbench

void *operator new(std::size_t size) { return allocate(size); }
void *operator new[](std::size_t size) { return allocate(size); }

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return allocate(size);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return allocate(size);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return allocateAligned(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return allocateAligned(size, align);
}

void operator delete(void *p) noexcept { release(p); }
void operator delete[](void *p) noexcept { release(p); }
void operator delete(void *p, std::size_t) noexcept { release(p); }
void operator delete[](void *p, std::size_t) noexcept { release(p); }
void operator delete(void *p, std::align_val_t) noexcept { release(p); }
void operator delete[](void *p, std::align_val_t) noexcept { release(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}
