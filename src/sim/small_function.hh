/**
 * @file
 * SmallFunction: a move-only `void()` callable with inline storage.
 *
 * The event queue dispatches hundreds of millions of callbacks per
 * sweep; `std::function` heap-allocates any capture larger than its
 * ~2-pointer SBO, which puts an allocator round-trip on the hot path
 * for every capture past it. SmallFunction sizes its inline buffer
 * for the largest capture its user actually schedules and keeps a
 * heap fallback so oversized (or over-aligned) captures still work,
 * just slower.
 *
 * Audited capture sizes:
 *  - event queue, SmallFunction<64>: SimActor dispatch/sleep lambdas
 *    at 16 B, MemoryManager retry timers at 8 B, SSD completion
 *    events at 56 B (`[this, Request, started]`).
 *  - swap completions, SwapDevice::Callback = SmallFunction<16>: the
 *    kernel's demand-read, readahead and writeback captures are each
 *    at most 16 B and trivially copyable (`ioCompletion()`'s
 *    static_asserts in kernel/memory_manager.cc), so a queued SSD
 *    request owns no heap allocation — no `std::function` anywhere
 *    on the swap I/O path.
 *
 * The buffer is aligned to `alignof(void *)`, not `max_align_t`:
 * every capture above is pointers and integers, and the tighter
 * alignment keeps SmallFunction<16> at 24 B and SmallFunction<64> at
 * 72 B. A capture that needs more alignment takes the heap fallback.
 *
 * Unlike `std::function` it is move-only, so callables owning
 * move-only state (unique_ptr captures) are also accepted.
 */

#ifndef PAGESIM_SIM_SMALL_FUNCTION_HH
#define PAGESIM_SIM_SMALL_FUNCTION_HH

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace pagesim
{

/** Move-only `void()` callable with @p InlineSize bytes of inline
 *  storage and a heap fallback for larger captures. */
template <std::size_t InlineSize = 64>
class SmallFunction
{
  public:
    SmallFunction() = default;

    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<
                  std::decay_t<F>, SmallFunction>>>
    SmallFunction(F &&fn) // NOLINT: implicit like std::function
    {
        construct(std::forward<F>(fn));
    }

    SmallFunction(SmallFunction &&other) noexcept { moveFrom(other); }

    SmallFunction &
    operator=(SmallFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    SmallFunction(const SmallFunction &) = delete;
    SmallFunction &operator=(const SmallFunction &) = delete;

    ~SmallFunction() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    void
    operator()()
    {
        ops_->invoke(storage());
    }

    /** True when the target lives in the inline buffer (for tests). */
    bool
    inlineStored() const
    {
        return ops_ != nullptr && !ops_->onHeap;
    }

  private:
    struct Ops
    {
        void (*invoke)(void *target);
        /** Move-construct into @p dst from @p src, destroying src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *target) noexcept;
        bool onHeap;
        /**
         * Inline AND trivially copyable/destructible: moves are a raw
         * memcpy with no indirect call and destruction is free. This
         * is the hot case — the swap completions are bundles of
         * pointers and integers; the event queue's SSD completion
         * events hold one such SmallFunction<16> and relocate it
         * through the indirect path.
         */
        bool trivial;
    };

    static constexpr std::size_t kAlign = alignof(void *);

    template <typename F>
    static constexpr bool kFitsInline =
        sizeof(F) <= InlineSize &&
        alignof(F) <= kAlign &&
        std::is_nothrow_move_constructible_v<F>;

    template <typename F>
    void
    construct(F &&fn)
    {
        using Fn = std::decay_t<F>;
        if constexpr (kFitsInline<Fn>) {
            static constexpr Ops ops = {
                [](void *t) { (*static_cast<Fn *>(t))(); },
                [](void *dst, void *src) noexcept {
                    ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
                    static_cast<Fn *>(src)->~Fn();
                },
                [](void *t) noexcept { static_cast<Fn *>(t)->~Fn(); },
                false,
                std::is_trivially_copyable_v<Fn> &&
                    std::is_trivially_destructible_v<Fn>,
            };
            ::new (buf_) Fn(std::forward<F>(fn));
            ops_ = &ops;
        } else {
            static constexpr Ops ops = {
                [](void *t) { (**static_cast<Fn **>(t))(); },
                [](void *dst, void *src) noexcept {
                    ::new (dst) (Fn *)(*static_cast<Fn **>(src));
                },
                [](void *t) noexcept { delete *static_cast<Fn **>(t); },
                true,
                false,
            };
            ::new (buf_) (Fn *)(new Fn(std::forward<F>(fn)));
            ops_ = &ops;
        }
    }

    void *storage() { return buf_; }

    void
    reset()
    {
        if (ops_ != nullptr) {
            if (!ops_->trivial)
                ops_->destroy(storage());
            ops_ = nullptr;
        }
    }

    void
    moveFrom(SmallFunction &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_ != nullptr) {
            if (ops_->trivial)
                std::memcpy(buf_, other.buf_, InlineSize);
            else
                ops_->relocate(storage(), other.storage());
            other.ops_ = nullptr;
        }
    }

    const Ops *ops_ = nullptr;
    alignas(kAlign) unsigned char buf_[InlineSize];
};

} // namespace pagesim

#endif // PAGESIM_SIM_SMALL_FUNCTION_HH
