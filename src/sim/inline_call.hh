/**
 * @file
 * InlineCall: a `void()` callable held in 24 bytes — a function
 * pointer plus at most 16 B of plain captures.
 *
 * Every callback the simulator schedules is a small bundle of
 * pointers and integers: SimActor dispatch/sleep lambdas and the
 * metrics sampler tick capture `this` plus at most an epoch,
 * MemoryManager's retry timer captures `this`, the SSD model's
 * completion event `[this, slot]`, and the kernel's swap completions
 * a pointer and two 32-bit values. So one fixed budget covers them
 * all, and the requires-clause below rejects anything else at
 * compile time: no heap fallback, no destructor, no move machinery.
 * An InlineCall is trivially copyable, which is what lets the event
 * queue keep its pending set as a flat heap of 40-byte PODs and the
 * SSD model queue ~10^5 writebacks without one allocation each.
 *
 * A capture that does not fit (a third reference, a std::string, a
 * std::function) must be reshaped — typically into one pointer to a
 * struct that outlives the call.
 */

#ifndef PAGESIM_SIM_INLINE_CALL_HH
#define PAGESIM_SIM_INLINE_CALL_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace pagesim
{

/** True when @p F fits InlineCall's capture budget. */
template <typename F>
concept InlineCallable =
    std::is_invocable_v<F &> && sizeof(F) <= 16 &&
    alignof(F) <= alignof(void *) && std::is_trivially_copyable_v<F>;

/** Trivially copyable `void()` callable with 16 B of inline capture. */
class InlineCall
{
  public:
    InlineCall() = default;

    template <typename F>
        requires(!std::is_same_v<std::decay_t<F>, InlineCall> &&
                 InlineCallable<std::decay_t<F>>)
    InlineCall(F &&fn) // NOLINT: implicit like std::function
        : invoke_([](void *capture) {
              (*static_cast<std::decay_t<F> *>(capture))();
          })
    {
        ::new (capture_) std::decay_t<F>(std::forward<F>(fn));
    }

    explicit operator bool() const { return invoke_ != nullptr; }

    void operator()() { invoke_(capture_); }

  private:
    void (*invoke_)(void *capture) = nullptr;
    alignas(void *) unsigned char capture_[16] = {};
};

static_assert(sizeof(InlineCall) == 24);
static_assert(std::is_trivially_copyable_v<InlineCall>);

} // namespace pagesim

#endif // PAGESIM_SIM_INLINE_CALL_HH
