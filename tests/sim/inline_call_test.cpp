#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <utility>

#include "sim/inline_call.hh"
#include "swap/swap_device.hh"

namespace pagesim
{
namespace
{

// InlineCall replaced the event queue's SmallFunction; the suite keeps
// its name so the ids of the tests that still apply carry over.

TEST(SmallFunction, DefaultIsEmpty)
{
    InlineCall fn;
    EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(SmallFunction, SmallCaptureStaysInline)
{
    int hits = 0;
    InlineCall fn([&hits] { ++hits; });
    ASSERT_TRUE(static_cast<bool>(fn));
    fn();
    fn();
    EXPECT_EQ(hits, 2);
}

TEST(SmallFunction, CaptureAtTheSizeLimitStaysInline)
{
    const std::uint64_t payload = 21;
    std::uint64_t sum = 0;
    // 8 bytes of payload + the reference: exactly the 16 B budget.
    auto add = [payload, &sum] { sum += payload; };
    static_assert(sizeof(add) == 16);
    InlineCall fn(add);
    fn();
    EXPECT_EQ(sum, 21u);
}

TEST(SmallFunction, SixteenByteCaptureIsInlineAndTrivial)
{
    // The shape of the kernel's swap completions: a pointer and two
    // 32-bit values, exactly the 16 B SwapDevice::Callback holds.
    std::uint64_t sum = 0;
    std::uint64_t *target = &sum;
    const std::uint32_t pfn = 7;
    const std::uint32_t tag = 5;
    auto done = [target, pfn, tag] { *target += pfn + tag; };
    static_assert(sizeof(done) == 16);
    static_assert(std::is_trivially_copyable_v<decltype(done)>);
    static_assert(std::is_same_v<SwapDevice::Callback, InlineCall>);
    static_assert(sizeof(SwapDevice::Callback) == 24,
                  "16 B of capture + the invoke pointer");
    SwapDevice::Callback fn(done);
    SwapDevice::Callback copy = fn;
    copy();
    EXPECT_EQ(sum, 12u);
}

TEST(SmallFunction, MoveTransfersTarget)
{
    int hits = 0;
    InlineCall a([&hits] { ++hits; });
    InlineCall b(std::move(a));
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(hits, 1);

    InlineCall c;
    c = std::move(b);
    ASSERT_TRUE(static_cast<bool>(c));
    c();
    EXPECT_EQ(hits, 2);
}

} // namespace
} // namespace pagesim
