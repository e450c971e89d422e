#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "sim/small_function.hh"
#include "swap/swap_device.hh"

namespace pagesim
{
namespace
{

TEST(SmallFunction, DefaultIsEmpty)
{
    SmallFunction<64> fn;
    EXPECT_FALSE(static_cast<bool>(fn));
    EXPECT_FALSE(fn.inlineStored());
}

TEST(SmallFunction, SmallCaptureStaysInline)
{
    int hits = 0;
    SmallFunction<64> fn([&hits] { ++hits; });
    EXPECT_TRUE(fn.inlineStored());
    fn();
    fn();
    EXPECT_EQ(hits, 2);
}

TEST(SmallFunction, CaptureAtTheSizeLimitStaysInline)
{
    std::array<std::uint64_t, 7> payload{};
    payload.fill(3);
    std::uint64_t sum = 0;
    // 56 bytes of payload + the reference: exactly 64 bytes.
    SmallFunction<64> fn([payload, &sum] {
        for (std::uint64_t v : payload)
            sum += v;
    });
    EXPECT_TRUE(fn.inlineStored());
    fn();
    EXPECT_EQ(sum, 21u);
}

TEST(SmallFunction, OversizedCaptureFallsBackToHeap)
{
    std::array<std::uint64_t, 16> payload{};
    payload[15] = 7;
    std::uint64_t out = 0;
    SmallFunction<64> fn([payload, &out] { out = payload[15]; });
    EXPECT_FALSE(fn.inlineStored());
    fn();
    EXPECT_EQ(out, 7u);
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
    static_assert(sizeof(SwapDevice::Callback) == 24,
                  "16 B buffer + ops pointer, no max_align_t padding");
    SwapDevice::Callback fn(done);
    EXPECT_TRUE(fn.inlineStored());
    SwapDevice::Callback moved(std::move(fn));
    EXPECT_TRUE(moved.inlineStored());
    moved();
    EXPECT_EQ(sum, 12u);
}

TEST(SmallFunction, OverAlignedCaptureFallsBackToHeap)
{
    struct alignas(16) Wide
    {
        std::uint64_t lo;
        std::uint64_t hi;
    };
    static_assert(alignof(Wide) > alignof(void *));
    std::uint64_t out = 0;
    const Wide w{1, 2};
    // Small enough for the buffer, too aligned for it.
    SmallFunction<64> fn([w, &out] { out = w.lo + w.hi; });
    EXPECT_FALSE(fn.inlineStored());
    SmallFunction<64> moved(std::move(fn));
    moved();
    EXPECT_EQ(out, 3u);
}

TEST(SmallFunction, MoveTransfersTarget)
{
    int hits = 0;
    SmallFunction<64> a([&hits] { ++hits; });
    SmallFunction<64> b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a)); // NOLINT: testing moved-from
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(hits, 1);

    SmallFunction<64> c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b)); // NOLINT: testing moved-from
    c();
    EXPECT_EQ(hits, 2);
}

TEST(SmallFunction, AcceptsMoveOnlyCaptures)
{
    // std::function rejects these; the event queue must not.
    auto owned = std::make_unique<int>(41);
    int out = 0;
    SmallFunction<64> fn(
        [p = std::move(owned), &out] { out = *p + 1; });
    EXPECT_TRUE(fn.inlineStored());
    fn();
    EXPECT_EQ(out, 42);
}

TEST(SmallFunction, NonTrivialCapturesDestroyExactlyOnce)
{
    // A shared_ptr capture is the worst case for the move machinery:
    // double-destroy or a skipped destroy shows up in use_count.
    auto tracker = std::make_shared<int>(0);
    {
        SmallFunction<64> a([tracker] { ++*tracker; });
        EXPECT_EQ(tracker.use_count(), 2);
        SmallFunction<64> b(std::move(a));
        EXPECT_EQ(tracker.use_count(), 2);
        SmallFunction<64> c;
        c = std::move(b);
        EXPECT_EQ(tracker.use_count(), 2);
        c();
    }
    EXPECT_EQ(tracker.use_count(), 1);
    EXPECT_EQ(*tracker, 1);
}

TEST(SmallFunction, HeapTargetSurvivesMoves)
{
    auto tracker = std::make_shared<int>(0);
    std::array<std::uint64_t, 32> pad{};
    {
        SmallFunction<64> a([tracker, pad] { ++*tracker; });
        EXPECT_FALSE(a.inlineStored());
        SmallFunction<64> b(std::move(a));
        b();
        SmallFunction<64> c(std::move(b));
        c();
    }
    EXPECT_EQ(tracker.use_count(), 1);
    EXPECT_EQ(*tracker, 2);
}

} // namespace
} // namespace pagesim
