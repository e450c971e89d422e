/**
 * @file
 * Differential test for MG-LRU's aging walk. The word-at-a-time
 * harvest must find exactly the young PTEs a per-slot test-and-clear
 * finds (tests/policy/scan_reference.hh), in the same order and with
 * the same PTE/bitmap end state.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "policy/mglru/mglru_policy.hh"
#include "policy_test_util.hh"
#include "scan_reference.hh"
#include "sim/rng.hh"

namespace pagesim
{
namespace
{

TEST(ScanDifferential, WordPathMatchesPerSlotOracle)
{
    // One Scan-All pass over a machine with young, cold, swapped and
    // never-resident PTEs, some carrying accessed bits while not
    // present. A copy of the page table is scanned slot by slot; the
    // policy's walk must find the same young VPNs in the same order
    // and leave the same PTE flags and bitmap words behind.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        constexpr std::uint64_t kPages = 4096;
        PolicyHarness h(1024, kPages);
        MgLruConfig cfg;
        cfg.scanMode = ScanMode::All;
        cfg.agingLowPages = 0;
        cfg.agingEvictGate = 0;
        MgLruPolicy policy(h.frames, {&h.space}, h.costs, Rng(seed),
                           cfg);
        PageTable &table = h.space.table();

        Rng rng(seed * 31 + 5);
        std::vector<Pfn> resident;
        for (int i = 0; i < 900; ++i) {
            const Vpn vpn = h.base() + rng.uniformInt(0, kPages - 1);
            if (!table.at(vpn).present() && !table.at(vpn).swapped())
                resident.push_back(h.makeResident(policy, vpn));
        }
        // Swap some out: their PTEs stay mapped but not present.
        for (std::size_t i = 0; i < resident.size(); i += 7)
            h.completeEviction(policy, resident[i]);
        // Re-arm accessed bits: ~40% of present PTEs, ~20% of the
        // rest, including swapped and never-resident slots.
        std::uint64_t stale = 0;
        for (Vpn v = h.base(); v < h.base() + kPages; ++v) {
            table.clearAccessed(v);
            const bool present = table.at(v).present();
            if (rng.nextDouble() < (present ? 0.4 : 0.2)) {
                table.setAccessed(v);
                stale += present ? 0 : 1;
            }
        }
        ASSERT_GT(stale, 0u);

        PageTable oracle = table;
        std::vector<Vpn> want;
        for (std::uint64_t r = 0; r < oracle.numRegions(); ++r) {
            const std::vector<Vpn> young = referenceYoungScan(oracle, r);
            want.insert(want.end(), young.begin(), young.end());
        }
        ASSERT_FALSE(want.empty());

        CostSink sink;
        const std::uint64_t before = policy.maxSeq();
        policy.age(sink);
        ASSERT_EQ(policy.maxSeq(), before + 1);
        // Every young page moved to the new youngest generation with
        // pushFront, so that list holds them in reverse visit order.
        std::vector<Vpn> got;
        for (Pfn pfn = policy.genListAt(policy.maxSeq()).head();
             pfn != kInvalidPfn; pfn = h.frames.info(pfn).next)
            got.push_back(h.frames.info(pfn).vpn);
        std::reverse(got.begin(), got.end());
        EXPECT_EQ(got, want);

        std::uint64_t survived = 0;
        for (Vpn v = 0; v < table.span(); ++v) {
            ASSERT_EQ(table.at(v).accessed(), oracle.at(v).accessed())
                << "vpn " << v;
            ASSERT_EQ(table.at(v).present(), oracle.at(v).present())
                << "vpn " << v;
            survived += table.at(v).accessed() ? 1 : 0;
        }
        EXPECT_EQ(survived, stale);
        for (std::uint64_t r = 0; r < table.numRegions(); ++r) {
            for (std::uint64_t w = 0; w < PageTable::kWordsPerRegion;
                 ++w) {
                ASSERT_EQ(table.accessedWord(r, w),
                          oracle.accessedWord(r, w));
                ASSERT_EQ(table.presentWord(r, w),
                          oracle.presentWord(r, w));
            }
        }
    }
}

} // namespace
} // namespace pagesim
