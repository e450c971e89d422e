/**
 * @file
 * Per-slot reference for MG-LRU's aging harvest, kept in tests/ as
 * the oracle the word-at-a-time walk is checked against.
 */

#ifndef PAGESIM_TESTS_POLICY_SCAN_REFERENCE_HH
#define PAGESIM_TESTS_POLICY_SCAN_REFERENCE_HH

#include <vector>

#include "mem/page_table.hh"

namespace pagesim
{

/**
 * Visit every slot of region @p region in order and test-and-clear
 * the accessed bit of each present PTE, one PTE at a time. Non-present
 * PTEs are skipped, so their accessed bits survive.
 *
 * @return the young VPNs, ascending.
 */
inline std::vector<Vpn>
referenceYoungScan(PageTable &table, std::uint64_t region)
{
    std::vector<Vpn> young;
    const Vpn base = regionBase(region);
    for (Vpn v = base; v < base + kPtesPerRegion; ++v) {
        if (table.at(v).present() && table.testAndClearAccessed(v))
            young.push_back(v);
    }
    return young;
}

} // namespace pagesim

#endif // PAGESIM_TESTS_POLICY_SCAN_REFERENCE_HH
