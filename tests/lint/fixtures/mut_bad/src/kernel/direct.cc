// Fixture: every Pte-level spelling of a tracked mutation, next to
// the PageTable spellings that must NOT flag. Expected: exactly five
// mut-pte findings (setFlag, clearFlag, mapFrame/1, unmapToSwap/2,
// testAndClearAccessed/0); the table calls and the untracked Dirty
// write stay clean. Plus exactly three mut-pageinfo findings (the
// prev/next/listId assignments in relink); the reads, comparisons,
// and untracked-field writes stay clean. Plus exactly two mut-memcg
// findings (the charge-field assignments in recharge); the comparison,
// read, and accessor calls stay clean.
#include "mem/page_table.hh"

namespace fixture
{

void
touch(Pte &pte, PageTable &table, Vpn vpn, Pfn pfn, SwapSlot slot)
{
    pte.setFlag(Pte::Accessed);
    pte.clearFlag(Pte::Present);
    pte.mapFrame(pfn);
    pte.unmapToSwap(slot, 0);
    pte.testAndClearAccessed();

    table.mapFrame(vpn, pfn);
    table.testAndClearAccessed(vpn);
    table.unmapToSwap(vpn, slot, 0);
    pte.setFlag(Pte::Dirty);
}

void
relink(PageInfoRef pi, FrameList &list, Pfn pfn)
{
    pi.prev = pfn;          // flagged: link field write
    pi->next = kInvalidPfn; // flagged: arrow spelling too
    pi.listId = 3;          // flagged: membership field write

    list.pushBack(pfn);     // the sanctioned spelling
    const Pfn p = pi.prev;  // read: clean
    if (pi.next == pfn)     // comparison: clean
        pi.gen = 0;         // untracked field: clean
    (void)p;
}

void
recharge(PageInfoRef pi, AddressSpace &space)
{
    pi.memcg = 0;            // flagged: charge field write
    pi->memcg = kNoMemcg;    // flagged: arrow spelling too

    space.setMemcg(1);       // different mutator name: clean
    const MemcgId g = pi.memcg; // read: clean
    if (pi.memcg == kNoMemcg)   // comparison: clean
        (void)space.memcg();    // accessor call: clean
    (void)g;
}

} // namespace fixture
