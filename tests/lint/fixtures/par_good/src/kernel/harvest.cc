// Fixture: the sanctioned harvest/apply shape — each task fills its
// own slot through a helper whose parameter inherits the slot
// parameter's safety, reads shared state only, and the serial merge
// after parallelMap writes shared members freely. One deliberate
// shared write inside the lambda carries a par-ok waiver.
// Expected: exactly one par-safety finding, waived.
#include "sim/parallel.hh"

namespace fixture
{

struct Out
{
    long young = 0;
    long walked = 0;
};

class Gatherer
{
  public:
    void run();

  private:
    void harvestChunk(Out &out, std::size_t base) const
    {
        const unsigned long word = table_.accessedWord(base);
        out.young += popcount(word);
        ++out.walked;
    }

    long totalYoung_ = 0;
    long rounds_ = 0;
    std::vector<Out> outs_;
    PageTable table_;
};

void
Gatherer::run()
{
    parallelMap(4, outs_, [&](std::size_t ci, Out &slot) {
        harvestChunk(slot, ci * 64);
        // lint:par-ok(single-slot warmup mode runs this lambda serially by the parallel.hh contract)
        rounds_ += 1;
    });
    for (const Out &o : outs_)
        totalYoung_ += o.young;
}

} // namespace fixture
