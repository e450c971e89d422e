// Fixture: every unsafe write shape inside a parallelMap lambda.
// Expected: six unwaived par-safety findings — a write to another
// task's slot through a subscript of the captured slot array, a
// compound write to a captured member, a prefix increment of a
// captured member, a mutating container call on a captured vector, a
// tracked PageTable mutator (PageTable arity, so mut-pte stays silent
// — the race is the point here, not the spelling), and a write to a
// member inside a same-file helper reached from the lambda. The
// local counter, the lambda's own slot parameter, and the serial
// merge after the parallelMap must NOT be flagged.
#include "sim/parallel.hh"

namespace fixture
{

struct Slot
{
    long count = 0;
};

class Racer
{
  public:
    void run();

  private:
    void bump(long n)
    {
        hits_ += n;
    }

    long total_ = 0;
    long misses_ = 0;
    long hits_ = 0;
    long merged_ = 0;
    std::vector<long> shared_;
    std::vector<Slot> out_;
    PageTable table_;
};

void
Racer::run()
{
    parallelMap(8, out_, [&](std::size_t ci, Slot &slot) {
        long local = 0;
        ++local;
        slot.count += 1;
        out_[ci].count += 1;
        total_ += 1;
        ++misses_;
        shared_.push_back(3);
        table_.testAndClearAccessed(ci);
        bump(local);
    });
    for (const Slot &s : out_)
        merged_ += s.count;
}

} // namespace fixture
