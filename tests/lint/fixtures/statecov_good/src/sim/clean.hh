// Fixture: a checkpointable class where every field is accounted
// for — serialized directly, serialized through a same-class helper,
// exempt wiring (pointer / const / callback / mutable members), or
// waived with a written reason. Expected: exactly one state-cov
// finding, waived.
namespace fixture
{

struct StateIO
{
    void u64(unsigned long &v);
};

struct Config;

class SnapClean
{
  public:
    void
    visitState(StateIO &io)
    {
        io.u64(epoch_);
        visitHot(io);
    }

  private:
    void visitHot(StateIO &io) { io.u64(hot_); }

    unsigned long epoch_ = 0;
    unsigned long hot_ = 0;
    Config *config_ = nullptr;
    const int id_ = 7;
    std::function<void()> onEpoch_;
    mutable unsigned long lookups_ = 0;
    // lint:state-cov-ok(derived cache: recomputed lazily from epoch_ on first lookup)
    unsigned long cache_ = 0;
};

} // namespace fixture
