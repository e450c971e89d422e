// Fixture: every floating-point member of a checkpointable class
// carries a written reason. Expected: two fp-state findings, both
// waived with their reasons, and no unused waiver.
namespace fixture
{

struct StateIO
{
    void u64(unsigned long &v);
    void f64(double &v);
};

class Controller
{
  public:
    void
    visitState(StateIO &io)
    {
        io.f64(rate_);
        io.f64(mean_);
        io.u64(count_);
    }

  private:
    // lint:fp-state-ok(feeds a decision: truncated into a window size)
    double rate_ = 0.5;
    // lint:fp-state-ok(feeds no decision: only a reported mean)
    double mean_ = 0.0;
    unsigned long count_ = 0;
};

} // namespace fixture
