// Fixture: every way a field can escape checkpoint coverage.
// Expected: two unwaived state-cov findings (a field the inline
// visitState body never mentions, and one an out-of-line body skips),
// one waived state-cov finding, and one lint-unused-waiver for the
// stale waiver on a field that is in fact serialized.
namespace fixture
{

struct StateIO
{
    void u64(unsigned long &v);
};

class SnapDrift
{
  public:
    void visitState(StateIO &io)
    {
        io.u64(covered_);
        io.u64(stale_);
    }

  private:
    unsigned long covered_ = 0;
    unsigned long added_ = 0;
    // lint:state-cov-ok(scratch cleared at epoch start and rebuilt on first access)
    unsigned long waived_ = 0;
    // lint:state-cov-ok(stale waiver: the field is serialized in visitState)
    unsigned long stale_ = 0;
};

class SnapOutOfLine
{
  public:
    void visitState(StateIO &io);

  private:
    unsigned long kept_ = 0;
    unsigned long dropped_ = 0;
};

inline void
SnapOutOfLine::visitState(StateIO &io)
{
    io.u64(kept_);
}

} // namespace fixture
