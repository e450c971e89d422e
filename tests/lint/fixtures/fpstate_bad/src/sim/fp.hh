// Fixture: floating-point members of a checkpointable class with no
// written reason. Expected: four unwaived fp-state findings (a double,
// a float, a C array of double, and a container of double) and none
// for the integer, const, pointer or callback members, nor for the
// double in a class without a visitState body.
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
        io.f64(gain_);
        io.f64(window_[0]);
        io.f64(history_[0]);
        io.u64(count_);
    }

  private:
    double rate_ = 0.5;
    float gain_ = 1.0f;
    double window_[2];
    std::array<double, 4> history_{};
    unsigned long count_ = 0;
    const double limit_ = 2.0;
    double *scale_ = nullptr;
    std::function<double()> probe_;
};

class Plain
{
  private:
    double notCheckpointed_ = 0.0;
};

} // namespace fixture
