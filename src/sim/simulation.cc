#include "sim/simulation.hh"

#include <cassert>

#include "sim/serialize.hh"

namespace pagesim
{

Simulation::Simulation(unsigned num_cpus, std::uint64_t seed)
    : cpus_(num_cpus), root_(seed), seed_(seed)
{
}

Rng
Simulation::forkRng(const std::string &component) const
{
    // FNV-1a over the component name gives a stable stream id.
    return root_.fork(fnv1a(component.data(), component.size()));
}

void
Simulation::foregroundFinished()
{
    assert(foreground_ > 0);
    --foreground_;
}

bool
Simulation::runToCompletion(std::uint64_t max_events)
{
    while (foreground_ > 0 && max_events-- > 0) {
        if (!events_.runOne())
            break;
    }
    return foreground_ == 0;
}

void
Simulation::visitState(StateIO &io)
{
    io.u32(foreground_);
    cpus_.visitState(io);
}

} // namespace pagesim
