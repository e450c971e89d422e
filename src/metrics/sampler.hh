/**
 * @file
 * PeriodicSampler: timeseries capture of policy/kernel internals.
 *
 * Components register named probes (cheap functions returning a
 * double); the sampler schedules itself on the event queue every
 * @c every ns and evaluates all probes into one row of a column-major
 * SampleSeries.
 *
 * Determinism: sampling is a raw event, not an actor — it charges no
 * CPU, draws no randomness, and only reads state. The extra events
 * shift the insertion sequence numbers of later schedules but never
 * the relative order of existing ones, so the dispatch order of the
 * simulated workload is unchanged and results are byte-identical with
 * the sampler on or off (tests enforce this).
 *
 * The sampler is a daemon: Simulation::runToCompletion stops on
 * foreground-actor count, not queue emptiness, so a self-rescheduling
 * sampler is safe there. For plain EventQueue::run() loops, pass a
 * keep-going predicate or rely on the maxSamples cap.
 */

#ifndef PAGESIM_METRICS_SAMPLER_HH
#define PAGESIM_METRICS_SAMPLER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace pagesim
{

/** Column-major timeseries: columns[i][row] is probe i at at[row]. */
struct SampleSeries
{
    std::vector<std::string> names;
    std::vector<SimTime> at;
    std::vector<std::vector<double>> columns;

    std::size_t rows() const { return at.size(); }
    bool empty() const { return at.empty(); }
};

/** Event-queue-driven probe evaluator. */
class PeriodicSampler
{
  public:
    using Probe = std::function<double()>;
    using KeepGoing = std::function<bool()>;

    /** Register a probe; must happen before start(). */
    void probe(std::string name, Probe fn);

    /**
     * Prefix prepended to every probe name registered after this call
     * (pass "" to clear). Lets per-memcg probe families register
     * through the same registerProbes() hook without name collisions:
     * the collector scopes each lruvec's probes as "memcg.<name>.*".
     */
    void setPrefix(std::string prefix) { prefix_ = std::move(prefix); }

    /**
     * Begin sampling: one sample immediately at the current time, then
     * every @p every ns until @p max_samples rows were captured or
     * @p keep_going (if set) returns false.
     */
    void start(EventQueue &queue, SimDuration every,
               std::size_t max_samples = 1u << 14,
               KeepGoing keep_going = {});

    /** Stop rescheduling (already-queued tick still fires, no-ops). */
    void stop() { running_ = false; }

    /** Take one sample row now (also usable without start()). */
    void sampleOnce(SimTime now);

    const SampleSeries &series() const { return series_; }

  private:
    /**
     * Rows reserved eagerly at start(). Deliberately modest: a short
     * trial's whole series fits without reallocating, while a
     * column-per-probe reservation sized to maxSamples_ would mmap
     * megabytes per trial — a fixed cost that dominates metrics
     * overhead on short benchmark trials. Longer series grow
     * geometrically (doubles memcpy cheaply).
     */
    static constexpr std::size_t kReserveRows = 1u << 10;

    void tick();

    std::vector<Probe> probes_;
    std::string prefix_;
    SampleSeries series_;
    EventQueue *queue_ = nullptr;
    SimDuration every_ = 0;
    std::size_t maxSamples_ = 0;
    KeepGoing keepGoing_;
    bool running_ = false;
};

} // namespace pagesim

#endif // PAGESIM_METRICS_SAMPLER_HH
