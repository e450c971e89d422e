/**
 * @file
 * Host-side worker pool for deterministic fan-out.
 *
 * parallelMap() fills a fixed array of slots across host threads with
 * an atomic claim counter. Each task is handed its own slot and writes
 * nothing else (tools/lint's par-safety rule checks that the task
 * writes only its parameters and locals); the caller then merges the
 * slots serially in index order. Which worker filled which slot, and
 * in what wall-clock order, is therefore unobservable. It is a
 * HOST-speed facility only: simulated state never changes inside a
 * task.
 *
 * PAGESIM_WORKERS pins the worker count for every pool user (the sweep
 * runner, sharded audits) — needed in CI and in the worker-count
 * invariance tests.
 */

#ifndef PAGESIM_SIM_PARALLEL_HH
#define PAGESIM_SIM_PARALLEL_HH

#include <cstddef>
#include <functional>
#include <span>

namespace pagesim
{

/**
 * Parse a PAGESIM_WORKERS-style override string. @return the worker
 * count, or 0 when @p text is null, empty, non-numeric, non-positive,
 * or absurd (> 1024) — 0 meaning "no override".
 */
unsigned parseWorkersOverride(const char *text);

/** Cached PAGESIM_WORKERS env override; 0 = unset/invalid. */
unsigned workerOverride();

/**
 * Default pool width for trial fan-out: workerOverride() when set,
 * else the host's hardware concurrency (4 when unknown), resolved once
 * per process.
 */
unsigned hostWorkers();

namespace detail
{
/** Run @p task(0..n-1), each once, on up to @p workers threads. */
void runPool(unsigned workers, std::size_t n,
             const std::function<void(std::size_t)> &task);
} // namespace detail

/**
 * Invoke @p fn(i, slots[i]) for every slot, each exactly once, across
 * at most @p workers host threads (the calling thread included).
 * @p slots is any contiguous range (a vector, or a span over a prefix
 * of reused scratch). workers <= 1 or fewer than two slots degenerates
 * to an inline ascending loop — no threads, no type erasure. Slot
 * completion order is nondeterministic otherwise; callers own merge
 * ordering.
 */
template <typename Slots, typename Fn>
void
parallelMap(unsigned workers, Slots &&slots, const Fn &fn)
{
    const std::span span{slots};
    if (workers <= 1 || span.size() <= 1) {
        for (std::size_t i = 0; i < span.size(); ++i)
            fn(i, span[i]);
        return;
    }
    detail::runPool(workers, span.size(),
                    [&](std::size_t i) { fn(i, span[i]); });
}

} // namespace pagesim

#endif // PAGESIM_SIM_PARALLEL_HH
