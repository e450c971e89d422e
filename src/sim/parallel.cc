#include "sim/parallel.hh"

#include <atomic>
#include <thread>
#include <vector>

namespace pagesim
{

void
detail::runPool(unsigned workers, std::size_t n,
                const std::function<void(std::size_t)> &task)
{
    if (workers > n)
        workers = static_cast<unsigned>(n);

    std::atomic<std::size_t> next{0};
    auto drain = [&next, n, &task] {
        while (true) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            task(i);
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w)
        pool.emplace_back(drain);
    drain();
    for (std::thread &t : pool)
        t.join();
}

} // namespace pagesim
