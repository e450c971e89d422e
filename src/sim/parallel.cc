#include "sim/parallel.hh"

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

namespace pagesim
{

unsigned
parseWorkersOverride(const char *text)
{
    if (text == nullptr || *text == '\0')
        return 0;
    char *end = nullptr;
    const long n = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || n <= 0 || n > 1024)
        return 0;
    return static_cast<unsigned>(n);
}

unsigned
hostWorkers()
{
    static const unsigned override =
        parseWorkersOverride(std::getenv("PAGESIM_WORKERS"));
    if (override != 0)
        return override;
    // hardware_concurrency() is a syscall on some libstdc++ targets,
    // and figure benches fan out once per figure.
    static const unsigned hw = [] {
        const unsigned n = std::thread::hardware_concurrency();
        return n == 0 ? 4u : n;
    }();
    return hw;
}

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
