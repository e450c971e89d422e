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
workerOverride()
{
    static const unsigned cached =
        parseWorkersOverride(std::getenv("PAGESIM_WORKERS"));
    return cached;
}

unsigned
hostWorkers()
{
    if (const unsigned n = workerOverride())
        return n;
    // hardware_concurrency() is a syscall on some libstdc++ targets,
    // and figure benches fan out once per figure.
    static const unsigned hw = [] {
        const unsigned n = std::thread::hardware_concurrency();
        return n == 0 ? 4u : n;
    }();
    return hw;
}

void
parallelFor(unsigned workers, std::size_t nchunks,
            const std::function<void(std::size_t)> &fn)
{
    if (workers <= 1 || nchunks <= 1) {
        for (std::size_t i = 0; i < nchunks; ++i)
            fn(i);
        return;
    }
    if (workers > nchunks)
        workers = static_cast<unsigned>(nchunks);

    std::atomic<std::size_t> next{0};
    auto drain = [&next, nchunks, &fn] {
        while (true) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= nchunks)
                return;
            fn(i);
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
