/**
 * @file
 * Log-bucketed latency histogram with percentile queries.
 *
 * YCSB experiments record millions of per-request latencies; storing
 * them all would be wasteful. LatencyHistogram keeps HdrHistogram-style
 * log-linear buckets: values are grouped by power-of-two magnitude, with
 * a fixed number of linear sub-buckets per magnitude, giving a bounded
 * relative error (~1/subBuckets) at O(1) memory.
 */

#ifndef PAGESIM_STATS_HISTOGRAM_HH
#define PAGESIM_STATS_HISTOGRAM_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/serialize.hh"

namespace pagesim
{

/** Fixed-precision histogram over non-negative 64-bit values. */
class LatencyHistogram
{
  public:
    /**
     * @param sub_bucket_bits log2 of linear sub-buckets per octave;
     *        6 (the default) bounds relative error at ~1.6%.
     */
    explicit LatencyHistogram(unsigned sub_bucket_bits = 6);

    /**
     * Record one value. Inline (as is record(value, n) and
     * bucketIndex): the metrics fault path records ~10 histogram
     * values per major fault, and three out-of-line call hops per
     * record are measurable against the perf_core overhead budget.
     */
    void record(std::uint64_t value) { record(value, 1); }

    /** Record @p n occurrences of @p value. */
    void
    record(std::uint64_t value, std::uint64_t n)
    {
        const std::size_t idx = bucketIndex(value);
        if (idx >= counts_.size())
            counts_.resize(idx + 1, 0);
        counts_[idx] += n;
        count_ += n;
        sum_ += static_cast<double>(value) * static_cast<double>(n);
        max_ = std::max(max_, value);
        min_ = std::min(min_, value);
    }

    /** Merge another histogram into this one. */
    void merge(const LatencyHistogram &other);

    std::uint64_t count() const { return count_; }
    std::uint64_t minValue() const;
    std::uint64_t maxValue() const { return max_; }
    double mean() const;

    /**
     * Value at quantile @p q in [0, 1] — e.g. q=0.9999 for the paper's
     * p99.99 tails. Returns the representative (midpoint) value of the
     * containing bucket.
     */
    std::uint64_t quantile(double q) const;

    std::uint64_t p50() const { return quantile(0.50); }
    std::uint64_t p90() const { return quantile(0.90); }
    std::uint64_t p99() const { return quantile(0.99); }
    std::uint64_t p999() const { return quantile(0.999); }
    std::uint64_t p9999() const { return quantile(0.9999); }

    /** Checkpoint the recorded distribution (geometry is ctor state). */
    void
    visitState(StateIO &io)
    {
        io.podVec(counts_);
        io.u64(count_);
        io.u64(max_);
        io.u64(min_);
        io.f64(sum_);
    }

  private:
    std::size_t
    bucketIndex(std::uint64_t value) const
    {
        // Octave 0 holds values < subBuckets_ exactly; octave k >= 1
        // holds [subBuckets_ << (k-1), subBuckets_ << k) with
        // subBuckets_/2 distinct sub-buckets of width 2^k each. For
        // simplicity we lay out a full subBuckets_-wide row per octave
        // (half of each row beyond octave 0 is unused; the waste is a
        // few KB).
        unsigned octave = 0;
        if (value >= subBuckets_)
            octave = static_cast<unsigned>(std::bit_width(value)) -
                     subBucketBits_;
        const std::uint64_t sub = value >> octave;
        return static_cast<std::size_t>(octave) * subBuckets_ + sub;
    }

    std::uint64_t bucketMidpoint(std::size_t index) const;

    // lint:state-cov-ok(bucket geometry fixed at construction; restore targets an identically-built histogram)
    unsigned subBucketBits_;
    // lint:state-cov-ok(bucket geometry fixed at construction; restore targets an identically-built histogram)
    std::uint64_t subBuckets_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
    std::uint64_t max_ = 0;
    std::uint64_t min_ = UINT64_MAX;
    // lint:fp-state-ok(feeds no decision: only the reported mean)
    double sum_ = 0.0;
};

} // namespace pagesim

#endif // PAGESIM_STATS_HISTOGRAM_HH
