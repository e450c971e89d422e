/**
 * @file
 * YCSB workloads A/B/C over the memcached-like KV store.
 *
 * Mirrors the paper's setup (Sec. IV): load the cache, then serve a
 * zipfian request stream with the standard mixes — A: 50% read / 50%
 * update, B: 95/5, C: 100% read — across 4 server threads (memcached's
 * default), recording per-request latencies into log-bucketed
 * histograms split by read/write for the tail-latency figures
 * (Figs. 3, 8, 12). Request counts are the paper's 10:1
 * requests-to-items ratio (scaled; see DESIGN.md).
 */

#ifndef PAGESIM_KV_YCSB_WORKLOAD_HH
#define PAGESIM_KV_YCSB_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>

#include "kv/kv_store.hh"
#include "stats/histogram.hh"
#include "workload/workload.hh"

namespace pagesim
{

/** Which standard YCSB mix to run. */
enum class YcsbMix
{
    A, ///< 50% read, 50% update
    B, ///< 95% read, 5% update
    C, ///< 100% read
};

/** Read fraction of a mix. */
double ycsbReadFraction(YcsbMix mix);

/** Display name ("YCSB-A", ...). */
const std::string &ycsbMixName(YcsbMix mix);

/** YCSB workload parameters. */
struct YcsbConfig
{
    KvConfig kv{};
    YcsbMix mix = YcsbMix::A;
    unsigned threads = 4; ///< memcached default
    /** Requests per loaded item (paper: 110M/11M = 10). */
    double requestsPerItem = 10.0;
    double zipfTheta = ZipfianGenerator::kDefaultTheta;
    /**
     * CPU work per request (parse, hash, copy out, network stack).
     * Calibrated to keep the compute:fault balance of the full-scale
     * system at the scaled item count (see DESIGN.md "Scaling").
     */
    SimDuration computePerRequest = usecs(60);
    std::uint64_t seed = 777;
};

/** Request classes used for latency recording. */
constexpr std::uint32_t kYcsbRead = 0;
constexpr std::uint32_t kYcsbWrite = 1;

/** The YCSB-over-memcached workload. */
class YcsbWorkload : public Workload
{
  public:
    explicit YcsbWorkload(const YcsbConfig &config);

    const std::string &name() const override { return name_; }
    std::uint64_t footprintPages() const override;
    unsigned numThreads() const override;
    void build(WorkloadContext &ctx) override;
    std::unique_ptr<OpStream> stream(unsigned tid) override;
    SimBarrier *barrier(std::uint32_t id) override;
    void recordRequest(std::uint32_t klass, SimDuration latency) override;
    void phaseReached(unsigned tid, std::uint32_t id,
                      SimTime now) override;

    /** Results, valid after the trial completes. */
    const LatencyHistogram &readLatency() const { return readHist_; }
    const LatencyHistogram &writeLatency() const { return writeHist_; }
    SimTime measureStart() const { return measureStart_; }
    std::uint64_t faultsAtMeasureStart() const
    {
        return faultsAtMeasureStart_;
    }

    void
    forEachBarrier(
        const std::function<void(SimBarrier &)> &fn) override
    {
        if (barrier_)
            fn(*barrier_);
    }

    void
    visitState(StateIO &io) override
    {
        io.boolean(measuring_);
        io.u64(measureStart_);
        io.u64(faultsAtMeasureStart_);
        readHist_.visitState(io);
        writeHist_.visitState(io);
    }

  private:
    friend class YcsbStream;

    // lint:state-cov-ok(construction parameter; the restore rig is rebuilt from the same validated config)
    YcsbConfig config_;
    // lint:state-cov-ok(display name fixed at construction)
    std::string name_;
    // lint:state-cov-ok(pure layout calculator over the config: bucket and slab addresses, no run state)
    KvStore store_;
    // lint:state-cov-ok(barrier contents are captured by the checkpoint's dedicated barrier section)
    std::unique_ptr<SimBarrier> barrier_;
    MemoryManager *mm_ = nullptr;

    LatencyHistogram readHist_;
    LatencyHistogram writeHist_;
    bool measuring_ = false;
    SimTime measureStart_ = 0;
    std::uint64_t faultsAtMeasureStart_ = 0;
};

} // namespace pagesim

#endif // PAGESIM_KV_YCSB_WORKLOAD_HH
