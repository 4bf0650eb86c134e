/**
 * @file
 * Multi-channel DRAM model.
 *
 * Each channel is a single server with a fixed access latency and a
 * bandwidth-derived occupancy per transfer; requests arriving while the
 * channel is busy queue behind it. This reproduces the two first-order
 * DRAM behaviours the paper depends on: fixed ~100-cycle latency when
 * bandwidth is available, and rising queueing delay as utilization
 * approaches the 4 x 12 GB/s peak (Fig 16).
 */

#ifndef OMEGA_SIM_DRAM_HH
#define OMEGA_SIM_DRAM_HH

#include <cstdint>
#include <vector>

#include "sim/params.hh"
#include "sim/snapshot.hh"
#include "util/stats.hh"

namespace omega {

class AccessProfiler;
class FaultInjector;

/** Channel-queued DRAM timing and traffic accounting. */
class Dram
{
  public:
    explicit Dram(const MachineParams &params);

    /**
     * Issue a read of @p bytes at absolute time @p now.
     *
     * @param now core-clock issue time.
     * @param addr address (selects the channel).
     * @param bytes transfer size.
     * @param prefetched a stream prefetcher issued this line ahead of
     *        the demand access: the base access latency is hidden, but
     *        channel queueing (the bandwidth bound) still applies.
     * @return total latency until data returns (queueing included).
     */
    Cycles read(Cycles now, std::uint64_t addr, std::uint32_t bytes,
                bool prefetched = false);

    /**
     * Issue a posted write (writeback). Consumes channel bandwidth but the
     * requester does not wait for it.
     */
    void write(Cycles now, std::uint64_t addr, std::uint32_t bytes);

    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }
    std::uint64_t readBytes() const { return read_bytes_; }
    std::uint64_t writeBytes() const { return write_bytes_; }
    std::uint64_t queueCycles() const { return queue_cycles_; }
    /** Worst single-request queueing delay (diagnostic). */
    Cycles maxQueue() const { return max_queue_; }
    /**
     * Per-request queueing-delay distribution: the backlog (in cycles of
     * occupancy) each request found on its channel — the channel-pressure
     * signal behind the Fig 16 bandwidth saturation curve.
     */
    const Histogram &queueDelayHistogram() const { return queue_hist_; }

    /** Configured channel count (the bench_channels sweep axis). */
    unsigned numChannels() const
    {
        return static_cast<unsigned>(channel_free_.size());
    }
    /**
     * Channel serving @p addr: line-interleaved round-robin, so the
     * mapping partitions the line address space. Public so tests can
     * verify the partition property directly.
     */
    unsigned channelOf(std::uint64_t addr) const;
    /**
     * @name Per-channel accounting.
     * Occupancy cycles and request counts, one slot per channel.
     * Exposed through accessors only — deliberately NOT registered in
     * addStats(), whose entry list is frozen by the pinned golden
     * digests; sum(busy) equals the single-channel occupancy total of
     * the same request stream, and sum(requests) == reads() + writes().
     * @{
     */
    const std::vector<Cycles> &channelBusyCycles() const
    {
        return channel_busy_;
    }
    const std::vector<std::uint64_t> &channelRequests() const
    {
        return channel_requests_;
    }
    /** @} */

    /** Identify this DRAM for event tracing (machine pid). */
    void setTracePid(int pid) { trace_pid_ = pid; }

    /** Arm (or disarm with nullptr) channel-stall fault injection. */
    void setFaultInjector(FaultInjector *injector)
    {
        fault_inj_ = injector;
    }

    /** Arm (or disarm with nullptr) access-profile observation. */
    void setProfiler(AccessProfiler *profiler) { profiler_ = profiler; }

    /** Register traffic counters and the queue histogram in @p group. */
    void addStats(StatGroup &group) const;

    /**
     * @name Snapshot support.
     * Per-channel free times (the queueing state future requests see),
     * traffic counters and the queue-delay histogram. Channel count must
     * match the machine being restored into (SnapshotStateError).
     * @{
     */
    void save(SnapshotWriter &w) const;
    void restore(SnapshotReader &r);
    /** @} */

    void reset();

  private:
    /** Serialize a transfer on its channel; returns its start time. */
    Cycles occupy(Cycles now, unsigned channel, std::uint32_t bytes);

    Cycles base_latency_;
    double bytes_per_cycle_;
    unsigned line_bytes_;
    /** log2(line_bytes_) when it is a power of two, else 0. */
    unsigned line_shift_ = 0;
    bool geometry_pow2_ = false;
    std::uint64_t channel_mask_ = 0;
    /** Precomputed occupancy / transfer cycles of one full line — the
     *  only transfer size the hierarchy issues — so the hot path skips
     *  the double divisions. */
    Cycles line_occupancy_ = 1;
    Cycles line_transfer_ = 0;
    int trace_pid_ = 0;
    FaultInjector *fault_inj_ = nullptr;
    AccessProfiler *profiler_ = nullptr;
    std::vector<Cycles> channel_free_;
    std::vector<Cycles> channel_busy_;
    std::vector<std::uint64_t> channel_requests_;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t read_bytes_ = 0;
    std::uint64_t write_bytes_ = 0;
    std::uint64_t queue_cycles_ = 0;
    Cycles max_queue_ = 0;
    Histogram queue_hist_{0.0, 2048.0, 32};
};

} // namespace omega

#endif // OMEGA_SIM_DRAM_HH
