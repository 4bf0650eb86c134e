/**
 * @file
 * DRAM model implementation.
 */

#include "sim/dram.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "sim/fault.hh"
#include "sim/profile.hh"
#include "util/logging.hh"
#include "util/trace.hh"

namespace omega {

Dram::Dram(const MachineParams &params)
    : base_latency_(params.dram_latency),
      bytes_per_cycle_(params.dramBytesPerCycle()),
      line_bytes_(params.l2.line_bytes),
      channel_free_(params.dram_channels, 0),
      channel_busy_(params.dram_channels, 0),
      channel_requests_(params.dram_channels, 0)
{
    omega_assert(bytes_per_cycle_ > 0.0, "dram bandwidth must be positive");
    // The design-space sweep covers 1-16 channels (Green et al.,
    // PAPERS.md); the trace tid encoding and the per-channel vectors
    // assume a small fixed ceiling.
    omega_assert(params.dram_channels >= 1 && params.dram_channels <= 16,
                 "dram channel count must be in [1, 16]");
    const auto lb = static_cast<std::uint64_t>(line_bytes_);
    const std::uint64_t channels = channel_free_.size();
    if (std::has_single_bit(lb) && std::has_single_bit(channels)) {
        geometry_pow2_ = true;
        line_shift_ = static_cast<unsigned>(std::countr_zero(lb));
        channel_mask_ = channels - 1;
    }
    line_occupancy_ = std::max<Cycles>(
        static_cast<Cycles>(static_cast<double>(line_bytes_) /
                                bytes_per_cycle_ +
                            0.5),
        1);
    line_transfer_ = static_cast<Cycles>(static_cast<double>(line_bytes_) /
                                         bytes_per_cycle_);
}

unsigned
Dram::channelOf(std::uint64_t addr) const
{
    if (geometry_pow2_)
        return static_cast<unsigned>((addr >> line_shift_) & channel_mask_);
    return static_cast<unsigned>((addr / line_bytes_) %
                                 channel_free_.size());
}

Cycles
Dram::occupy(Cycles now, unsigned channel, std::uint32_t bytes)
{
    Cycles start = std::max(now, channel_free_[channel]);
    // An injected stall (refresh/thermal event) pushes the start time, so
    // the queueing accounting below sees it as channel pressure.
    if (fault_inj_ != nullptr)
        start += fault_inj_->dramStall(channel, start);
    const Cycles occupancy =
        bytes == line_bytes_
            ? line_occupancy_
            : std::max<Cycles>(
                  static_cast<Cycles>(static_cast<double>(bytes) /
                                          bytes_per_cycle_ +
                                      0.5),
                  1);
    channel_free_[channel] = start + occupancy;
    channel_busy_[channel] += occupancy;
    ++channel_requests_[channel];
    queue_cycles_ += start - now;
    max_queue_ = std::max(max_queue_, start - now);
    queue_hist_.sample(static_cast<double>(start - now));
    return start;
}

Cycles
Dram::read(Cycles now, std::uint64_t addr, std::uint32_t bytes,
           bool prefetched)
{
    ++reads_;
    read_bytes_ += bytes;
    if (profile::compiledIn() && profiler_ != nullptr)
        profiler_->onDramRead(addr, bytes);
    const unsigned ch = channelOf(addr);
    const Cycles start = occupy(now, ch, bytes);
    const Cycles transfer =
        bytes == line_bytes_
            ? line_transfer_
            : static_cast<Cycles>(static_cast<double>(bytes) /
                                  bytes_per_cycle_);
    // A prefetched stream line was requested ahead of the demand access,
    // hiding the array access latency — but it still needed a transfer
    // slot, so queueing (the bandwidth bound) reaches the core.
    const Cycles latency =
        (start - now) + (prefetched ? 0 : base_latency_) + transfer;
    if (trace_pid_ > 0) {
        trace::emitComplete(prefetched ? "dram.read.prefetched"
                                       : "dram.read",
                            "dram", trace_pid_, trace::kDramTidBase + ch,
                            now, latency, "queued_cycles", start - now);
    }
    return latency;
}

void
Dram::write(Cycles now, std::uint64_t addr, std::uint32_t bytes)
{
    ++writes_;
    write_bytes_ += bytes;
    if (profile::compiledIn() && profiler_ != nullptr)
        profiler_->onDramWrite(addr, bytes);
    const unsigned ch = channelOf(addr);
    const Cycles start = occupy(now, ch, bytes);
    if (trace_pid_ > 0) {
        trace::emitComplete("dram.write", "dram", trace_pid_,
                            trace::kDramTidBase + ch, now,
                            (start - now) + 1, "queued_cycles",
                            start - now);
    }
}

void
Dram::addStats(StatGroup &group) const
{
    group.addScalar("reads", &reads_, "DRAM read requests");
    group.addScalar("writes", &writes_, "DRAM write requests");
    group.addScalar("read_bytes", &read_bytes_, "bytes read from DRAM");
    group.addScalar("write_bytes", &write_bytes_,
                    "bytes written to DRAM");
    group.addScalar("queue_cycles", &queue_cycles_,
                    "total channel queueing delay");
    group.addScalar("max_queue", &max_queue_,
                    "worst single-request queueing delay");
    group.addHistogram("queue_delay", &queue_hist_,
                       "per-request channel queueing delay");
}

void
Dram::save(SnapshotWriter &w) const
{
    w.putU64(channel_free_.size());
    w.putU64Vector(channel_free_);
    w.putU64Vector(channel_busy_);
    w.putU64Vector(channel_requests_);
    w.putU64(reads_);
    w.putU64(writes_);
    w.putU64(read_bytes_);
    w.putU64(write_bytes_);
    w.putU64(queue_cycles_);
    w.putU64(max_queue_);
    w.putU64Vector(queue_hist_.exportState());
}

void
Dram::restore(SnapshotReader &r)
{
    const std::uint64_t channels = r.getU64();
    if (channels != channel_free_.size()) {
        throw SnapshotStateError(
            "snapshot: DRAM has " + std::to_string(channels) +
            " channels, machine has " +
            std::to_string(channel_free_.size()));
    }
    channel_free_ = r.getU64Vector();
    channel_busy_ = r.getU64Vector();
    channel_requests_ = r.getU64Vector();
    if (channel_free_.size() != channels ||
        channel_busy_.size() != channels ||
        channel_requests_.size() != channels) {
        throw SnapshotStateError(
            "snapshot: DRAM channel vectors do not match their count");
    }
    reads_ = r.getU64();
    writes_ = r.getU64();
    read_bytes_ = r.getU64();
    write_bytes_ = r.getU64();
    queue_cycles_ = r.getU64();
    max_queue_ = r.getU64();
    try {
        queue_hist_.importState(r.getU64Vector());
    } catch (const std::invalid_argument &e) {
        throw SnapshotStateError(std::string("snapshot: ") + e.what());
    }
}

void
Dram::reset()
{
    std::fill(channel_free_.begin(), channel_free_.end(), 0);
    std::fill(channel_busy_.begin(), channel_busy_.end(), 0);
    std::fill(channel_requests_.begin(), channel_requests_.end(), 0);
    reads_ = writes_ = read_bytes_ = write_bytes_ = queue_cycles_ = 0;
    max_queue_ = 0;
    queue_hist_.reset();
}

} // namespace omega
