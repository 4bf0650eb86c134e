/**
 * @file
 * Crossbar interconnect accounting.
 *
 * The paper's CMP uses a 128-bit crossbar; a remote scratchpad access costs
 * ~17 cycles round trip. We charge fixed per-hop latencies and account all
 * on-chip traffic in flits and bytes — Fig 17 ("OMEGA reduces on-chip
 * traffic by 3.2x") is regenerated from these counters. Cache transfers
 * move whole 64 B lines; scratchpad packets carry <=8 B payloads and fit in
 * a single flit, which is where OMEGA's traffic reduction comes from.
 */

#ifndef OMEGA_SIM_CROSSBAR_HH
#define OMEGA_SIM_CROSSBAR_HH

#include <cstdint>

#include "sim/params.hh"
#include "sim/snapshot.hh"

namespace omega {

class FaultInjector;
class StatGroup;

/** Flit/byte accounting plus fixed latency helpers for the crossbar. */
class Crossbar
{
  public:
    explicit Crossbar(const MachineParams &params);

    /** One-way traversal latency. */
    Cycles oneWay() const { return one_way_; }
    /** Request/response round trip. */
    Cycles roundTrip() const { return 2 * one_way_ + 1; }

    /** Arm (or disarm with nullptr) packet drop/delay fault injection. */
    void setFaultInjector(FaultInjector *injector)
    {
        fault_inj_ = injector;
    }

    /**
     * Extra latency injected on one packet sent at @p now: drops cost a
     * retransmission over @p retransmit_cycles each, delays cost the
     * plan's delay budget. Always 0 when no injector is armed.
     */
    Cycles
    faultLatency(Cycles now, Cycles retransmit_cycles)
    {
        if (fault_inj_ == nullptr)
            return 0;
        return faultLatencySlow(now, retransmit_cycles);
    }

    /** Record a data packet carrying @p payload_bytes. */
    void
    recordTransfer(std::uint32_t payload_bytes)
    {
        const std::uint32_t total = payload_bytes + header_bytes_;
        ++packets_;
        bytes_ += total;
        flits_ += (total + flit_bytes_ - 1) / flit_bytes_;
    }
    /** Record a header-only control packet (inv, ack, upgrade). */
    void
    recordControl()
    {
        ++packets_;
        bytes_ += header_bytes_;
        ++flits_;
    }

    std::uint64_t bytes() const { return bytes_; }
    std::uint64_t flits() const { return flits_; }
    std::uint64_t packets() const { return packets_; }

    /** Register traffic counters in @p group. */
    void addStats(StatGroup &group) const;

    /**
     * @name Snapshot support.
     * Traffic counters only — latency/flit geometry is constructor state.
     * @{
     */
    void
    save(SnapshotWriter &w) const
    {
        w.putU64(bytes_);
        w.putU64(flits_);
        w.putU64(packets_);
    }
    void
    restore(SnapshotReader &r)
    {
        bytes_ = r.getU64();
        flits_ = r.getU64();
        packets_ = r.getU64();
    }
    /** @} */

    void reset();

  private:
    Cycles faultLatencySlow(Cycles now, Cycles retransmit_cycles);

    Cycles one_way_;
    std::uint32_t flit_bytes_;
    std::uint32_t header_bytes_;
    FaultInjector *fault_inj_ = nullptr;
    std::uint64_t bytes_ = 0;
    std::uint64_t flits_ = 0;
    std::uint64_t packets_ = 0;
};

} // namespace omega

#endif // OMEGA_SIM_CROSSBAR_HH
