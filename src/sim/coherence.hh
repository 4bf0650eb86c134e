/**
 * @file
 * Two-level MESI cache hierarchy with an inclusive-L2 directory.
 *
 * Private L1 data caches back onto a shared L2 whose line metadata doubles
 * as the coherence directory (sharer vector + modified-owner). The protocol
 * models the transactions that matter for the paper's accounting:
 *
 *  - load miss with remote Modified copy -> dirty forward (3-hop);
 *  - store hit on a Shared line -> upgrade + invalidations;
 *  - store miss -> exclusive fetch with invalidations;
 *  - L1 eviction of Modified data -> writeback to L2;
 *  - L2 eviction -> back-invalidation of L1 copies + DRAM writeback.
 *
 * Transactions complete atomically in the event model (no transient
 * states); latency and traffic are charged per hop through the crossbar
 * and the DRAM queue model.
 */

#ifndef OMEGA_SIM_COHERENCE_HH
#define OMEGA_SIM_COHERENCE_HH

#include <memory>
#include <vector>

#include "sim/cache.hh"
#include "sim/crossbar.hh"
#include "sim/dram.hh"
#include "sim/params.hh"
#include "sim/profile.hh"
#include "sim/stats_report.hh"
#include "util/stats.hh"

namespace omega {

/** Shared two-level hierarchy used by both the baseline and OMEGA. */
class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const MachineParams &params);

    /**
     * Perform one access and return its latency.
     *
     * @param core issuing core.
     * @param addr byte address.
     * @param write true for stores (and the acquisition part of atomics).
     * @param now absolute issue time (drives DRAM queueing).
     * @param sequential stream access: an L2-miss is served by the
     *        stream prefetcher (DRAM base latency hidden, bandwidth
     *        still charged).
     */
    Cycles
    access(unsigned core, std::uint64_t addr, bool write, Cycles now,
           bool sequential = false)
    {
        // Hits that need no protocol action stay inline — the hottest
        // calls in the simulator. Reads: any L1 hit. Writes: a hit on a
        // line this core already holds Modified; the directory recorded
        // {dirty_l1, owner} when the line first became Modified (every
        // producing transition does, and back-invalidation removes the
        // L1 copy before its directory entry can disappear), so there is
        // nothing to update. Everything else (misses, write hits needing
        // upgrades or directory writes) takes the out-of-line path.
        omega_assert(core < l1_.size(), "core id out of range");
        const std::uint64_t line_addr = l2_.lineAddr(addr);
        CacheLine *const line = l1_[core].touchHit(line_addr);
        if (line && (!write || line->state == LineState::Modified)) {
            ++l1_accesses_;
            ++l1_hits_;
            if (profile::compiledIn() && profiler_ != nullptr)
                profiler_->onL1Access(core, line_addr, true);
            return params_.l1d.latency;
        }
        // Miss, or a write hit that must transition state: hand the scan
        // result over so the slow path never repeats the set lookup.
        return accessSlow(core, addr, write, now, sequential, line);
    }

    /**
     * Install (or remove with nullptr) an insertion/promotion policy on
     * the shared L2 — the LLC, the only level where replacement priority
     * matters for the paper's workloads. The caller owns the policy and
     * must keep it alive for the hierarchy's lifetime.
     */
    void setLlcPolicy(CachePolicy *policy) { l2_.setPolicy(policy); }
    const CachePolicy *llcPolicy() const { return l2_.policy(); }

    /** Crossbar (shared with the scratchpad network on OMEGA). */
    Crossbar &xbar() { return *xbar_; }
    const Crossbar &xbar() const { return *xbar_; }
    Dram &dram() { return *dram_; }
    const Dram &dram() const { return *dram_; }
    /** The shared L2 (profiler sizing: sets/lines/line bytes). */
    const CacheArray &llc() const { return l2_; }

    /**
     * Arm (or disarm with nullptr) access-profile observation on the
     * whole hierarchy: L1s, the LLC and the DRAM behind it. Hook sites
     * are a single null-check when unarmed, so simulated timing — and
     * the pinned golden digests — are untouched until a profiler is
     * installed.
     */
    void setProfiler(AccessProfiler *profiler)
    {
        profiler_ = profiler;
        dram_->setProfiler(profiler);
    }

    /** Copy hierarchy counters into @p out. */
    void collect(StatsReport &out) const;

    /**
     * @name Snapshot support.
     * Every L1, the L2/directory, crossbar, DRAM and the hierarchy's own
     * transaction counters. Installed policy objects are external config
     * (the machine re-serializes policy statistics itself).
     * @{
     */
    void save(SnapshotWriter &w) const;
    void restore(SnapshotReader &r);
    /** @} */

    /**
     * Register cache/coherence counters in @p group and attach "xbar"
     * and "dram" child groups (owned by this hierarchy) for the shared
     * interconnect and memory. Call at most once per hierarchy.
     */
    void addStats(StatGroup &group);

    /** Invalidate all caches (between runs). */
    void flushAll();

    const MachineParams &params() const { return params_; }

  private:
    /**
     * Protocol path of access(): misses and state-changing write hits.
     * @param l1_line the inline lookup's result for this address — the
     *        hit line (LRU already touched), or null for a proven miss.
     */
    Cycles accessSlow(unsigned core, std::uint64_t addr, bool write,
                      Cycles now, bool sequential, CacheLine *l1_line);

    /** Clear @p victim's presence in the L1s it is registered in. */
    void backInvalidate(const CacheLine &victim, std::uint64_t victim_addr);

    MachineParams params_;
    std::vector<CacheArray> l1_;
    CacheArray l2_;
    std::unique_ptr<Crossbar> xbar_;
    std::unique_ptr<Dram> dram_;
    StatGroup xbar_group_{"xbar"};
    StatGroup dram_group_{"dram"};
    AccessProfiler *profiler_ = nullptr;

    std::uint64_t l1_accesses_ = 0;
    std::uint64_t l1_hits_ = 0;
    std::uint64_t l2_accesses_ = 0;
    std::uint64_t l2_hits_ = 0;
    std::uint64_t writebacks_ = 0;
    std::uint64_t upgrades_ = 0;
    std::uint64_t invalidations_ = 0;
    std::uint64_t dirty_forwards_ = 0;
};

} // namespace omega

#endif // OMEGA_SIM_COHERENCE_HH
