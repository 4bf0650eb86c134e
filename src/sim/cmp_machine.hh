/**
 * @file
 * The simulated chip multiprocessor: one machine, two plug points.
 *
 * Every registered design point is this machine (paper Table III: 16 OoO
 * cores, private L1s, a shared banked L2 under MESI, a crossbar and
 * multi-channel DDR3) with up to two attachments:
 *
 *  - an LLC CachePolicy (sim/cache_policy.hh): GRASP's "specialized
 *    policy on unchanged hardware" (Faldu et al., PAPERS.md);
 *  - a near-memory unit (paper Fig 6, right side), present iff
 *    params.sp_total_bytes > 0: per-core scratchpads with PISC engines,
 *    the scratchpad controller whose monitor registers claim vtxProp
 *    addresses, and per-core source-vertex buffers.
 *
 * With the unit attached, requests are filtered by the controller:
 *
 *  - monitored vtxProp accesses to resident vertices go to the home
 *    scratchpad at word granularity (local: sp_latency; remote: plus a
 *    crossbar round trip with a single-flit packet);
 *  - atomic updates to resident vertices are offloaded to the home PISC,
 *    fire-and-forget from the core (unless params.pisc_enabled is off);
 *  - source-vertex reads consult the per-core source-vertex buffer;
 *  - everything else (edgeList, nGraphData, cold vtxProp, active lists)
 *    takes the cache path, exactly as on a machine without the unit,
 *    where all graph data flows through the caches and atomic updates
 *    execute on the issuing core with the line locked.
 */

#ifndef OMEGA_SIM_CMP_MACHINE_HH
#define OMEGA_SIM_CMP_MACHINE_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "omega/pisc.hh"
#include "omega/scratchpad.hh"
#include "omega/scratchpad_controller.hh"
#include "omega/source_vertex_buffer.hh"
#include "sim/cache_policy.hh"
#include "sim/coherence.hh"
#include "sim/fault.hh"
#include "sim/interval_stats.hh"
#include "sim/memory_system.hh"
#include "sim/tile.hh"
#include "util/stats.hh"

namespace omega {

/**
 * OMEGA's near-memory unit. The scratchpads and PISCs are home-indexed
 * and reached by every core through the controller; the source-vertex
 * buffers are per core (only the owning core reads and fills one).
 */
struct NearMemoryUnit
{
    explicit NearMemoryUnit(const MachineParams &params);

    /** Size the scratchpad lines for the run's vtxProp layout, install
     *  the monitor registers and load the PISC microcode. */
    void configure(const MachineConfig &config);

    std::vector<Scratchpad> scratchpads;
    std::vector<Pisc> piscs;
    std::vector<SourceVertexBuffer> svbs;
    ScratchpadController controller;
};

/** The composed CMP: core tiles + cache hierarchy + optional plug-ins. */
class CmpMachine final : public MemorySystem
{
  public:
    /**
     * @param params hardware parameters; sp_total_bytes > 0 attaches the
     *        near-memory unit.
     * @param name registry label: name(), the stat-tree root and the
     *        trace process name.
     * @param policy LLC insertion/promotion policy, or nullptr for true
     *        LRU.
     */
    CmpMachine(const MachineParams &params, std::string name,
               std::unique_ptr<CachePolicy> policy = nullptr);

    void configure(const MachineConfig &config) override;
    void compute(unsigned core, std::uint64_t ops) override;
    void memAccess(const MemAccess &access) override;
    void
    memAccessBatch(std::span<const MemAccess> accesses) override
    {
        for (const MemAccess &a : accesses)
            CmpMachine::memAccess(a);
    }
    void replayOps(unsigned core, std::span<const EngineOp> ops) override;
    void readSrcProp(unsigned core, VertexId vertex, std::uint64_t addr,
                     std::uint32_t size) override;
    void atomicUpdate(const AtomicRequest &request) override;
    void barrier() override;
    void endIteration() override;
    Cycles coreNow(unsigned core) const override;
    Cycles cycles() const override;
    StatsReport report() const override;
    const MachineParams &params() const override { return params_; }
    std::string name() const override { return name_; }

    /** The near-memory unit, or nullptr when none is attached. */
    const NearMemoryUnit *nearMemory() const { return nmu_.get(); }
    /** The installed LLC policy, or nullptr (true LRU). */
    const CachePolicy *llcPolicy() const { return policy_.get(); }
    /** Vertices resident in the scratchpads this run (0 without the
     *  near-memory unit). */
    VertexId residentVertices() const
    {
        return nmu_ != nullptr ? nmu_->controller.residentVertices() : 0;
    }

    void recordFinalSample() override;
    const StatGroup *statTree() const override { return &stats_root_; }
    void attachTracing() override;
    int tracePid() const override { return trace_pid_; }

    void armFaults(const FaultPlan &plan) override;
    const FaultInjector *faultInjector() const override
    {
        return injector_.get();
    }
    std::string debugDump() const override;

    void armProfile() override;
    AccessProfiler *profiler() override { return profiler_.get(); }

    /**
     * @name Checkpoint/restore.
     * Machine clocks/counters, tiles, the hierarchy, the near-memory unit,
     * the policy's counters and any armed fault injector, in one
     * traversal. Configuration (monitor registers, microcode, residency,
     * policy regions) is re-derived by configure() before restore. The
     * stat tree is pointer-stable, so restore writes every registered
     * word in place. Profiler state is deliberately out of scope
     * (checkpointing is rejected under --profile at the CLI).
     * @{
     */
    void saveState(SnapshotWriter &w) const override;
    void restoreState(SnapshotReader &r) override;
    /** @} */

  private:
    void countVertexAccess(VertexId vertex);
    void buildStatTree();
    void takeSample(SampleKind kind);
    /** The cache path of a load/store. */
    void cacheAccess(const MemAccess &access);
    /**
     * Serve a vtxProp load/store from the near-memory unit when its
     * controller claims @p addr. Returns false (nothing charged) when
     * the access belongs on the cache path.
     */
    bool scratchpadLoadStore(unsigned core, std::uint64_t addr,
                             std::uint32_t size, bool write, bool blocking);
    /** Same for a source-vertex read (local scratchpad, SVB, remote). */
    bool scratchpadSrcProp(unsigned core, VertexId vertex,
                           std::uint64_t addr, std::uint32_t size);
    /**
     * Scratchpad word access from @p core; returns core-visible latency.
     * @param addr byte address of the access (profiler attribution; the
     *        route carries only vertex/home/line coordinates).
     */
    Cycles scratchpadAccess(unsigned core, const SpRoute &route,
                            std::uint64_t addr, std::uint32_t bytes,
                            bool write);
    /** Atomic executed on the issuing core (cache path, or a locked RMW
     *  against the scratchpad when no PISC takes it). */
    void coreAtomic(const AtomicRequest &request);
    /** Fire-and-forget offload of a resident atomic to its home PISC. */
    void offloadAtomic(const AtomicRequest &request, const SpRoute &route);

    /**
     * Resolve injected delivery faults of one offload arriving at
     * @p arrival: NACK retries with backoff, degradation after retry
     * exhaustion (executed on the core), or a lost update (retries
     * disabled). Returns the resolved arrival time, or nullopt when the
     * offload will not execute on the PISC (all bookkeeping done).
     */
    std::optional<Cycles> resolveOffloadFaults(const AtomicRequest &request,
                                               const SpRoute &route,
                                               Cycles arrival);
    /**
     * ECC fault handling of one scratchpad read of @p route costing
     * @p base_latency: retry reads, then poison + memory re-fetch once
     * the line's persistent threshold is crossed. Returns the extra
     * latency (0 when no error fires). Only called with an armed
     * injector.
     */
    Cycles spFaultPenalty(unsigned core, const SpRoute &route,
                          Cycles base_latency);
    /** Recompute the effective watchdog budget (config overrides plan). */
    void refreshWatchdog();
    /** Barrier-time watchdog: stuck busy entries and the phase budget. */
    void checkForwardProgress(Cycles now);
    /** Compose a WatchdogError message: reason + state dump. */
    std::string watchdogReport(const std::string &reason,
                               Cycles now) const;

    MachineParams params_;
    MachineConfig config_;
    CacheHierarchy hierarchy_;
    /** Registry name; declared before stats_root_, which labels itself
     *  with it. */
    std::string name_;
    /** Core-private tiles (core model, sparse-append counter). */
    std::vector<CoreTile> tiles_;
    /** Plug points; either may be null. The policy is owned here and
     *  installed on the hierarchy's L2 by pointer. */
    std::unique_ptr<NearMemoryUnit> nmu_;
    std::unique_ptr<CachePolicy> policy_;
    Cycles global_cycles_ = 0;
    std::uint64_t iteration_ = 0;
    int trace_pid_ = 0;

    /** Armed fault campaign (null on the fault-free fast path). */
    std::unique_ptr<FaultInjector> injector_;
    /** Lazily attached "faults" stat group — only armed runs report it,
     *  keeping the unarmed stat tree (and the golden digest) unchanged. */
    std::unique_ptr<StatGroup> fault_group_;

    /** Armed access profiler + its lazily attached "profile" group
     *  (same arming pattern as the fault campaign). */
    std::unique_ptr<AccessProfiler> profiler_;
    std::unique_ptr<StatGroup> profile_group_;
    /** Effective forward-progress budget; 0 disables the watchdog. */
    Cycles watchdog_cycles_ = 0;
    Cycles last_barrier_cycles_ = 0;

    std::uint64_t atomics_total_ = 0;
    std::uint64_t atomics_offloaded_ = 0;
    std::uint64_t atomics_on_core_ = 0;
    std::uint64_t sp_local_ = 0;
    std::uint64_t sp_remote_ = 0;
    std::uint64_t vtxprop_accesses_ = 0;
    std::uint64_t vtxprop_hot_accesses_ = 0;

    /** Stat tree: root -> {machine counters, cache.*, [controller.*],
     *  coreN.*, [spN.*, piscN.*, svbN.*], [policy.*]}. */
    StatGroup stats_root_;
    StatGroup cache_group_{"cache"};
    StatGroup controller_group_{"controller"};
    StatGroup policy_group_{"policy"};
    std::vector<std::unique_ptr<StatGroup>> component_groups_;
};

} // namespace omega

#endif // OMEGA_SIM_CMP_MACHINE_HH
