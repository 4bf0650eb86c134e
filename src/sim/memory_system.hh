/**
 * @file
 * Abstract memory-system interface the framework runtime drives.
 *
 * The simulator's one implementation is CmpMachine (sim/cmp_machine.hh):
 * the MESI cache hierarchy with an optional LLC policy and an optional
 * near-memory unit (scratchpads + PISC engines). Benches and tests also
 * wrap or stub the interface (timing proxies, counting-only machines).
 * The framework is machine-agnostic: it registers its vtxProp
 * layout (the paper's address-monitoring-register configuration), then
 * emits compute, load/store, source-prop-read and atomic-update events;
 * the machine's composition decides their timing and routing.
 */

#ifndef OMEGA_SIM_MEMORY_SYSTEM_HH
#define OMEGA_SIM_MEMORY_SYSTEM_HH

#include <span>
#include <string>
#include <vector>

#include "graph/types.hh"
#include "sim/access.hh"
#include "sim/engine_ops.hh"
#include "sim/params.hh"
#include "sim/snapshot.hh"
#include "sim/stats_report.hh"

namespace omega {

class AccessProfiler;
class FaultInjector;
struct FaultPlan;
class IntervalRecorder;
class StatGroup;

/**
 * One vtxProp range, as written into the scratchpad controller's
 * address-monitoring registers (paper Fig 7): base address, primitive
 * size, stride between consecutive vertices' entries.
 */
struct PropSpec
{
    std::uint64_t start_addr = 0;
    std::uint32_t type_size = 8;
    std::uint32_t stride = 8;
    VertexId count = 0;
};

/**
 * Per-run machine configuration produced by the framework/translation
 * layer: monitored vtxProp ranges, active-list placement, and the PISC
 * microcode program for the algorithm's atomic update.
 */
struct MachineConfig
{
    VertexId num_vertices = 0;
    std::vector<PropSpec> props;
    /** Dense active-list bitmap base (1 byte per vertex). */
    std::uint64_t dense_active_base = 0;
    /** Sparse active-list array base (4 bytes per appended id). */
    std::uint64_t sparse_active_base = 0;
    /** Shared sparse-list tail counter address. */
    std::uint64_t sparse_counter_addr = 0;
    /** Microcode program id (translate layer). */
    std::uint16_t microcode_program = 0;
    /** End-to-end latency of one atomic update on a PISC. */
    Cycles microcode_cycles = 4;
    /** Engine occupancy per atomic (pipelined sequencer). */
    Cycles microcode_initiation = 2;
    /** Vertices with id < hot_boundary count as "hot" in the stats. */
    VertexId hot_boundary = 0;
    /** Forward-progress budget per barrier phase; 0 disables the
     *  watchdog (wired from EngineOptions::watchdog_cycles). */
    Cycles watchdog_cycles = 0;
};

/**
 * Abstract machine. All methods are single-threaded: one run's events
 * all enter through the thread driving its engine.
 */
class MemorySystem
{
  public:
    virtual ~MemorySystem() = default;

    /** Install the run configuration (monitor registers + microcode). */
    virtual void configure(const MachineConfig &config) = 0;

    /** Retire @p ops instruction-equivalents on @p core. */
    virtual void compute(unsigned core, std::uint64_t ops) = 0;

    /** Issue a load or store. */
    virtual void memAccess(const MemAccess &access) = 0;

    /**
     * Issue a run of accesses that the caller guarantees are consecutive
     * in simulated order with no intervening machine events.
     * Timing-identical to calling memAccess() per element; the engine
     * does not use it (it delivers through replayOps()).
     */
    virtual void
    memAccessBatch(std::span<const MemAccess> accesses)
    {
        for (const MemAccess &a : accesses)
            memAccess(a);
    }

    /**
     * Replay a run of flattened engine ops for one core (engine_ops.hh),
     * in order: the engine's only delivery path. The engine hands over
     * each parallelFor item's events, in emission order, as one or more
     * runs; consecutive runs of one item have no machine events between
     * them, so splitting a sequence at any point is timing-identical to
     * replaying it whole. The default expands each op into the
     * corresponding per-event virtual call, so wrappers and test doubles
     * observe the same stream; concrete machines override it with a
     * devirtualized loop.
     */
    virtual void
    replayOps(unsigned core, std::span<const EngineOp> ops)
    {
        for (const EngineOp &op : ops) {
            switch (op.kind) {
              case EngineOpKind::Compute:
                compute(core, op.arg);
                break;
              case EngineOpKind::Load:
              case EngineOpKind::Store:
                memAccess(op.toMemAccess(core));
                break;
              case EngineOpKind::SrcProp:
                readSrcProp(core, op.vertex, op.addr, op.arg);
                break;
              case EngineOpKind::Atomic:
                atomicUpdate(op.toAtomicRequest(core));
                break;
            }
        }
    }

    /**
     * Read a source vertex's vtxProp (paper section V.C). OMEGA consults
     * the core's source-vertex buffer; the baseline treats it as a load.
     */
    virtual void readSrcProp(unsigned core, VertexId vertex,
                             std::uint64_t addr, std::uint32_t size) = 0;

    /** Execute/offload an atomic vtxProp update. */
    virtual void atomicUpdate(const AtomicRequest &request) = 0;

    /** Join all cores (end of a parallel-for). */
    virtual void barrier() = 0;

    /** End of an algorithm iteration (invalidates source-vertex buffers). */
    virtual void endIteration() = 0;

    /** Local clock of @p core (engine scheduling + contention order). */
    virtual Cycles coreNow(unsigned core) const = 0;

    /** Global completed time (valid after barrier()). */
    virtual Cycles cycles() const = 0;

    /** Snapshot all counters. */
    virtual StatsReport report() const = 0;

    virtual const MachineParams &params() const = 0;
    virtual std::string name() const = 0;

    /** @name Observability @{ */
    /**
     * Attach an interval recorder (not owned). The machine feeds it a
     * sample whenever a cadence boundary is crossed at a barrier and at
     * every iteration end. Pass nullptr to detach.
     */
    void attachIntervalRecorder(IntervalRecorder *recorder)
    {
        recorder_ = recorder;
    }
    IntervalRecorder *intervalRecorder() const { return recorder_; }

    /**
     * Take a Final interval sample at the current time so the recorder's
     * sum-of-deltas matches the end-of-run report() exactly. No-op when
     * no recorder is attached.
     */
    virtual void recordFinalSample() {}

    /**
     * Root of the machine's StatGroup tree (dotted-path lookup over
     * every component counter), or nullptr if the machine has none.
     */
    virtual const StatGroup *statTree() const { return nullptr; }

    /**
     * Register this machine with the installed trace sink: allocate its
     * process track, name the per-core / per-engine / per-channel thread
     * tracks, and arm component-level event emission. No-op when no sink
     * is installed (or tracing was compiled out).
     */
    virtual void attachTracing() {}

    /** Trace process id of this machine (0 when tracing is detached). */
    virtual int tracePid() const { return 0; }
    /** @} */

    /** @name Fault injection @{ */
    /**
     * Arm a deterministic fault campaign. Default: no faults supported
     * (the plan is ignored). Machines that support injection construct
     * their FaultInjector here; arming resets any previous campaign.
     */
    virtual void armFaults(const FaultPlan &plan) { (void)plan; }

    /** The armed injector, or nullptr when no campaign is armed. */
    virtual const FaultInjector *faultInjector() const { return nullptr; }

    /**
     * Human-readable machine state (per-core clocks, busy-table summary,
     * campaign counters) — the body of watchdog diagnostics.
     */
    virtual std::string debugDump() const { return name() + ": no dump"; }
    /** @} */

    /** @name Access profiling @{ */
    /**
     * Arm memory-access profiling (reuse distance, 3C classification,
     * region/phase attribution — sim/profile.hh). Default: unsupported,
     * no-op. Machines that support it construct their AccessProfiler
     * lazily here; re-arming resets the previous profile in place.
     * Observation only starts once OMEGA_PROFILE is compiled in; arming
     * under a profile-less build leaves every counter at zero.
     */
    virtual void armProfile() {}

    /** The armed profiler, or nullptr when profiling is not armed. */
    virtual AccessProfiler *profiler() { return nullptr; }
    /** @} */

    /** @name Checkpoint/restore @{ */
    /**
     * Serialize every word of mutable machine state — clocks, tile
     * state, the spine (caches, crossbar, DRAM, scratchpads), counters
     * and any armed fault injector. Only meaningful at an iteration
     * boundary (cores drained through a barrier, every replayOps() run
     * delivered). Default: unsupported — a machine that does not override
     * the pair cannot be checkpointed.
     */
    virtual void
    saveState(SnapshotWriter &w) const
    {
        (void)w;
        throw SnapshotStateError("snapshot: machine \"" + name() +
                                 "\" does not support checkpointing");
    }
    /**
     * Inverse of saveState(). The machine must already be configured for
     * the same run (same graph, same params) — configuration is re-derived
     * on resume, only mutable state is restored. Throws SnapshotStateError
     * when the serialized state does not fit this machine.
     */
    virtual void
    restoreState(SnapshotReader &r)
    {
        (void)r;
        throw SnapshotStateError("snapshot: machine \"" + name() +
                                 "\" does not support checkpointing");
    }
    /** @} */

    /** @name Replay statistics @{ */
    /**
     * Fold replay counters into the per-run totals. Called by the engine
     * once per replayOps() run it delivers; lives on the machine so the
     * totals survive across the several Engine instances some
     * algorithms construct (sliced PageRank, BC).
     */
    void
    accumulateReplayStats(const ScriptReplayStats &stats)
    {
        replay_stats_.accumulate(stats);
    }
    const ScriptReplayStats &replayStats() const { return replay_stats_; }
    /** @} */

  protected:
    /** @name Replay-stats snapshot helpers (for saveState overrides). @{ */
    void
    saveReplayStats(SnapshotWriter &w) const
    {
        w.putU64(replay_stats_.merged_items);
        w.putU64(replay_stats_.merged_ops);
    }
    void
    restoreReplayStats(SnapshotReader &r)
    {
        replay_stats_.merged_items = r.getU64();
        replay_stats_.merged_ops = r.getU64();
    }
    /** @} */

    IntervalRecorder *recorder_ = nullptr;
    /** Replay totals (deliberately NOT in the stat tree, whose entry
     *  list is frozen by the pinned golden digests). */
    ScriptReplayStats replay_stats_;
};

} // namespace omega

#endif // OMEGA_SIM_MEMORY_SYSTEM_HH
