/**
 * @file
 * Forwarding MemorySystem that times and counts every call the engine
 * makes across the engine -> machine boundary.
 *
 * The traced benchmark pass wraps a registry machine in this proxy and
 * hands the proxy to the algorithm. Every call is forwarded unchanged to
 * the wrapped machine, so simulated results are identical with and
 * without it (perfbench_selftest checks this across the registry); the
 * proxy only adds host-side clock reads around the forwarded calls.
 *
 * Calls fall into three timed buckets:
 *  - replay:  replayOps() and memAccessBatch(), the batched delivery
 *             paths (one call carries many ops);
 *  - event:   the per-event compute(), memAccess(), readSrcProp() and
 *             atomicUpdate() calls (one op each);
 *  - barrier: barrier() and endIteration().
 * Everything else the engine does between those calls is engine self
 * time: total algorithm wall time minus the three buckets.
 *
 * Limits: accumulateReplayStats() and attachIntervalRecorder() are
 * non-virtual on MemorySystem, so replay statistics accumulate on the
 * proxy and interval recorders must be attached to the wrapped machine
 * directly. The benchmark uses the proxy only on plain runs for that
 * reason.
 */

#ifndef OMEGA_PERFBENCH_TIMING_PROXY_HH
#define OMEGA_PERFBENCH_TIMING_PROXY_HH

#include <chrono>
#include <cstdint>

#include "sim/memory_system.hh"

namespace omega::perfbench {

/** Host time and call counts of one run, split at the machine boundary. */
struct BoundaryTimes
{
    double replay_s = 0.0;
    double event_s = 0.0;
    double barrier_s = 0.0;
    /** replayOps + memAccessBatch calls. */
    std::uint64_t replay_calls = 0;
    /** Per-event calls (one op each). */
    std::uint64_t event_calls = 0;
    /** Ops delivered: span sizes of batched calls plus one per event. */
    std::uint64_t ops = 0;
    /** barrier() calls (endIteration() time also lands in barrier_s). */
    std::uint64_t barriers = 0;

    double machineSeconds() const { return replay_s + event_s + barrier_s; }
    std::uint64_t calls() const { return replay_calls + event_calls; }

    void
    accumulate(const BoundaryTimes &o)
    {
        replay_s += o.replay_s;
        event_s += o.event_s;
        barrier_s += o.barrier_s;
        replay_calls += o.replay_calls;
        event_calls += o.event_calls;
        ops += o.ops;
        barriers += o.barriers;
    }
};

class TimingProxy final : public MemorySystem
{
  public:
    /** Wrap @p inner (not owned; must outlive the proxy). */
    explicit TimingProxy(MemorySystem &inner) : inner_(inner) {}

    const BoundaryTimes &times() const { return times_; }

    void configure(const MachineConfig &config) override
    {
        inner_.configure(config);
    }

    void
    compute(unsigned core, std::uint64_t ops) override
    {
        const auto t0 = Clock::now();
        inner_.compute(core, ops);
        event(t0);
    }

    void
    memAccess(const MemAccess &access) override
    {
        const auto t0 = Clock::now();
        inner_.memAccess(access);
        event(t0);
    }

    void
    memAccessBatch(std::span<const MemAccess> accesses) override
    {
        const auto t0 = Clock::now();
        inner_.memAccessBatch(accesses);
        replay(t0, accesses.size());
    }

    void
    replayOps(unsigned core, std::span<const EngineOp> ops) override
    {
        const auto t0 = Clock::now();
        inner_.replayOps(core, ops);
        replay(t0, ops.size());
    }

    void
    readSrcProp(unsigned core, VertexId vertex, std::uint64_t addr,
                std::uint32_t size) override
    {
        const auto t0 = Clock::now();
        inner_.readSrcProp(core, vertex, addr, size);
        event(t0);
    }

    void
    atomicUpdate(const AtomicRequest &request) override
    {
        const auto t0 = Clock::now();
        inner_.atomicUpdate(request);
        event(t0);
    }

    void
    barrier() override
    {
        const auto t0 = Clock::now();
        inner_.barrier();
        times_.barrier_s += since(t0);
        ++times_.barriers;
    }

    void
    endIteration() override
    {
        const auto t0 = Clock::now();
        inner_.endIteration();
        times_.barrier_s += since(t0);
    }

    Cycles coreNow(unsigned core) const override
    {
        return inner_.coreNow(core);
    }
    Cycles cycles() const override { return inner_.cycles(); }
    StatsReport report() const override { return inner_.report(); }
    const MachineParams &params() const override { return inner_.params(); }
    std::string name() const override { return inner_.name(); }

    void recordFinalSample() override { inner_.recordFinalSample(); }
    const StatGroup *statTree() const override { return inner_.statTree(); }
    void attachTracing() override { inner_.attachTracing(); }
    int tracePid() const override { return inner_.tracePid(); }
    void armFaults(const FaultPlan &plan) override { inner_.armFaults(plan); }
    const FaultInjector *faultInjector() const override
    {
        return inner_.faultInjector();
    }
    std::string debugDump() const override { return inner_.debugDump(); }
    void armProfile() override { inner_.armProfile(); }
    AccessProfiler *profiler() override { return inner_.profiler(); }
    void saveState(SnapshotWriter &w) const override { inner_.saveState(w); }
    void restoreState(SnapshotReader &r) override { inner_.restoreState(r); }

  private:
    using Clock = std::chrono::steady_clock;

    static double
    since(Clock::time_point t0)
    {
        return std::chrono::duration<double>(Clock::now() - t0).count();
    }

    void
    event(Clock::time_point t0)
    {
        times_.event_s += since(t0);
        ++times_.event_calls;
        ++times_.ops;
    }

    void
    replay(Clock::time_point t0, std::size_t n)
    {
        times_.replay_s += since(t0);
        ++times_.replay_calls;
        times_.ops += n;
    }

    MemorySystem &inner_;
    BoundaryTimes times_;
};

} // namespace omega::perfbench

#endif // OMEGA_PERFBENCH_TIMING_PROXY_HH
