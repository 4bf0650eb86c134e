/**
 * @file
 * Baseline machine implementation.
 */

#include "sim/baseline_machine.hh"

#include <algorithm>
#include <sstream>

#include "util/logging.hh"
#include "util/trace.hh"

namespace omega {

BaselineMachine::BaselineMachine(const MachineParams &params)
    : BaselineMachine(params, "baseline")
{
}

BaselineMachine::BaselineMachine(const MachineParams &params,
                                 std::string name)
    : params_(params), hierarchy_(params), name_(std::move(name)),
      stats_root_(name_)
{
    tiles_.reserve(params.num_cores);
    for (unsigned c = 0; c < params.num_cores; ++c)
        tiles_.emplace_back(params);
    buildStatTree();
}

void
BaselineMachine::buildStatTree()
{
    // Component vectors are fully constructed by now; the groups hold raw
    // pointers into them, so this must be the constructor's last act.
    stats_root_.addScalar("cycles", &global_cycles_,
                          "global completed time");
    stats_root_.addScalar("atomics_total", &atomics_total_,
                          "atomic vtxProp updates issued");
    stats_root_.addScalar("vtxprop_accesses", &vtxprop_accesses_,
                          "vtxProp touches");
    stats_root_.addScalar("vtxprop_hot_accesses", &vtxprop_hot_accesses_,
                          "vtxProp touches on hot vertices");
    hierarchy_.addStats(cache_group_);
    stats_root_.addChild(&cache_group_);
    core_groups_.reserve(tiles_.size());
    for (std::size_t c = 0; c < tiles_.size(); ++c) {
        core_groups_.push_back(std::make_unique<StatGroup>(
            "core" + std::to_string(c)));
        tiles_[c].core.addStats(*core_groups_.back());
        stats_root_.addChild(core_groups_.back().get());
    }
}

void
BaselineMachine::attachTracing()
{
    trace::TraceSink *s = trace::sink();
    if (s == nullptr)
        return;
    trace_pid_ = s->beginProcess(name());
    for (std::size_t c = 0; c < tiles_.size(); ++c) {
        tiles_[c].core.setTraceIds(trace_pid_, static_cast<int>(c));
        s->nameThread(static_cast<int>(c), "core" + std::to_string(c));
    }
    hierarchy_.dram().setTracePid(trace_pid_);
    for (unsigned ch = 0; ch < params_.dram_channels; ++ch) {
        s->nameThread(trace::kDramTidBase + static_cast<int>(ch),
                      "dram.ch" + std::to_string(ch));
    }
    s->nameThread(trace::kEngineTid, "engine");
}

std::vector<CoreIntervalStats>
BaselineMachine::coreIntervals() const
{
    std::vector<CoreIntervalStats> out;
    out.reserve(tiles_.size());
    for (const auto &tile : tiles_) {
        const CoreModel &core = tile.core;
        out.push_back({core.computeCycles(), core.memStallCycles(),
                       core.atomicStallCycles(), core.syncStallCycles()});
    }
    return out;
}

void
BaselineMachine::takeSample(SampleKind kind)
{
    recorder_->take(kind, global_cycles_, iteration_, report(),
                    coreIntervals());
}

void
BaselineMachine::configure(const MachineConfig &config)
{
    config_ = config;
    last_barrier_cycles_ = global_cycles_;
    refreshWatchdog();
    if (profiler_ != nullptr)
        profiler_->configure(config);
}

void
BaselineMachine::armFaults(const FaultPlan &plan)
{
    if (injector_ == nullptr) {
        injector_ = std::make_unique<FaultInjector>(plan);
        // Lazy stat registration: the "faults" group only exists on armed
        // runs, so the unarmed stat tree stays byte-identical.
        fault_group_ = std::make_unique<StatGroup>("faults");
        injector_->addStats(*fault_group_);
        stats_root_.addChild(fault_group_.get());
    } else {
        // Re-arm in place: the stat group holds pointers into the
        // injector's counters, so the object's address must not change.
        *injector_ = FaultInjector(plan);
    }
    hierarchy_.dram().setFaultInjector(injector_.get());
    refreshWatchdog();
}

void
BaselineMachine::armProfile()
{
    if (profiler_ == nullptr) {
        AccessProfiler::Config cfg;
        cfg.num_cores = params_.num_cores;
        cfg.l1_lines = params_.l1d.lines();
        cfg.llc_lines = params_.l2.lines();
        cfg.llc_sets = hierarchy_.llc().numSets();
        cfg.line_bytes = params_.l2.line_bytes;
        profiler_ = std::make_unique<AccessProfiler>(cfg);
        // Lazy stat registration, like armFaults(): the "profile" group
        // only exists on armed runs, so the unarmed stat tree — and the
        // pinned golden digests over it — stays byte-identical.
        profile_group_ = std::make_unique<StatGroup>("profile");
        profiler_->attachDramChannels(
            &hierarchy_.dram().channelBusyCycles(),
            &hierarchy_.dram().channelRequests());
        profiler_->addStats(*profile_group_);
        stats_root_.addChild(profile_group_.get());
    } else {
        // Re-arm in place: the stat group holds pointers into the
        // profiler's counters, so the object's address must not change.
        profiler_->reset();
    }
    profiler_->configure(config_);
    hierarchy_.setProfiler(profiler_.get());
}

void
BaselineMachine::refreshWatchdog()
{
    watchdog_cycles_ = config_.watchdog_cycles != 0
                           ? config_.watchdog_cycles
                           : (injector_ != nullptr
                                  ? injector_->plan().watchdog_cycles
                                  : 0);
}

void
BaselineMachine::saveState(SnapshotWriter &w) const
{
    w.putU64(global_cycles_);
    w.putU64(iteration_);
    w.putU64(last_barrier_cycles_);
    w.putU64(atomics_total_);
    w.putU64(vtxprop_accesses_);
    w.putU64(vtxprop_hot_accesses_);
    w.putU64(tiles_.size());
    for (const CoreTile &tile : tiles_) {
        tile.core.save(w);
        w.putU64(tile.sparse_appends);
    }
    hierarchy_.save(w);
    w.putBool(injector_ != nullptr);
    if (injector_ != nullptr)
        injector_->save(w);
    saveReplayStats(w);
}

void
BaselineMachine::restoreState(SnapshotReader &r)
{
    global_cycles_ = r.getU64();
    iteration_ = r.getU64();
    last_barrier_cycles_ = r.getU64();
    atomics_total_ = r.getU64();
    vtxprop_accesses_ = r.getU64();
    vtxprop_hot_accesses_ = r.getU64();
    const std::uint64_t tiles = r.getU64();
    if (tiles != tiles_.size()) {
        throw SnapshotStateError(
            "snapshot: machine has " + std::to_string(tiles) +
            " tiles, this machine has " + std::to_string(tiles_.size()));
    }
    for (CoreTile &tile : tiles_) {
        tile.core.restore(r);
        tile.sparse_appends = r.getU64();
    }
    hierarchy_.restore(r);
    const bool armed = r.getBool();
    if (armed != (injector_ != nullptr)) {
        throw SnapshotStateError(
            armed ? "snapshot: fault campaign armed in the snapshot but "
                    "not on this machine"
                  : "snapshot: no fault campaign in the snapshot but one "
                    "is armed on this machine");
    }
    if (injector_ != nullptr)
        injector_->restore(r);
    restoreReplayStats(r);
}

std::string
BaselineMachine::debugDump() const
{
    std::ostringstream os;
    os << name() << " state @ cycle " << global_cycles_
       << " (iteration " << iteration_ << ", last barrier "
       << last_barrier_cycles_ << ")\n";
    for (std::size_t c = 0; c < tiles_.size(); ++c) {
        os << "  core" << c << ": clock=" << tiles_[c].core.now()
           << " instructions=" << tiles_[c].core.instructions() << "\n";
    }
    if (injector_ != nullptr)
        os << "  " << injector_->summary() << "\n";
    return os.str();
}

void
BaselineMachine::compute(unsigned core, std::uint64_t ops)
{
    tiles_[core].core.compute(ops);
}

void
BaselineMachine::countVertexAccess(VertexId vertex)
{
    ++vtxprop_accesses_;
    if (vertex < config_.hot_boundary)
        ++vtxprop_hot_accesses_;
}

void
BaselineMachine::memAccess(const MemAccess &access)
{
    CoreModel &core = tiles_[access.core].core;
    if (access.cls == AccessClass::VertexProp)
        countVertexAccess(access.vertex);
    if (!access.blocking)
        core.prepareIssue();
    const bool prefetched =
        access.sequential && params_.stream_prefetch;
    const Cycles lat =
        hierarchy_.access(access.core, access.addr,
                          access.op == MemOp::Store, core.now(),
                          prefetched);
    core.issueMemory(lat, access.blocking);
}

void
BaselineMachine::replayOps(unsigned core, std::span<const EngineOp> ops)
{
    // The scripted hot path: one virtual dispatch per task instead of
    // one per event. Load/Store/SrcProp are memAccess() with the
    // dispatch peeled off and the window re-check skipped
    // (issueMemoryPrepared); Atomic falls through to the full method.
    // GraspMachine inherits this loop unchanged — it only overrides
    // configure().
    CoreModel &c = tiles_[core].core;
    for (const EngineOp &op : ops) {
        switch (op.kind) {
          case EngineOpKind::Compute:
            c.compute(op.arg);
            break;
          case EngineOpKind::Load:
          case EngineOpKind::Store: {
            if (op.cls == AccessClass::VertexProp)
                countVertexAccess(op.vertex);
            const bool blocking = (op.flags & EngineOp::kBlocking) != 0;
            if (!blocking)
                c.prepareIssue();
            const bool prefetched = (op.flags & EngineOp::kSequential) &&
                                    params_.stream_prefetch;
            const Cycles lat = hierarchy_.access(
                core, op.addr, op.kind == EngineOpKind::Store, c.now(),
                prefetched);
            if (blocking)
                c.issueMemory(lat, /*blocking=*/true);
            else
                c.issueMemoryPrepared(lat);
            break;
          }
          case EngineOpKind::SrcProp: {
            countVertexAccess(op.vertex);
            c.prepareIssue();
            const Cycles lat =
                hierarchy_.access(core, op.addr, /*write=*/false, c.now());
            c.issueMemoryPrepared(lat);
            break;
          }
          case EngineOpKind::Atomic:
            BaselineMachine::atomicUpdate(op.toAtomicRequest(core));
            break;
        }
    }
}

void
BaselineMachine::readSrcProp(unsigned core, VertexId vertex,
                             std::uint64_t addr, std::uint32_t size)
{
    MemAccess a;
    a.core = core;
    a.op = MemOp::Load;
    a.addr = addr;
    a.size = size;
    a.cls = AccessClass::VertexProp;
    a.vertex = vertex;
    a.blocking = false;
    memAccess(a);
}

void
BaselineMachine::atomicUpdate(const AtomicRequest &request)
{
    CoreTile &tile = tiles_[request.core];
    CoreModel &core = tile.core;
    ++atomics_total_;
    countVertexAccess(request.vertex);

    // Acquire the destination line in Modified state.
    core.prepareIssue(params_.atomics_as_plain ? StallKind::Memory
                                               : StallKind::Atomic);
    const Cycles lat = hierarchy_.access(request.core, request.addr,
                                         /*write=*/true, core.now());
    if (params_.atomics_as_plain) {
        // Ablation: the same data movement, but no locked execution.
        core.issueMemory(lat, /*blocking=*/false);
        core.compute(2);
    } else {
        core.issueMemory(lat, /*blocking=*/false, StallKind::Atomic);
        core.serialize(params_.atomic_serialize, StallKind::Atomic);
    }

    // Active-list maintenance runs on the core (paper section V.B: on the
    // baseline there is no PISC to offload it to).
    if (request.activates_dense) {
        MemAccess a;
        a.core = request.core;
        a.op = MemOp::Store;
        a.addr = config_.dense_active_base + request.vertex;
        a.size = 1;
        a.cls = AccessClass::ActiveList;
        a.blocking = false;
        memAccess(a);
    }
    if (request.activates_sparse) {
        // fetch_add on the shared tail counter, then the append store.
        core.prepareIssue(params_.atomics_as_plain ? StallKind::Memory
                                                   : StallKind::Atomic);
        const Cycles clat = hierarchy_.access(
            request.core, config_.sparse_counter_addr, true, core.now());
        if (params_.atomics_as_plain) {
            core.issueMemory(clat, false);
        } else {
            core.issueMemory(clat, false, StallKind::Atomic);
            core.serialize(params_.atomic_serialize, StallKind::Atomic);
        }
        MemAccess a;
        a.core = request.core;
        a.op = MemOp::Store;
        a.addr = config_.sparse_active_base +
                 4 * (tile.sparse_appends++ * params_.num_cores +
                      request.core);
        a.size = 4;
        a.cls = AccessClass::ActiveList;
        a.blocking = false;
        memAccess(a);
    }
}

void
BaselineMachine::barrier()
{
    Cycles t = global_cycles_;
    for (auto &tile : tiles_) {
        tile.core.drain();
        t = std::max(t, tile.core.now());
    }
    for (auto &tile : tiles_)
        tile.core.syncTo(t);
    global_cycles_ = t;
    if (watchdog_cycles_ != 0 &&
        t - last_barrier_cycles_ > watchdog_cycles_) {
        std::ostringstream os;
        os << "watchdog: barrier phase took " << (t - last_barrier_cycles_)
           << " cycles (budget " << watchdog_cycles_ << ") [machine "
           << name() << ", cycle " << t << "]\n"
           << debugDump();
        throw WatchdogError(os.str());
    }
    last_barrier_cycles_ = t;
    if (recorder_ != nullptr && recorder_->cadenceDue(global_cycles_))
        takeSample(SampleKind::Cadence);
}

void
BaselineMachine::endIteration()
{
    // Nothing to invalidate on the baseline.
    if (profile::compiledIn() && profiler_ != nullptr)
        profiler_->endPhase(global_cycles_);
    ++iteration_;
    if (recorder_ != nullptr)
        takeSample(SampleKind::Iteration);
}

void
BaselineMachine::recordFinalSample()
{
    if (recorder_ != nullptr)
        takeSample(SampleKind::Final);
}

Cycles
BaselineMachine::coreNow(unsigned core) const
{
    return tiles_[core].core.now();
}

Cycles
BaselineMachine::cycles() const
{
    return global_cycles_;
}

StatsReport
BaselineMachine::report() const
{
    StatsReport r;
    r.cycles = global_cycles_;
    hierarchy_.collect(r);
    for (const auto &tile : tiles_) {
        const CoreModel &core = tile.core;
        r.instructions += core.instructions();
        r.compute_cycles += core.computeCycles();
        r.mem_stall_cycles += core.memStallCycles();
        r.atomic_stall_cycles += core.atomicStallCycles();
        r.sync_stall_cycles += core.syncStallCycles();
    }
    r.atomics_total = atomics_total_;
    r.atomics_on_core = atomics_total_;
    r.vtxprop_accesses = vtxprop_accesses_;
    r.vtxprop_hot_accesses = vtxprop_hot_accesses_;
    return r;
}

} // namespace omega
