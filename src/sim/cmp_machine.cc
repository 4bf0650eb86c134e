/**
 * @file
 * Composed CMP machine implementation.
 */

#include "sim/cmp_machine.hh"

#include <algorithm>
#include <sstream>

#include "util/logging.hh"
#include "util/trace.hh"

namespace omega {

NearMemoryUnit::NearMemoryUnit(const MachineParams &params)
    : controller(params.num_cores, params.sp_chunk_size)
{
    // Distribute the total capacity exactly: the first (total % cores)
    // scratchpads take one extra byte so no capacity is silently dropped
    // when the division truncates. Residency still uses the smallest
    // scratchpad's line count (see configure()) to keep the partition
    // unit's uniform vertex->home mapping valid.
    const std::uint64_t per_core = params.sp_total_bytes / params.num_cores;
    const std::uint64_t remainder =
        params.sp_total_bytes % params.num_cores;
    scratchpads.reserve(params.num_cores);
    svbs.reserve(params.num_cores);
    for (unsigned c = 0; c < params.num_cores; ++c) {
        scratchpads.emplace_back(per_core + (c < remainder ? 1 : 0),
                                 params.sp_latency);
        piscs.emplace_back();
        svbs.emplace_back(params.svb_entries);
    }
}

void
NearMemoryUnit::configure(const MachineConfig &config)
{
    // Scratchpad line: all vtxProp entries of one vertex plus the dense
    // active-list bit (rounded up into one byte).
    std::uint32_t line_bytes = 1;
    for (const auto &p : config.props)
        line_bytes += p.type_size;

    // Uniform interleaving requires every home to hold the same number of
    // lines, so residency is bounded by the smallest scratchpad.
    VertexId lines_per_sp = 0;
    for (std::size_t c = 0; c < scratchpads.size(); ++c) {
        const VertexId lines = scratchpads[c].setLineBytes(line_bytes);
        lines_per_sp = c == 0 ? lines : std::min(lines_per_sp, lines);
    }

    const std::uint64_t total_lines =
        static_cast<std::uint64_t>(lines_per_sp) * scratchpads.size();
    const VertexId resident = static_cast<VertexId>(
        std::min<std::uint64_t>(total_lines, config.num_vertices));
    controller.configure(config.props, resident);

    for (auto &pisc : piscs)
        pisc.loadMicrocode(config.microcode_program,
                           config.microcode_cycles,
                           config.microcode_initiation);
}

CmpMachine::CmpMachine(const MachineParams &params, std::string name,
                       std::unique_ptr<CachePolicy> policy)
    : params_(params), hierarchy_(params), name_(std::move(name)),
      policy_(std::move(policy)), stats_root_(name_)
{
    tiles_.reserve(params.num_cores);
    for (unsigned c = 0; c < params.num_cores; ++c)
        tiles_.emplace_back(params);
    if (params.sp_total_bytes > 0)
        nmu_ = std::make_unique<NearMemoryUnit>(params);
    if (policy_ != nullptr)
        hierarchy_.setLlcPolicy(policy_.get());
    buildStatTree();
}

void
CmpMachine::buildStatTree()
{
    // Component vectors are fully constructed by now; the groups hold raw
    // pointers into them, so this must be the constructor's last act.
    stats_root_.addScalar("cycles", &global_cycles_,
                          "global completed time");
    stats_root_.addScalar("atomics_total", &atomics_total_,
                          "atomic vtxProp updates issued");
    if (nmu_ != nullptr) {
        stats_root_.addScalar("atomics_offloaded", &atomics_offloaded_,
                              "atomics offloaded to PISCs");
        stats_root_.addScalar("atomics_on_core", &atomics_on_core_,
                              "atomics executed on the cores");
        stats_root_.addScalar("sp_local", &sp_local_,
                              "local scratchpad accesses");
        stats_root_.addScalar("sp_remote", &sp_remote_,
                              "remote scratchpad accesses");
    }
    stats_root_.addScalar("vtxprop_accesses", &vtxprop_accesses_,
                          "vtxProp touches");
    stats_root_.addScalar("vtxprop_hot_accesses", &vtxprop_hot_accesses_,
                          "vtxProp touches on hot vertices");
    hierarchy_.addStats(cache_group_);
    stats_root_.addChild(&cache_group_);
    if (nmu_ != nullptr) {
        nmu_->controller.addStats(controller_group_);
        stats_root_.addChild(&controller_group_);
    }
    const auto attach = [this](const std::string &name) -> StatGroup & {
        component_groups_.push_back(std::make_unique<StatGroup>(name));
        stats_root_.addChild(component_groups_.back().get());
        return *component_groups_.back();
    };
    for (std::size_t c = 0; c < tiles_.size(); ++c)
        tiles_[c].core.addStats(attach("core" + std::to_string(c)));
    if (nmu_ != nullptr) {
        for (std::size_t c = 0; c < nmu_->scratchpads.size(); ++c)
            nmu_->scratchpads[c].addStats(attach("sp" + std::to_string(c)));
        for (std::size_t c = 0; c < nmu_->piscs.size(); ++c)
            nmu_->piscs[c].addStats(attach("pisc" + std::to_string(c)));
        for (std::size_t c = 0; c < nmu_->svbs.size(); ++c)
            nmu_->svbs[c].addStats(attach("svb" + std::to_string(c)));
    }
    if (policy_ != nullptr) {
        policy_->addStats(policy_group_);
        stats_root_.addChild(&policy_group_);
    }
}

void
CmpMachine::attachTracing()
{
    trace::TraceSink *s = trace::sink();
    if (s == nullptr)
        return;
    trace_pid_ = s->beginProcess(name());
    for (std::size_t c = 0; c < tiles_.size(); ++c) {
        tiles_[c].core.setTraceIds(trace_pid_, static_cast<int>(c));
        s->nameThread(static_cast<int>(c), "core" + std::to_string(c));
    }
    if (nmu_ != nullptr) {
        for (std::size_t c = 0; c < nmu_->piscs.size(); ++c) {
            s->nameThread(trace::kPiscTidBase + static_cast<int>(c),
                          "pisc" + std::to_string(c));
        }
    }
    hierarchy_.dram().setTracePid(trace_pid_);
    for (unsigned ch = 0; ch < params_.dram_channels; ++ch) {
        s->nameThread(trace::kDramTidBase + static_cast<int>(ch),
                      "dram.ch" + std::to_string(ch));
    }
    s->nameThread(trace::kEngineTid, "engine");
}

void
CmpMachine::takeSample(SampleKind kind)
{
    std::vector<CoreIntervalStats> cores;
    cores.reserve(tiles_.size());
    for (const auto &tile : tiles_) {
        const CoreModel &core = tile.core;
        cores.push_back({core.computeCycles(), core.memStallCycles(),
                         core.atomicStallCycles(), core.syncStallCycles()});
    }
    std::vector<std::uint64_t> pisc_busy;
    std::vector<std::uint64_t> sp_accesses;
    if (nmu_ != nullptr) {
        pisc_busy.reserve(nmu_->piscs.size());
        for (const auto &pisc : nmu_->piscs)
            pisc_busy.push_back(pisc.busyCycles());
        sp_accesses.reserve(nmu_->scratchpads.size());
        for (const auto &sp : nmu_->scratchpads)
            sp_accesses.push_back(sp.accesses());
    }
    recorder_->take(kind, global_cycles_, iteration_, report(),
                    std::move(cores), std::move(pisc_busy),
                    std::move(sp_accesses));
}

void
CmpMachine::configure(const MachineConfig &config)
{
    config_ = config;
    if (nmu_ != nullptr)
        nmu_->configure(config);
    if (policy_ != nullptr)
        policy_->configure(config);
    last_barrier_cycles_ = global_cycles_;
    refreshWatchdog();
    if (profiler_ != nullptr)
        profiler_->configure(config);
}

void
CmpMachine::armFaults(const FaultPlan &plan)
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
    // Crossbar packet faults only strike scratchpad and offload packets
    // (coherence traffic never asks for them), so without the near-memory
    // unit only DRAM channel stalls can fire.
    hierarchy_.dram().setFaultInjector(injector_.get());
    hierarchy_.xbar().setFaultInjector(injector_.get());
    if (nmu_ != nullptr) {
        for (std::size_t c = 0; c < nmu_->piscs.size(); ++c)
            nmu_->piscs[c].setFaultInjector(injector_.get(),
                                            static_cast<unsigned>(c));
    }
    refreshWatchdog();
}

void
CmpMachine::armProfile()
{
    if (profiler_ == nullptr) {
        AccessProfiler::Config cfg;
        cfg.num_cores = params_.num_cores;
        cfg.l1_lines = params_.l1d.lines();
        cfg.llc_lines = params_.l2.lines();
        cfg.llc_sets = hierarchy_.llc().numSets();
        cfg.line_bytes = params_.l2.line_bytes;
        if (nmu_ != nullptr)
            cfg.num_scratchpads =
                static_cast<unsigned>(nmu_->scratchpads.size());
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
CmpMachine::refreshWatchdog()
{
    watchdog_cycles_ = config_.watchdog_cycles != 0
                           ? config_.watchdog_cycles
                           : (injector_ != nullptr
                                  ? injector_->plan().watchdog_cycles
                                  : 0);
}

void
CmpMachine::compute(unsigned core, std::uint64_t ops)
{
    tiles_[core].core.compute(ops);
}

void
CmpMachine::countVertexAccess(VertexId vertex)
{
    ++vtxprop_accesses_;
    if (vertex < config_.hot_boundary)
        ++vtxprop_hot_accesses_;
}

Cycles
CmpMachine::scratchpadAccess(unsigned core, const SpRoute &route,
                             std::uint64_t addr, std::uint32_t bytes,
                             bool write)
{
    Scratchpad &sp = nmu_->scratchpads[route.home];
    if (write)
        sp.recordWrite(bytes);
    else
        sp.recordRead(bytes);
    if (profile::compiledIn() && profiler_ != nullptr)
        profiler_->onScratchpadAccess(addr, bytes, write, route.home);

    if (route.home == core) {
        ++sp_local_;
        Cycles lat = sp.latency();
        if (injector_ != nullptr && !write)
            lat += spFaultPenalty(core, route, lat);
        return lat;
    }
    ++sp_remote_;
    // Word-granularity packets: the request carries the address (and the
    // store payload); the response carries the loaded word (or an ack).
    // With sp_word_granularity disabled (the section-IX "locked cache
    // lines" alternative) whole lines move instead, costing extra flits.
    const std::uint32_t payload =
        params_.sp_word_granularity ? bytes : params_.l2.line_bytes;
    if (write) {
        hierarchy_.xbar().recordTransfer(payload);
        hierarchy_.xbar().recordControl();
    } else {
        hierarchy_.xbar().recordControl();
        hierarchy_.xbar().recordTransfer(payload);
    }
    const Cycles serialization =
        (payload + params_.xbar_header_bytes + params_.xbar_flit_bytes -
         1) / params_.xbar_flit_bytes - 1;
    Cycles lat = sp.latency() + hierarchy_.xbar().roundTrip() +
                 serialization;
    if (injector_ != nullptr) {
        lat += hierarchy_.xbar().faultLatency(tiles_[core].core.now(),
                                              hierarchy_.xbar().roundTrip());
        if (!write)
            lat += spFaultPenalty(core, route, lat);
    }
    return lat;
}

Cycles
CmpMachine::spFaultPenalty(unsigned core, const SpRoute &route,
                           Cycles base_latency)
{
    const Cycles now = tiles_[core].core.now();
    if (!injector_->spEccError(route.home, route.vertex, now))
        return 0;
    // The corrupted word may have been copied into the reader's SVB; drop
    // that entry so recovery re-fetches instead of serving stale data.
    nmu_->svbs[core].invalidate(route.vertex, route.prop);

    const FaultPlan &plan = injector_->plan();
    Cycles penalty = 0;
    bool recovered = false;
    if (plan.retries_enabled) {
        for (unsigned attempt = 0; attempt < plan.max_retries; ++attempt) {
            penalty += base_latency; // each retry repeats the access
            injector_->recordRetry(FaultKind::SpEccError, route.home,
                                   route.vertex, now + penalty);
            if (!injector_->spEccError(route.home, route.vertex,
                                       now + penalty)) {
                recovered = true;
                break;
            }
        }
    }
    const bool persistent = injector_->registerLineError(route.vertex);
    // Retry exhaustion means the line keeps erroring: treat as persistent.
    const bool exhausted = plan.retries_enabled && !recovered;
    if (!persistent && !exhausted) {
        if (recovered)
            return penalty;
        // Retries disabled: serve the read by re-fetching from memory.
        penalty += params_.dram_latency + hierarchy_.xbar().roundTrip();
        injector_->recordRefetch(route.home, route.vertex, now + penalty);
        return penalty;
    }

    // Persistent fault: poison the line so every later access takes the
    // cache path, demote the whole scratchpad once it accumulates enough
    // bad lines, and re-fetch the value from memory.
    nmu_->controller.poisonLine(route.vertex);
    injector_->recordLinePoisoned(route.home, route.vertex, now + penalty);
    if (injector_->registerScratchpadFault(route.home)) {
        nmu_->controller.demoteScratchpad(route.home);
        injector_->recordDemotion(route.home, now + penalty);
    }
    penalty += params_.dram_latency + hierarchy_.xbar().roundTrip();
    injector_->recordRefetch(route.home, route.vertex, now + penalty);
    return penalty;
}

bool
CmpMachine::scratchpadLoadStore(unsigned core, std::uint64_t addr,
                                std::uint32_t size, bool write,
                                bool blocking)
{
    const auto route = nmu_->controller.route(addr, core);
    if (!route)
        return false;
    const Cycles lat = scratchpadAccess(core, *route, addr, size, write);
    tiles_[core].core.issueMemory(lat, blocking);
    return true;
}

inline void
CmpMachine::loadStore(unsigned core, std::uint64_t addr, std::uint32_t size,
                      AccessClass cls, VertexId vertex, bool write,
                      bool blocking, bool sequential)
{
    if (cls == AccessClass::VertexProp) {
        countVertexAccess(vertex);
        if (nmu_ != nullptr &&
            scratchpadLoadStore(core, addr, size, write, blocking))
            return;
    }
    // The cache path. A non-blocking access checks the MSHR window once
    // up front; issueMemoryPrepared() then skips the redundant re-check.
    CoreModel &c = tiles_[core].core;
    if (!blocking)
        c.prepareIssue();
    const Cycles lat = hierarchy_.access(core, addr, write, c.now(),
                                         sequential && params_.stream_prefetch);
    if (blocking)
        c.issueMemory(lat, /*blocking=*/true);
    else
        c.issueMemoryPrepared(lat);
}

void
CmpMachine::memAccess(const MemAccess &access)
{
    loadStore(access.core, access.addr, access.size, access.cls,
              access.vertex, access.op == MemOp::Store, access.blocking,
              access.sequential);
}

void
CmpMachine::replayOps(unsigned core, std::span<const EngineOp> ops)
{
    // One virtual dispatch per run instead of one per event.
    CoreModel &c = tiles_[core].core;
    for (const EngineOp &op : ops) {
        switch (op.kind) {
          case EngineOpKind::Compute:
            c.compute(op.arg);
            break;
          case EngineOpKind::Load:
          case EngineOpKind::Store:
            loadStore(core, op.addr, op.arg, op.cls, op.vertex,
                      op.kind == EngineOpKind::Store,
                      (op.flags & EngineOp::kBlocking) != 0,
                      (op.flags & EngineOp::kSequential) != 0);
            break;
          case EngineOpKind::SrcProp:
            CmpMachine::readSrcProp(core, op.vertex, op.addr, op.arg);
            break;
          case EngineOpKind::Atomic:
            CmpMachine::atomicUpdate(op.toAtomicRequest(core));
            break;
        }
    }
}

bool
CmpMachine::scratchpadSrcProp(unsigned core, VertexId vertex,
                              std::uint64_t addr, std::uint32_t size)
{
    const auto route = nmu_->controller.route(addr, core);
    if (!route)
        return false;
    CoreModel &cm = tiles_[core].core;
    if (route->home == core) {
        // Local scratchpad read; the buffer only caches remote data.
        Scratchpad &sp = nmu_->scratchpads[route->home];
        sp.recordRead(size);
        if (profile::compiledIn() && profiler_ != nullptr)
            profiler_->onScratchpadAccess(addr, size, false, route->home);
        ++sp_local_;
        Cycles lat = sp.latency();
        if (injector_ != nullptr)
            lat += spFaultPenalty(core, *route, lat);
        cm.issueMemory(lat, false);
        return true;
    }
    if (nmu_->svbs[core].lookupAndFill(vertex, route->prop)) {
        cm.issueMemory(1, false); // served from the core-local buffer
        return true;
    }
    cm.issueMemory(scratchpadAccess(core, *route, addr, size, false), false);
    return true;
}

void
CmpMachine::readSrcProp(unsigned core, VertexId vertex, std::uint64_t addr,
                        std::uint32_t size)
{
    countVertexAccess(vertex);
    if (nmu_ != nullptr && scratchpadSrcProp(core, vertex, addr, size))
        return;
    CoreModel &c = tiles_[core].core;
    c.prepareIssue();
    const Cycles lat = hierarchy_.access(core, addr, /*write=*/false,
                                         c.now());
    c.issueMemoryPrepared(lat);
}

void
CmpMachine::coreAtomic(const AtomicRequest &request)
{
    CoreTile &tile = tiles_[request.core];
    CoreModel &core = tile.core;
    ++atomics_on_core_;

    std::optional<SpRoute> route;
    if (nmu_ != nullptr)
        route = nmu_->controller.route(request.addr, request.core);
    if (route) {
        // Scratchpad-resident but no PISC takes it (SP-only ablation, or
        // a degraded offload): the core performs the locked
        // read-modify-write against the scratchpad at word granularity.
        core.prepareIssue(StallKind::Atomic);
        const Cycles rlat =
            scratchpadAccess(request.core, *route, request.addr,
                             request.size, false);
        core.issueMemory(rlat, false, StallKind::Atomic);
        core.serialize(params_.atomic_serialize, StallKind::Atomic);
        const Cycles wlat =
            scratchpadAccess(request.core, *route, request.addr,
                             request.size, true);
        core.issueMemory(wlat, false, StallKind::Atomic);
        if (request.activates_dense) {
            // The dense bit lives in the vertex's scratchpad line.
            const Cycles blat =
                scratchpadAccess(request.core, *route, request.addr, 1,
                                 true);
            core.issueMemory(blat, false);
        }
    } else {
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
        // Active-list maintenance runs on the core (paper section V.B:
        // without a PISC there is nothing to offload it to).
        if (request.activates_dense) {
            loadStore(request.core, config_.dense_active_base + request.vertex,
                      1, AccessClass::ActiveList, 0, /*write=*/true,
                      /*blocking=*/false, /*sequential=*/false);
        }
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
        const std::uint64_t slot =
            tile.sparse_appends++ * params_.num_cores + request.core;
        loadStore(request.core, config_.sparse_active_base + 4 * slot, 4,
                  AccessClass::ActiveList, 0, /*write=*/true,
                  /*blocking=*/false, /*sequential=*/false);
    }
}

std::optional<Cycles>
CmpMachine::resolveOffloadFaults(const AtomicRequest &request,
                                 const SpRoute &route, Cycles arrival)
{
    Pisc &pisc = nmu_->piscs[route.home];
    if (!pisc.offerNack(request.vertex, arrival))
        return arrival;

    const FaultPlan &plan = injector_->plan();
    if (!plan.retries_enabled) {
        // Fire-and-forget with no retry: the update is LOST. Stamp the
        // vertex's busy entry never-retiring so the forward-progress
        // watchdog turns the silent corruption into a diagnosed failure.
        nmu_->controller.markLost(request.vertex);
        injector_->recordLostUpdate(route.home, request.vertex, arrival);
        return std::nullopt;
    }

    // Bounded retry with exponential backoff; every resend repeats the
    // offload packet.
    const bool remote = route.home != request.core;
    Cycles backoff = std::max<Cycles>(plan.retry_backoff, 1);
    for (unsigned attempt = 0; attempt < plan.max_retries; ++attempt) {
        arrival += backoff;
        if (backoff <= kNeverRetire / 2)
            backoff *= 2;
        if (remote) {
            hierarchy_.xbar().recordTransfer(request.operand_bytes + 4);
            arrival += hierarchy_.xbar().oneWay();
        }
        injector_->recordRetry(FaultKind::PiscNack, route.home,
                               request.vertex, arrival);
        if (!pisc.offerNack(request.vertex, arrival))
            return arrival;
        if (watchdog_cycles_ != 0 &&
            arrival - last_barrier_cycles_ > watchdog_cycles_) {
            throw WatchdogError(watchdogReport(
                "offload retry loop exceeded the watchdog budget",
                arrival));
        }
    }

    // Retry budget exhausted: the engine persistently refuses this
    // vertex. Degrade it to the cache path (poison first — coreAtomic
    // re-routes, so the line must already be off the scratchpad path)
    // and execute the atomic on the core.
    nmu_->controller.poisonLine(request.vertex);
    injector_->recordLinePoisoned(route.home, request.vertex, arrival);
    if (injector_->registerScratchpadFault(route.home)) {
        nmu_->controller.demoteScratchpad(route.home);
        injector_->recordDemotion(route.home, arrival);
    }
    injector_->recordDegradedAtomic(route.home, request.vertex, arrival);
    coreAtomic(request);
    return std::nullopt;
}

void
CmpMachine::atomicUpdate(const AtomicRequest &request)
{
    ++atomics_total_;
    countVertexAccess(request.vertex);
    if (nmu_ != nullptr) {
        const auto route = nmu_->controller.route(request.addr, request.core);
        if (route && params_.pisc_enabled) {
            offloadAtomic(request, *route);
            return;
        }
    }
    coreAtomic(request);
}

void
CmpMachine::offloadAtomic(const AtomicRequest &request, const SpRoute &route)
{
    // Fire-and-forget from the core.
    CoreModel &core = tiles_[request.core].core;
    core.busy(params_.pisc_send_cycles);

    Cycles arrival = core.now();
    if (route.home != request.core) {
        // Offload packet: operand word + destination id, single flit.
        hierarchy_.xbar().recordTransfer(request.operand_bytes + 4);
        arrival += hierarchy_.xbar().oneWay();
        arrival += hierarchy_.xbar().faultLatency(
            arrival, hierarchy_.xbar().oneWay());
    }

    if (injector_ != nullptr) {
        const auto resolved = resolveOffloadFaults(request, route, arrival);
        if (!resolved)
            return; // lost or degraded; bookkeeping done inside
        arrival = *resolved;
    }

    ++atomics_offloaded_;
    Pisc &pisc = nmu_->piscs[route.home];
    const Cycles start = nmu_->controller.beginAtomic(
        request.vertex, arrival, pisc.programCycles());
    if (injector_ != nullptr && start == kNeverRetire) {
        // Queued behind a lost update that will never complete: this
        // offload is stuck behind it (and the watchdog will report the
        // vertex at the next barrier).
        injector_->recordLostUpdate(route.home, request.vertex, arrival);
        return;
    }
    const Cycles completion = pisc.execute(start);
    if (trace_pid_ > 0) {
        // Dispatch-to-completion span on the home engine's track: the gap
        // before `start` is same-vertex blocking plus engine queueing.
        const Cycles dispatch = core.now();
        trace::emitComplete("pisc.atomic", "pisc", trace_pid_,
                            trace::kPiscTidBase +
                                static_cast<int>(route.home),
                            dispatch, completion - dispatch, "vertex",
                            request.vertex);
    }
    Scratchpad &sp = nmu_->scratchpads[route.home];
    sp.recordAtomic();
    if (profile::compiledIn() && profiler_ != nullptr) {
        // A PISC atomic is one read-modify-write against the home line.
        profiler_->onScratchpadAccess(request.addr, request.size, true,
                                      route.home);
    }

    // Active-list maintenance is offloaded too (paper section V.B).
    if (request.activates_dense) {
        // Dense bit lives in the scratchpad line the PISC just wrote.
        sp.recordWrite(1);
        if (profile::compiledIn() && profiler_ != nullptr)
            profiler_->onScratchpadAccess(request.addr, 1, true,
                                          route.home);
    }
    if (request.activates_sparse) {
        // The PISC appends the vertex id via the home core's L1 D-cache.
        const std::uint64_t addr =
            config_.sparse_active_base +
            4 * (tiles_[route.home].sparse_appends++ * params_.num_cores +
                 route.home);
        hierarchy_.access(route.home, addr, true, completion);
        pisc.extendBusy(2);
    }
}

void
CmpMachine::barrier()
{
    Cycles t = global_cycles_;
    for (auto &tile : tiles_) {
        tile.core.drain();
        t = std::max(t, tile.core.now());
    }
    if (nmu_ != nullptr) {
        // Offloaded atomics must complete before the next phase reads the
        // updated properties.
        for (const auto &pisc : nmu_->piscs)
            t = std::max(t, pisc.lastCompletion());
    }
    for (auto &tile : tiles_)
        tile.core.syncTo(t);
    global_cycles_ = t;
    // Every core (and PISC) is now at t: busy entries that completed by t
    // can never block a later request, so drop them. Keeps the table
    // bounded by in-flight atomics across long multi-iteration runs.
    if (nmu_ != nullptr)
        nmu_->controller.retireCompleted(t);
    if (watchdog_cycles_ != 0)
        checkForwardProgress(t);
    last_barrier_cycles_ = t;
    if (recorder_ != nullptr && recorder_->cadenceDue(global_cycles_))
        takeSample(SampleKind::Cadence);
}

void
CmpMachine::checkForwardProgress(Cycles now)
{
    // Everything has drained to `now`, so any surviving busy entry can
    // only be a never-retiring lost update: the atomic it models will
    // never complete, and every later same-vertex offload queues behind
    // it forever.
    if (nmu_ != nullptr) {
        const auto stuck = nmu_->controller.stuckVertices(now, 8);
        if (!stuck.empty()) {
            std::ostringstream os;
            os << stuck.size() << (stuck.size() == 8 ? "+" : "")
               << " busy-table entr" << (stuck.size() == 1 ? "y" : "ies")
               << " will never retire (lost fire-and-forget update):";
            for (const VertexId v : stuck)
                os << " v" << v << "@sp" << nmu_->controller.homeOf(v);
            throw WatchdogError(watchdogReport(os.str(), now));
        }
    }
    if (now - last_barrier_cycles_ > watchdog_cycles_) {
        std::ostringstream os;
        os << "barrier phase took " << (now - last_barrier_cycles_)
           << " cycles (budget " << watchdog_cycles_ << ")";
        throw WatchdogError(watchdogReport(os.str(), now));
    }
}

std::string
CmpMachine::watchdogReport(const std::string &reason, Cycles now) const
{
    std::ostringstream os;
    os << "watchdog: " << reason << " [machine " << name() << ", cycle "
       << now << "]\n"
       << debugDump();
    return os.str();
}

void
CmpMachine::saveState(SnapshotWriter &w) const
{
    // Composition first, so a snapshot of a differently composed machine
    // is refused before any of its state is misread.
    w.putBool(nmu_ != nullptr);
    w.putString(policy_ != nullptr ? policy_->policyName() : "");
    w.putU64(global_cycles_);
    w.putU64(iteration_);
    w.putU64(last_barrier_cycles_);
    w.putU64(atomics_total_);
    w.putU64(atomics_offloaded_);
    w.putU64(atomics_on_core_);
    w.putU64(sp_local_);
    w.putU64(sp_remote_);
    w.putU64(vtxprop_accesses_);
    w.putU64(vtxprop_hot_accesses_);
    w.putU64(tiles_.size());
    for (const CoreTile &tile : tiles_) {
        tile.core.save(w);
        w.putU64(tile.sparse_appends);
    }
    hierarchy_.save(w);
    if (nmu_ != nullptr) {
        w.putU64(nmu_->scratchpads.size());
        for (const Scratchpad &sp : nmu_->scratchpads)
            sp.save(w);
        for (const Pisc &pisc : nmu_->piscs)
            pisc.save(w);
        for (const SourceVertexBuffer &svb : nmu_->svbs)
            svb.save(w);
        nmu_->controller.save(w);
    }
    if (policy_ != nullptr)
        policy_->save(w);
    w.putBool(injector_ != nullptr);
    if (injector_ != nullptr)
        injector_->save(w);
    saveReplayStats(w);
}

void
CmpMachine::restoreState(SnapshotReader &r)
{
    const bool has_nmu = r.getBool();
    if (has_nmu != (nmu_ != nullptr)) {
        throw SnapshotStateError(
            std::string("snapshot: near-memory unit (scratchpads + PISCs) ") +
            (has_nmu ? "present in the snapshot but absent on machine \""
                     : "absent in the snapshot but present on machine \"") +
            name_ + "\"");
    }
    const std::string policy = r.getString();
    const std::string own = policy_ != nullptr ? policy_->policyName() : "";
    if (policy != own) {
        throw SnapshotStateError("snapshot: LLC policy \"" + policy +
                                 "\" in the snapshot, \"" + own +
                                 "\" on machine \"" + name_ + "\"");
    }
    global_cycles_ = r.getU64();
    iteration_ = r.getU64();
    last_barrier_cycles_ = r.getU64();
    atomics_total_ = r.getU64();
    atomics_offloaded_ = r.getU64();
    atomics_on_core_ = r.getU64();
    sp_local_ = r.getU64();
    sp_remote_ = r.getU64();
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
    if (nmu_ != nullptr) {
        const std::uint64_t sps = r.getU64();
        if (sps != nmu_->scratchpads.size()) {
            throw SnapshotStateError(
                "snapshot: machine has " + std::to_string(sps) +
                " scratchpads, this machine has " +
                std::to_string(nmu_->scratchpads.size()));
        }
        for (Scratchpad &sp : nmu_->scratchpads)
            sp.restore(r);
        for (Pisc &pisc : nmu_->piscs)
            pisc.restore(r);
        for (SourceVertexBuffer &svb : nmu_->svbs)
            svb.restore(r);
        nmu_->controller.restore(r);
    }
    if (policy_ != nullptr)
        policy_->restore(r);
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
CmpMachine::debugDump() const
{
    std::ostringstream os;
    os << name() << " state @ cycle " << global_cycles_
       << " (iteration " << iteration_ << ", last barrier "
       << last_barrier_cycles_ << ")\n";
    for (std::size_t c = 0; c < tiles_.size(); ++c) {
        os << "  core" << c << ": clock=" << tiles_[c].core.now()
           << " instructions=" << tiles_[c].core.instructions() << "\n";
    }
    if (nmu_ != nullptr) {
        const ScratchpadController &ctl = nmu_->controller;
        for (std::size_t c = 0; c < nmu_->piscs.size(); ++c) {
            const Pisc &pisc = nmu_->piscs[c];
            os << "  pisc" << c << ": ops=" << pisc.ops()
               << " busy_until=" << pisc.busyUntil()
               << " last_completion=" << pisc.lastCompletion() << "\n";
        }
        os << "  busy-table: " << ctl.busyTableSize()
           << " in-flight entries";
        const auto stuck = ctl.stuckVertices(global_cycles_, 8);
        if (!stuck.empty()) {
            os << ", stuck:";
            for (const VertexId v : stuck)
                os << " v" << v << "@sp" << ctl.homeOf(v);
        }
        os << "\n  degradation: " << ctl.poisonedLines()
           << " poisoned lines, " << ctl.demotedScratchpads()
           << " demoted scratchpads\n";
    }
    if (injector_ != nullptr)
        os << "  " << injector_->summary() << "\n";
    return os.str();
}

void
CmpMachine::endIteration()
{
    if (nmu_ != nullptr) {
        for (auto &svb : nmu_->svbs)
            svb.invalidateAll();
        if (trace_pid_ > 0) {
            trace::emitInstant("svb.invalidate_all", "svb", trace_pid_,
                               trace::kEngineTid, global_cycles_,
                               "iteration", iteration_);
        }
    }
    if (profile::compiledIn() && profiler_ != nullptr)
        profiler_->endPhase(global_cycles_);
    ++iteration_;
    if (recorder_ != nullptr)
        takeSample(SampleKind::Iteration);
}

void
CmpMachine::recordFinalSample()
{
    if (recorder_ != nullptr)
        takeSample(SampleKind::Final);
}

Cycles
CmpMachine::coreNow(unsigned core) const
{
    return tiles_[core].core.now();
}

Cycles
CmpMachine::cycles() const
{
    return global_cycles_;
}

StatsReport
CmpMachine::report() const
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
    if (nmu_ != nullptr) {
        for (const auto &sp : nmu_->scratchpads)
            r.sp_accesses += sp.reads() + sp.writes() + sp.atomics();
        for (const auto &pisc : nmu_->piscs) {
            r.pisc_ops += pisc.ops();
            r.pisc_busy_cycles += pisc.busyCycles();
            r.pisc_max_busy_cycles =
                std::max<std::uint64_t>(r.pisc_max_busy_cycles,
                                        pisc.busyCycles());
        }
        for (const auto &svb : nmu_->svbs) {
            r.svb_hits += svb.hits();
            r.svb_misses += svb.misses();
        }
        r.pisc_blocked_conflicts = nmu_->controller.conflicts();
    }
    r.sp_local = sp_local_;
    r.sp_remote = sp_remote_;
    r.atomics_total = atomics_total_;
    r.atomics_offloaded = atomics_offloaded_;
    // Without the near-memory unit every atomic runs on a core, so this
    // equals atomics_total.
    r.atomics_on_core = atomics_on_core_;
    r.vtxprop_accesses = vtxprop_accesses_;
    r.vtxprop_hot_accesses = vtxprop_hot_accesses_;
    return r;
}

} // namespace omega
