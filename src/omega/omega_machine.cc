/**
 * @file
 * OMEGA machine implementation.
 */

#include "omega/omega_machine.hh"

#include <algorithm>
#include <sstream>

#include "util/logging.hh"
#include "util/trace.hh"

namespace omega {

OmegaMachine::OmegaMachine(const MachineParams &params)
    : params_(params),
      hierarchy_(params),
      controller_(params.num_cores, params.sp_chunk_size)
{
    omega_assert(params.sp_total_bytes > 0,
                 "OmegaMachine needs scratchpad capacity; use "
                 "MachineParams::omega()");
    // Distribute the total capacity exactly: the first (total % cores)
    // scratchpads take one extra byte so no capacity is silently dropped
    // when the division truncates. Residency still uses the smallest
    // scratchpad's line count (see configure()) to keep the partition
    // unit's uniform vertex->home mapping valid.
    const std::uint64_t per_core = params.sp_total_bytes / params.num_cores;
    const std::uint64_t remainder =
        params.sp_total_bytes % params.num_cores;
    tiles_.reserve(params.num_cores);
    for (unsigned c = 0; c < params.num_cores; ++c) {
        tiles_.emplace_back(params, params.svb_entries);
        scratchpads_.emplace_back(per_core + (c < remainder ? 1 : 0),
                                  params.sp_latency);
        piscs_.emplace_back();
    }
    buildStatTree();
}

void
OmegaMachine::buildStatTree()
{
    // Component vectors are fully constructed by now; the groups hold raw
    // pointers into them, so this must be the constructor's last act.
    stats_root_.addScalar("cycles", &global_cycles_,
                          "global completed time");
    stats_root_.addScalar("atomics_total", &atomics_total_,
                          "atomic vtxProp updates issued");
    stats_root_.addScalar("atomics_offloaded", &atomics_offloaded_,
                          "atomics offloaded to PISCs");
    stats_root_.addScalar("atomics_on_core", &atomics_on_core_,
                          "atomics executed on the cores");
    stats_root_.addScalar("sp_local", &sp_local_,
                          "local scratchpad accesses");
    stats_root_.addScalar("sp_remote", &sp_remote_,
                          "remote scratchpad accesses");
    stats_root_.addScalar("vtxprop_accesses", &vtxprop_accesses_,
                          "vtxProp touches");
    stats_root_.addScalar("vtxprop_hot_accesses", &vtxprop_hot_accesses_,
                          "vtxProp touches on hot vertices");
    hierarchy_.addStats(cache_group_);
    stats_root_.addChild(&cache_group_);
    controller_.addStats(controller_group_);
    stats_root_.addChild(&controller_group_);
    component_groups_.reserve(4 * tiles_.size());
    const auto attach = [this](const std::string &name) -> StatGroup & {
        component_groups_.push_back(std::make_unique<StatGroup>(name));
        stats_root_.addChild(component_groups_.back().get());
        return *component_groups_.back();
    };
    for (std::size_t c = 0; c < tiles_.size(); ++c)
        tiles_[c].core.addStats(attach("core" + std::to_string(c)));
    for (std::size_t c = 0; c < scratchpads_.size(); ++c)
        scratchpads_[c].addStats(attach("sp" + std::to_string(c)));
    for (std::size_t c = 0; c < piscs_.size(); ++c)
        piscs_[c].addStats(attach("pisc" + std::to_string(c)));
    for (std::size_t c = 0; c < tiles_.size(); ++c)
        tiles_[c].svb.addStats(attach("svb" + std::to_string(c)));
}

void
OmegaMachine::attachTracing()
{
    trace::TraceSink *s = trace::sink();
    if (s == nullptr)
        return;
    trace_pid_ = s->beginProcess(name());
    for (std::size_t c = 0; c < tiles_.size(); ++c) {
        tiles_[c].core.setTraceIds(trace_pid_, static_cast<int>(c));
        s->nameThread(static_cast<int>(c), "core" + std::to_string(c));
    }
    for (std::size_t c = 0; c < piscs_.size(); ++c) {
        s->nameThread(trace::kPiscTidBase + static_cast<int>(c),
                      "pisc" + std::to_string(c));
    }
    hierarchy_.dram().setTracePid(trace_pid_);
    for (unsigned ch = 0; ch < params_.dram_channels; ++ch) {
        s->nameThread(trace::kDramTidBase + static_cast<int>(ch),
                      "dram.ch" + std::to_string(ch));
    }
    s->nameThread(trace::kEngineTid, "engine");
}

std::vector<CoreIntervalStats>
OmegaMachine::coreIntervals() const
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
OmegaMachine::takeSample(SampleKind kind)
{
    std::vector<std::uint64_t> pisc_busy;
    pisc_busy.reserve(piscs_.size());
    for (const auto &pisc : piscs_)
        pisc_busy.push_back(pisc.busyCycles());
    std::vector<std::uint64_t> sp_accesses;
    sp_accesses.reserve(scratchpads_.size());
    for (const auto &sp : scratchpads_)
        sp_accesses.push_back(sp.accesses());
    recorder_->take(kind, global_cycles_, iteration_, report(),
                    coreIntervals(), std::move(pisc_busy),
                    std::move(sp_accesses));
}

void
OmegaMachine::configure(const MachineConfig &config)
{
    config_ = config;

    // Scratchpad line: all vtxProp entries of one vertex plus the dense
    // active-list bit (rounded up into one byte).
    std::uint32_t line_bytes = 1;
    for (const auto &p : config.props)
        line_bytes += p.type_size;

    // Uniform interleaving requires every home to hold the same number of
    // lines, so residency is bounded by the smallest scratchpad.
    VertexId lines_per_sp = 0;
    for (std::size_t c = 0; c < scratchpads_.size(); ++c) {
        const VertexId lines = scratchpads_[c].setLineBytes(line_bytes);
        lines_per_sp = c == 0 ? lines : std::min(lines_per_sp, lines);
    }

    const std::uint64_t total_lines =
        static_cast<std::uint64_t>(lines_per_sp) * params_.num_cores;
    const VertexId resident = static_cast<VertexId>(
        std::min<std::uint64_t>(total_lines, config.num_vertices));
    controller_.configure(config.props, resident);

    for (auto &pisc : piscs_)
        pisc.loadMicrocode(config.microcode_program,
                           config.microcode_cycles,
                           config.microcode_initiation);

    last_barrier_cycles_ = global_cycles_;
    refreshWatchdog();
    if (profiler_ != nullptr)
        profiler_->configure(config);
}

void
OmegaMachine::armFaults(const FaultPlan &plan)
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
    hierarchy_.xbar().setFaultInjector(injector_.get());
    for (std::size_t c = 0; c < piscs_.size(); ++c)
        piscs_[c].setFaultInjector(injector_.get(),
                                   static_cast<unsigned>(c));
    refreshWatchdog();
}

void
OmegaMachine::armProfile()
{
    if (profiler_ == nullptr) {
        AccessProfiler::Config cfg;
        cfg.num_cores = params_.num_cores;
        cfg.l1_lines = params_.l1d.lines();
        cfg.llc_lines = params_.l2.lines();
        cfg.llc_sets = hierarchy_.llc().numSets();
        cfg.line_bytes = params_.l2.line_bytes;
        cfg.num_scratchpads = static_cast<unsigned>(scratchpads_.size());
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
OmegaMachine::refreshWatchdog()
{
    watchdog_cycles_ = config_.watchdog_cycles != 0
                           ? config_.watchdog_cycles
                           : (injector_ != nullptr
                                  ? injector_->plan().watchdog_cycles
                                  : 0);
}

void
OmegaMachine::compute(unsigned core, std::uint64_t ops)
{
    tiles_[core].core.compute(ops);
}

void
OmegaMachine::countVertexAccess(VertexId vertex)
{
    ++vtxprop_accesses_;
    if (vertex < config_.hot_boundary)
        ++vtxprop_hot_accesses_;
}

Cycles
OmegaMachine::scratchpadAccess(unsigned core, const SpRoute &route,
                               std::uint64_t addr, std::uint32_t bytes,
                               bool write)
{
    Scratchpad &sp = scratchpads_[route.home];
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
OmegaMachine::spFaultPenalty(unsigned core, const SpRoute &route,
                             Cycles base_latency)
{
    const Cycles now = tiles_[core].core.now();
    if (!injector_->spEccError(route.home, route.vertex, now))
        return 0;
    // The corrupted word may have been copied into the reader's SVB; drop
    // that entry so recovery re-fetches instead of serving stale data.
    tiles_[core].svb.invalidate(route.vertex, route.prop);

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
    controller_.poisonLine(route.vertex);
    injector_->recordLinePoisoned(route.home, route.vertex, now + penalty);
    if (injector_->registerScratchpadFault(route.home)) {
        controller_.demoteScratchpad(route.home);
        injector_->recordDemotion(route.home, now + penalty);
    }
    penalty += params_.dram_latency + hierarchy_.xbar().roundTrip();
    injector_->recordRefetch(route.home, route.vertex, now + penalty);
    return penalty;
}

void
OmegaMachine::cacheAccess(const MemAccess &access)
{
    CoreModel &core = tiles_[access.core].core;
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
OmegaMachine::memAccess(const MemAccess &access)
{
    if (access.cls == AccessClass::VertexProp) {
        countVertexAccess(access.vertex);
        if (auto route = controller_.route(access.addr, access.core)) {
            CoreModel &core = tiles_[access.core].core;
            const Cycles lat =
                scratchpadAccess(access.core, *route, access.addr,
                                 access.size, access.op == MemOp::Store);
            core.issueMemory(lat, access.blocking);
            return;
        }
    }
    cacheAccess(access);
}

void
OmegaMachine::readSrcProp(unsigned core, VertexId vertex,
                          std::uint64_t addr, std::uint32_t size)
{
    countVertexAccess(vertex);
    if (auto route = controller_.route(addr, core)) {
        CoreModel &cm = tiles_[core].core;
        if (route->home == core) {
            // Local scratchpad read; the buffer only caches remote data.
            scratchpads_[route->home].recordRead(size);
            if (profile::compiledIn() && profiler_ != nullptr)
                profiler_->onScratchpadAccess(addr, size, false,
                                              route->home);
            ++sp_local_;
            Cycles lat = scratchpads_[route->home].latency();
            if (injector_ != nullptr)
                lat += spFaultPenalty(core, *route, lat);
            cm.issueMemory(lat, false);
            return;
        }
        if (tiles_[core].svb.lookupAndFill(vertex, route->prop)) {
            cm.issueMemory(1, false); // served from the core-local buffer
            return;
        }
        const Cycles lat = scratchpadAccess(core, *route, addr, size,
                                            false);
        cm.issueMemory(lat, false);
        return;
    }
    MemAccess a;
    a.core = core;
    a.op = MemOp::Load;
    a.addr = addr;
    a.size = size;
    a.cls = AccessClass::VertexProp;
    a.vertex = vertex;
    a.blocking = false;
    cacheAccess(a);
}

void
OmegaMachine::coreAtomic(const AtomicRequest &request)
{
    CoreTile &tile = tiles_[request.core];
    CoreModel &core = tile.core;
    ++atomics_on_core_;

    if (auto route = controller_.route(request.addr, request.core)) {
        // Scratchpad-resident but no PISC (SP-only ablation): the core
        // performs the locked read-modify-write against the scratchpad at
        // word granularity.
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
        core.prepareIssue(params_.atomics_as_plain ? StallKind::Memory
                                                   : StallKind::Atomic);
        const Cycles lat = hierarchy_.access(request.core, request.addr,
                                             true, core.now());
        if (params_.atomics_as_plain) {
            core.issueMemory(lat, false);
            core.compute(2);
        } else {
            core.issueMemory(lat, false, StallKind::Atomic);
            core.serialize(params_.atomic_serialize, StallKind::Atomic);
        }
        if (request.activates_dense) {
            MemAccess a;
            a.core = request.core;
            a.op = MemOp::Store;
            a.addr = config_.dense_active_base + request.vertex;
            a.size = 1;
            a.cls = AccessClass::ActiveList;
            cacheAccess(a);
        }
    }

    if (request.activates_sparse) {
        core.prepareIssue(StallKind::Atomic);
        const Cycles clat = hierarchy_.access(
            request.core, config_.sparse_counter_addr, true, core.now());
        core.issueMemory(clat, false, StallKind::Atomic);
        if (!params_.atomics_as_plain)
            core.serialize(params_.atomic_serialize, StallKind::Atomic);
        MemAccess a;
        a.core = request.core;
        a.op = MemOp::Store;
        a.addr = config_.sparse_active_base +
                 4 * (tile.sparse_appends++ * params_.num_cores +
                      request.core);
        a.size = 4;
        a.cls = AccessClass::ActiveList;
        cacheAccess(a);
    }
}

std::optional<Cycles>
OmegaMachine::resolveOffloadFaults(const AtomicRequest &request,
                                   const SpRoute &route, Cycles arrival)
{
    Pisc &pisc = piscs_[route.home];
    if (!pisc.offerNack(request.vertex, arrival))
        return arrival;

    const FaultPlan &plan = injector_->plan();
    if (!plan.retries_enabled) {
        // Fire-and-forget with no retry: the update is LOST. Stamp the
        // vertex's busy entry never-retiring so the forward-progress
        // watchdog turns the silent corruption into a diagnosed failure.
        controller_.markLost(request.vertex);
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
    controller_.poisonLine(request.vertex);
    injector_->recordLinePoisoned(route.home, request.vertex, arrival);
    if (injector_->registerScratchpadFault(route.home)) {
        controller_.demoteScratchpad(route.home);
        injector_->recordDemotion(route.home, arrival);
    }
    injector_->recordDegradedAtomic(route.home, request.vertex, arrival);
    coreAtomic(request);
    return std::nullopt;
}

void
OmegaMachine::atomicUpdate(const AtomicRequest &request)
{
    ++atomics_total_;
    countVertexAccess(request.vertex);

    auto route = controller_.route(request.addr, request.core);
    if (!route || !params_.pisc_enabled) {
        coreAtomic(request);
        return;
    }

    // Offload to the home PISC: fire-and-forget from the core.
    CoreModel &core = tiles_[request.core].core;
    core.busy(params_.pisc_send_cycles);

    Cycles arrival = core.now();
    if (route->home != request.core) {
        // Offload packet: operand word + destination id, single flit.
        hierarchy_.xbar().recordTransfer(request.operand_bytes + 4);
        arrival += hierarchy_.xbar().oneWay();
        arrival += hierarchy_.xbar().faultLatency(
            arrival, hierarchy_.xbar().oneWay());
    }

    if (injector_ != nullptr) {
        const auto resolved = resolveOffloadFaults(request, *route,
                                                   arrival);
        if (!resolved)
            return; // lost or degraded; bookkeeping done inside
        arrival = *resolved;
    }

    ++atomics_offloaded_;
    Pisc &pisc = piscs_[route->home];
    const Cycles start = controller_.beginAtomic(
        request.vertex, arrival, pisc.programCycles());
    if (injector_ != nullptr && start == kNeverRetire) {
        // Queued behind a lost update that will never complete: this
        // offload is stuck behind it (and the watchdog will report the
        // vertex at the next barrier).
        injector_->recordLostUpdate(route->home, request.vertex, arrival);
        return;
    }
    const Cycles completion = pisc.execute(start);
    if (trace_pid_ > 0) {
        // Dispatch-to-completion span on the home engine's track: the gap
        // before `start` is same-vertex blocking plus engine queueing.
        const Cycles dispatch = core.now();
        trace::emitComplete("pisc.atomic", "pisc", trace_pid_,
                            trace::kPiscTidBase +
                                static_cast<int>(route->home),
                            dispatch, completion - dispatch, "vertex",
                            request.vertex);
    }
    scratchpads_[route->home].recordAtomic();
    if (profile::compiledIn() && profiler_ != nullptr) {
        // A PISC atomic is one read-modify-write against the home line.
        profiler_->onScratchpadAccess(request.addr, request.size, true,
                                      route->home);
    }

    // Active-list maintenance is offloaded too (paper section V.B).
    if (request.activates_dense) {
        // Dense bit lives in the scratchpad line the PISC just wrote.
        scratchpads_[route->home].recordWrite(1);
        if (profile::compiledIn() && profiler_ != nullptr)
            profiler_->onScratchpadAccess(request.addr, 1, true,
                                          route->home);
    }
    if (request.activates_sparse) {
        // The PISC appends the vertex id via the home core's L1 D-cache.
        const std::uint64_t addr =
            config_.sparse_active_base +
            4 * (tiles_[route->home].sparse_appends++ *
                     params_.num_cores +
                 route->home);
        hierarchy_.access(route->home, addr, true, completion);
        pisc.extendBusy(2);
    }
}

void
OmegaMachine::barrier()
{
    Cycles t = global_cycles_;
    for (auto &tile : tiles_) {
        tile.core.drain();
        t = std::max(t, tile.core.now());
    }
    // Offloaded atomics must complete before the next phase reads the
    // updated properties.
    for (const auto &pisc : piscs_)
        t = std::max(t, pisc.lastCompletion());
    for (auto &tile : tiles_)
        tile.core.syncTo(t);
    global_cycles_ = t;
    // Every core (and PISC) is now at t: busy entries that completed by t
    // can never block a later request, so drop them. Keeps the table
    // bounded by in-flight atomics across long multi-iteration runs.
    controller_.retireCompleted(t);
    if (watchdog_cycles_ != 0)
        checkForwardProgress(t);
    last_barrier_cycles_ = t;
    if (recorder_ != nullptr && recorder_->cadenceDue(global_cycles_))
        takeSample(SampleKind::Cadence);
}

void
OmegaMachine::checkForwardProgress(Cycles now)
{
    // Everything has drained to `now`, so any surviving busy entry can
    // only be a never-retiring lost update: the atomic it models will
    // never complete, and every later same-vertex offload queues behind
    // it forever.
    const auto stuck = controller_.stuckVertices(now, 8);
    if (!stuck.empty()) {
        std::ostringstream os;
        os << stuck.size() << (stuck.size() == 8 ? "+" : "")
           << " busy-table entr" << (stuck.size() == 1 ? "y" : "ies")
           << " will never retire (lost fire-and-forget update):";
        for (const VertexId v : stuck)
            os << " v" << v << "@sp" << controller_.homeOf(v);
        throw WatchdogError(watchdogReport(os.str(), now));
    }
    if (now - last_barrier_cycles_ > watchdog_cycles_) {
        std::ostringstream os;
        os << "barrier phase took " << (now - last_barrier_cycles_)
           << " cycles (budget " << watchdog_cycles_ << ")";
        throw WatchdogError(watchdogReport(os.str(), now));
    }
}

std::string
OmegaMachine::watchdogReport(const std::string &reason, Cycles now) const
{
    std::ostringstream os;
    os << "watchdog: " << reason << " [machine " << name() << ", cycle "
       << now << "]\n"
       << debugDump();
    return os.str();
}

void
OmegaMachine::saveState(SnapshotWriter &w) const
{
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
    for (const OmegaCoreTile &tile : tiles_) {
        tile.core.save(w);
        w.putU64(tile.sparse_appends);
        tile.svb.save(w);
    }
    hierarchy_.save(w);
    w.putU64(scratchpads_.size());
    for (const Scratchpad &sp : scratchpads_)
        sp.save(w);
    for (const Pisc &pisc : piscs_)
        pisc.save(w);
    controller_.save(w);
    w.putBool(injector_ != nullptr);
    if (injector_ != nullptr)
        injector_->save(w);
    saveReplayStats(w);
}

void
OmegaMachine::restoreState(SnapshotReader &r)
{
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
    for (OmegaCoreTile &tile : tiles_) {
        tile.core.restore(r);
        tile.sparse_appends = r.getU64();
        tile.svb.restore(r);
    }
    hierarchy_.restore(r);
    const std::uint64_t sps = r.getU64();
    if (sps != scratchpads_.size()) {
        throw SnapshotStateError(
            "snapshot: machine has " + std::to_string(sps) +
            " scratchpads, this machine has " +
            std::to_string(scratchpads_.size()));
    }
    for (Scratchpad &sp : scratchpads_)
        sp.restore(r);
    for (Pisc &pisc : piscs_)
        pisc.restore(r);
    controller_.restore(r);
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
OmegaMachine::debugDump() const
{
    std::ostringstream os;
    os << name() << " state @ cycle " << global_cycles_
       << " (iteration " << iteration_ << ", last barrier "
       << last_barrier_cycles_ << ")\n";
    for (std::size_t c = 0; c < tiles_.size(); ++c) {
        os << "  core" << c << ": clock=" << tiles_[c].core.now()
           << " instructions=" << tiles_[c].core.instructions() << "\n";
    }
    for (std::size_t c = 0; c < piscs_.size(); ++c) {
        os << "  pisc" << c << ": ops=" << piscs_[c].ops()
           << " busy_until=" << piscs_[c].busyUntil()
           << " last_completion=" << piscs_[c].lastCompletion() << "\n";
    }
    os << "  busy-table: " << controller_.busyTableSize()
       << " in-flight entries";
    const auto stuck = controller_.stuckVertices(global_cycles_, 8);
    if (!stuck.empty()) {
        os << ", stuck:";
        for (const VertexId v : stuck)
            os << " v" << v << "@sp" << controller_.homeOf(v);
    }
    os << "\n  degradation: " << controller_.poisonedLines()
       << " poisoned lines, " << controller_.demotedScratchpads()
       << " demoted scratchpads\n";
    if (injector_ != nullptr)
        os << "  " << injector_->summary() << "\n";
    return os.str();
}

void
OmegaMachine::endIteration()
{
    for (auto &tile : tiles_)
        tile.svb.invalidateAll();
    if (trace_pid_ > 0) {
        trace::emitInstant("svb.invalidate_all", "svb", trace_pid_,
                           trace::kEngineTid, global_cycles_, "iteration",
                           iteration_);
    }
    if (profile::compiledIn() && profiler_ != nullptr)
        profiler_->endPhase(global_cycles_);
    ++iteration_;
    if (recorder_ != nullptr)
        takeSample(SampleKind::Iteration);
}

void
OmegaMachine::recordFinalSample()
{
    if (recorder_ != nullptr)
        takeSample(SampleKind::Final);
}

Cycles
OmegaMachine::coreNow(unsigned core) const
{
    return tiles_[core].core.now();
}

Cycles
OmegaMachine::cycles() const
{
    return global_cycles_;
}

StatsReport
OmegaMachine::report() const
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
    for (const auto &sp : scratchpads_)
        r.sp_accesses += sp.reads() + sp.writes() + sp.atomics();
    for (const auto &pisc : piscs_) {
        r.pisc_ops += pisc.ops();
        r.pisc_busy_cycles += pisc.busyCycles();
        r.pisc_max_busy_cycles =
            std::max<std::uint64_t>(r.pisc_max_busy_cycles,
                                    pisc.busyCycles());
    }
    for (const auto &tile : tiles_) {
        r.svb_hits += tile.svb.hits();
        r.svb_misses += tile.svb.misses();
    }
    r.sp_local = sp_local_;
    r.sp_remote = sp_remote_;
    r.pisc_blocked_conflicts = controller_.conflicts();
    r.atomics_total = atomics_total_;
    r.atomics_offloaded = atomics_offloaded_;
    r.atomics_on_core = atomics_on_core_;
    r.vtxprop_accesses = vtxprop_accesses_;
    r.vtxprop_hot_accesses = vtxprop_hot_accesses_;
    return r;
}

} // namespace omega
