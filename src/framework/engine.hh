/**
 * @file
 * The vertex-centric framework runtime (Ligra-style), instrumented to
 * drive a simulated memory system.
 *
 * Algorithms are written against edgeMap / vertexMap exactly as in Ligra:
 * an update lambda performs the functional computation on host arrays,
 * while the engine emits the corresponding memory events — edgeList
 * streaming, source-prop reads, atomic vtxProp updates, active-list
 * maintenance — into the attached MemorySystem (baseline or OMEGA). With
 * no machine attached the engine degenerates to a fast functional
 * executor, which is what the correctness tests use.
 *
 * Event path: every event, whether the engine's own or an algorithm's
 * emit*() call, is appended in emission order to one op buffer, which
 * reaches the machine through MemorySystem::replayOps() at the end of
 * each parallelFor item (and whenever it holds kOpBufferCap ops).
 *
 * Parallelism model: work is dealt to the 16 logical cores with an
 * OpenMP-style static-chunk schedule; the engine interleaves per-core
 * streams by always advancing the core with the smallest local clock, so
 * shared-resource contention (L2 banks, DRAM channels, PISC queues) is
 * captured.
 */

#ifndef OMEGA_FRAMEWORK_ENGINE_HH
#define OMEGA_FRAMEWORK_ENGINE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "framework/properties.hh"
#include "framework/scheduler.hh"
#include "framework/vertex_subset.hh"
#include "graph/graph.hh"
#include "sim/memory_system.hh"
#include "translate/update_fn.hh"
#include "util/check.hh"

namespace omega {

class CheckpointCoordinator;

/** Tunables of the runtime. */
struct EngineOptions
{
    /** Static-schedule chunk; must match the machine's sp_chunk_size for
     *  the section-V.D locality benefit (mismatch is an ablation). */
    unsigned chunk_size = 64;
    /** Ligra dense/sparse switch: dense when |F| + outdeg(F) > arcs/d. */
    unsigned dense_threshold_denom = 20;
    /** Edges carry 4-byte weights (SSSP) or are id-only. */
    bool weighted = false;
    /** Instruction-equivalents charged per edge / per vertex. */
    unsigned ops_per_edge = 4;
    unsigned ops_per_vertex = 8;
    /** Cores used when no machine is attached (functional mode). */
    unsigned functional_cores = 16;
    /**
     * Largest number of edges one scheduled task processes. Ligra
     * parallelizes within high-degree vertices; without this cap a hub
     * would execute as one long sequential burst on a single core,
     * distorting load balance and shared-resource contention.
     */
    unsigned max_edges_per_task = 256;
    /**
     * Forward-progress watchdog budget per barrier phase, in cycles; the
     * machine throws WatchdogError (with a diagnostic state dump)
     * instead of hanging when a barrier or busy-table entry stops
     * retiring. 0 disables the watchdog.
     */
    Cycles watchdog_cycles = 0;
    /**
     * Checkpoint coordinator for crash-recoverable runs, or null. The
     * engine registers its own progress counters and the machine's
     * state tree as sections and drives the coordinator's
     * iteration-boundary hook from finishIteration(); the algorithm
     * registers its functional state and calls maybeRestore() itself
     * (sim/checkpoint.hh).
     */
    CheckpointCoordinator *checkpoint = nullptr;
};

/** The per-vertex hook of edgeMap calls that have none. */
struct NoVertexHook
{
    void operator()(unsigned, VertexId) const {}
};

/** What an update lambda did for one edge (drives event emission). */
struct EdgeUpdateResult
{
    /** The destination prop was read before deciding (test-then-set). */
    bool read_dst = false;
    /** An atomic RMW was performed on the destination. */
    bool performed_atomic = false;
    /** The destination became active for the next iteration. */
    bool activated = false;
};

/** The instrumented runtime binding a graph + properties to a machine. */
class Engine
{
  public:
    /**
     * @param g the graph (vertices are expected to be hot-first reordered
     *          for OMEGA runs; the engine is ordering-agnostic).
     * @param props property registry with the algorithm's vtxProps.
     * @param fn the algorithm's annotated update function.
     * @param mach machine to drive, or nullptr for functional-only runs.
     * @param opts runtime tunables.
     */
    Engine(const Graph &g, PropertyRegistry &props, UpdateFn fn,
           MemorySystem *mach, EngineOptions opts = {});

    /**
     * Write the machine configuration (the generated configuration code
     * of section V.F): monitor registers, active-list bases, microcode.
     *
     * @param hot_boundary vertex count treated as "hot" for the access
     *        statistics; 0 selects the paper's 20% default.
     */
    void configureMachine(VertexId hot_boundary = 0);

    /** Property whose value edgeMap reads per edge for the operand. */
    void setSrcProp(const PropArrayBase *prop) { src_prop_ = prop; }
    /** Property the atomic update read-modifies-writes (address base). */
    void setAtomicTarget(const PropArrayBase *prop)
    {
        atomic_target_ = prop;
    }

    const Graph &graph() const { return g_; }
    unsigned numCores() const { return num_cores_; }
    MemorySystem *machine() { return mach_; }
    const UpdateFn &updateFn() const { return fn_; }
    std::uint64_t iterations() const { return iterations_; }
    /** Parallel phases (barriers) completed — a finer-grained progress
     *  marker than iterations(); one edgeMap/vertexMap counts one or
     *  more phases. Profiled runs use it to size phase attribution. */
    std::uint64_t phases() const { return phases_; }

    /**
     * Ops the buffer holds before emission flushes it mid-item (96 KiB).
     * Splitting an item's run is timing-identical under the replayOps()
     * contract; the cap only bounds host memory (one TC item on the fig14
     * `ap` graph emits 750,333 ops).
     */
    static constexpr std::size_t kOpBufferCap = 4096;

    /**
     * @name Raw event emission (custom algorithms: TC, KC).
     * Only valid inside a parallelFor() item (including edgeMap update
     * lambdas and hooks, and vertexMap functors), with @p core the
     * item's core: the op joins the item's run in emission order.
     * @{
     */
    void
    emitCompute(unsigned core, std::uint64_t ops)
    {
        emit(core, EngineOp::compute(ops));
    }
    void
    emitLoad(unsigned core, std::uint64_t addr, std::uint32_t size,
             AccessClass cls, bool blocking = false, VertexId vertex = 0,
             bool sequential = false)
    {
        emit(core,
             EngineOp::load(addr, size, cls, blocking, vertex, sequential));
    }
    void
    emitStore(unsigned core, std::uint64_t addr, std::uint32_t size,
              AccessClass cls, VertexId vertex = 0, bool sequential = false)
    {
        emit(core, EngineOp::store(addr, size, cls, vertex, sequential));
    }
    /** Stream @p bytes sequentially at line granularity (memset-like). */
    void emitStreaming(std::uint64_t base, std::uint64_t bytes, bool write,
                       AccessClass cls);
    /** Read the out-CSR offsets entry of @p v. @p sequential marks the
     *  dense sweep (vertex-ordered, stream-prefetchable). */
    void
    emitOffsetsRead(unsigned core, VertexId v, bool sequential = false)
    {
        // Reads offsets[v] and offsets[v+1]; they share a line most of
        // the time, so one 16-byte access models the pair. The
        // out-of-order window overlaps it with other vertices' work
        // (non-blocking).
        emitLoad(core,
                 out_offsets_base_ + static_cast<std::uint64_t>(v) * 8, 16,
                 AccessClass::EdgeList, /*blocking=*/false, 0, sequential);
    }
    /** Read the @p i-th global out-edge entry (id [+ weight]). */
    void
    emitEdgeRead(unsigned core, EdgeId i)
    {
        emitLoad(core, out_arcs_base_ + i * edge_entry_bytes_,
                 edge_entry_bytes_, AccessClass::EdgeList, false, 0,
                 /*sequential=*/true);
    }
    /** Read the in-CSR offsets entry of @p v (pull direction). */
    void
    emitInOffsetsRead(unsigned core, VertexId v, bool sequential = true)
    {
        emitLoad(core,
                 in_offsets_base_ + static_cast<std::uint64_t>(v) * 8, 16,
                 AccessClass::EdgeList, /*blocking=*/false, 0, sequential);
    }
    /** Read the @p i-th global in-edge entry (pull direction). */
    void
    emitInEdgeRead(unsigned core, EdgeId i)
    {
        emitLoad(core, in_arcs_base_ + i * edge_entry_bytes_,
                 edge_entry_bytes_, AccessClass::EdgeList, false, 0,
                 /*sequential=*/true);
    }
    /** Read @p u's source vtxProp (SVB-eligible on OMEGA). */
    void
    emitSrcPropRead(unsigned core, VertexId u)
    {
        if (src_prop_)
            emit(core, EngineOp::srcProp(u, src_prop_->addrOf(u),
                                         src_prop_->typeSize()));
    }
    /** @} */

    /** Join all cores (end of a parallel region). */
    void finishPhase();
    /** End of an algorithm iteration (invalidates SVBs, bumps counter). */
    void finishIteration();

    /**
     * Ligra edgeMap, push direction. Iterates the frontier's out-edges;
     * @p update is called per edge as
     *   EdgeUpdateResult update(unsigned core, VertexId src, VertexId dst,
     *                           std::int32_t weight)
     * and must perform the functional state change itself.
     *
     * @param frontier active vertices.
     * @param update per-edge functional update.
     * @param want_output collect the next frontier (PageRank-style
     *        all-active algorithms pass false and save the maintenance).
     * @param vertex_hook called once per active source vertex before its
     *        edges (algorithms emit per-vertex loads here).
     * @return the next frontier (empty subset when !want_output).
     */
    template <typename UpdateF, typename VertexHookF>
    VertexSubset edgeMap(const VertexSubset &frontier, UpdateF &&update,
                         bool want_output, VertexHookF &&vertex_hook);

    template <typename UpdateF>
    VertexSubset
    edgeMap(const VertexSubset &frontier, UpdateF &&update,
            bool want_output = true)
    {
        return edgeMap(frontier, std::forward<UpdateF>(update), want_output,
                       NoVertexHook{});
    }

    /**
     * Pull-direction edge sweep over ALL vertices (the GraphMat-style /
     * Ligra-dense alternative the paper contrasts in section IV): each
     * destination's owner walks the destination's IN-edges, reads the
     * source vtxProps (random accesses) and updates the destination
     * locally — no atomics anywhere. @p gather is called per in-edge as
     *   gather(core, dst, src, weight)
     * and @p apply once per destination after its edges, with the engine
     * emitting the destination-prop store.
     *
     * @param src_prop property read per in-edge (the random stream).
     * @param dst_prop property stored once per destination.
     */
    template <typename GatherF, typename ApplyF>
    void edgeMapPullAll(const PropArrayBase &src_prop,
                        const PropArrayBase &dst_prop, GatherF &&gather,
                        ApplyF &&apply);

    /**
     * Ligra vertexMap: apply @p f to each active vertex; the engine emits
     * word loads/stores for the given property lists.
     */
    template <typename F>
    void vertexMap(const VertexSubset &subset, F &&f,
                   const std::vector<const PropArrayBase *> &reads = {},
                   const std::vector<const PropArrayBase *> &writes = {});

    /**
     * Plain interleaved parallel-for over [0, total); @p f(core, index)
     * does its own event emission, and the item's ops reach the machine
     * when it returns, before the next core is picked. Ends with a
     * barrier.
     *
     * @param chunk static-schedule chunk; 0 selects opts_.chunk_size.
     */
    template <typename F>
    void parallelFor(std::uint64_t total, F &&f, unsigned chunk = 0);

    /** @name Simulated address bases (exposed for algorithms/tests). @{ */
    std::uint64_t outOffsetsBase() const { return out_offsets_base_; }
    std::uint64_t outArcsBase() const { return out_arcs_base_; }
    std::uint64_t denseActiveBase() const { return dense_active_base_; }
    std::uint64_t sparseActiveBase() const { return sparse_active_base_; }
    unsigned edgeEntryBytes() const { return edge_entry_bytes_; }
    /** @} */

  private:
    /** One scheduled unit of edgeMap work: a slice of a vertex's edges. */
    struct EdgeTask
    {
        VertexId u = 0;
        /** Index within u's adjacency where this slice starts. */
        std::uint32_t offset = 0;
        std::uint32_t count = 0;
        /** Dense sweep: the vertex was inactive (scan-only task). */
        bool active = true;
        /** First slice of the vertex: emits the prologue. */
        bool first_segment = true;
        /** Sparse mode: index of the frontier entry to read. */
        std::uint64_t frontier_slot = 0;
    };

    /**
     * Split @p u's edges into tasks of at most max_edges_per_task: the
     * first segment goes to @p tasks (keeping task index == iteration
     * order, which preserves the chunk/scratchpad alignment of
     * section V.D), the remaining hub segments go to @p extras.
     */
    void appendTasks(std::vector<EdgeTask> &tasks,
                     std::vector<EdgeTask> &extras, VertexId u,
                     bool active, std::uint64_t frontier_slot) const;

    /** Order hub segments for the fine-grained second phase. */
    static void mergeExtraTasks(std::vector<EdgeTask> &extras);

    /** Process one edge task (prologue + its slice of edges). */
    template <typename UpdateF, typename VertexHookF>
    void processEdgeTask(unsigned core, const EdgeTask &task,
                         UpdateF &&update, VertexHookF &&vertex_hook,
                         bool want_output, bool dense_output,
                         bool sparse_frontier);

    /** Record dst as newly activated; true if it was not active yet. */
    bool markActive(unsigned core, VertexId dst, bool dense_output);

    /** Pick the core with the smallest clock among those with work. */
    unsigned pickCore(const StaticScheduler &sched) const;

    /** Append one event of @p core's current item (no-op without a
     *  machine), flushing at the cap. */
    void
    emit(unsigned core, const EngineOp &op)
    {
        if (!mach_)
            return;
        op_buf_.push_back(op);
        if (op_buf_.size() >= kOpBufferCap)
            flushOps(core);
    }

    /** Hand the buffered ops to the machine as one replayOps() run: the
     *  engine's one delivery point. */
    void
    flushOps(unsigned core)
    {
        if (op_buf_.empty())
            return;
        mach_->replayOps(core, op_buf_);
        ScriptReplayStats run;
        run.merged_items = 1;
        run.merged_ops = op_buf_.size();
        mach_->accumulateReplayStats(run);
        op_buf_.clear();
    }

    const Graph &g_;
    PropertyRegistry &props_;
    UpdateFn fn_;
    MemorySystem *mach_;
    EngineOptions opts_;
    unsigned num_cores_;

    const PropArrayBase *src_prop_ = nullptr;
    const PropArrayBase *atomic_target_ = nullptr;

    std::uint64_t out_offsets_base_ = 0;
    std::uint64_t out_arcs_base_ = 0;
    std::uint64_t in_offsets_base_ = 0;
    std::uint64_t in_arcs_base_ = 0;
    std::uint64_t dense_active_base_ = 0;
    std::uint64_t sparse_active_base_ = 0;
    std::uint64_t sparse_read_base_ = 0;
    std::uint64_t sparse_counter_addr_ = 0;
    unsigned edge_entry_bytes_ = 4;

    std::uint64_t iterations_ = 0;
    std::uint64_t phases_ = 0;

    /** Next-frontier collection state (valid during edgeMap). */
    std::vector<std::uint8_t> next_dense_;
    std::vector<std::uint8_t> in_next_;
    std::vector<std::vector<VertexId>> per_core_sparse_;

    /** Cached per-core clocks for the parallelFor interleave scan. */
    std::vector<Cycles> core_clocks_;

    /** The current parallelFor item's ops, in emission order. */
    std::vector<EngineOp> op_buf_;

    /** Reused task-list scratch for edgeMap / edgeMapPullAll. */
    std::vector<EdgeTask> task_scratch_;
    std::vector<EdgeTask> extra_scratch_;
};

// ---------------------------------------------------------------------
// Template implementations.
// ---------------------------------------------------------------------

inline unsigned
Engine::pickCore(const StaticScheduler &sched) const
{
    unsigned best = 0;
    Cycles best_t = std::numeric_limits<Cycles>::max();
    bool found = false;
    for (unsigned c = 0; c < num_cores_; ++c) {
        if (!sched.peek(c))
            continue;
        const Cycles t = mach_->coreNow(c);
        if (!found || t < best_t) {
            best = c;
            best_t = t;
            found = true;
        }
    }
    return best;
}

template <typename F>
void
Engine::parallelFor(std::uint64_t total, F &&f, unsigned chunk)
{
    StaticScheduler sched(total, num_cores_,
                          chunk ? chunk : opts_.chunk_size);
    if (!mach_) {
        // Functional mode: drain cores round-robin.
        while (!sched.done()) {
            for (unsigned c = 0; c < num_cores_; ++c) {
                if (auto i = sched.next(c))
                    f(c, *i);
            }
        }
        return;
    }
    // Machine mode: always advance the lowest-id core among those with
    // the smallest local clock. coreNow() is a virtual call and f only
    // moves the worked core's clock, so cache the clocks once and refresh
    // just that entry per iteration instead of re-polling every core.
    core_clocks_.resize(num_cores_);
    for (unsigned c = 0; c < num_cores_; ++c)
        core_clocks_[c] = mach_->coreNow(c);
    if (num_cores_ <= 64) {
        std::uint64_t alive = 0;
        for (unsigned c = 0; c < num_cores_; ++c) {
            if (sched.peek(c))
                alive |= std::uint64_t{1} << c;
        }
        while (alive) {
            // countr_zero walks set bits in index order, so ties still
            // resolve to the lowest core id.
            std::uint64_t scan = alive;
            unsigned best = static_cast<unsigned>(std::countr_zero(scan));
            Cycles best_t = core_clocks_[best];
            scan &= scan - 1;
            while (scan) {
                const unsigned c =
                    static_cast<unsigned>(std::countr_zero(scan));
                scan &= scan - 1;
                if (core_clocks_[c] < best_t) {
                    best = c;
                    best_t = core_clocks_[c];
                }
            }
            const auto i = sched.next(best);
            f(best, *i);
            flushOps(best);
            core_clocks_[best] = mach_->coreNow(best);
            if (!sched.peek(best))
                alive &= ~(std::uint64_t{1} << best);
        }
    } else {
        while (!sched.done()) {
            const unsigned c = pickCore(sched);
            const auto i = sched.next(c);
            f(c, *i);
            flushOps(c);
        }
    }
    finishPhase();
}

inline bool
Engine::markActive(unsigned core, VertexId dst, bool dense_output)
{
    if (dense_output) {
        if (next_dense_[dst])
            return false;
        next_dense_[dst] = 1;
        return true;
    }
    if (in_next_[dst])
        return false;
    in_next_[dst] = 1;
    per_core_sparse_[core].push_back(dst);
    return true;
}

inline void
Engine::appendTasks(std::vector<EdgeTask> &tasks,
                    std::vector<EdgeTask> &extras, VertexId u, bool active,
                    std::uint64_t frontier_slot) const
{
    EdgeTask first;
    first.u = u;
    first.active = active;
    first.frontier_slot = frontier_slot;
    const EdgeId deg = active ? g_.outDegree(u) : 0;
    first.count = static_cast<std::uint32_t>(
        std::min<EdgeId>(deg, opts_.max_edges_per_task));
    tasks.push_back(first);
    for (EdgeId off = opts_.max_edges_per_task; off < deg;
         off += opts_.max_edges_per_task) {
        EdgeTask rest;
        rest.u = u;
        rest.offset = static_cast<std::uint32_t>(off);
        rest.count = static_cast<std::uint32_t>(
            std::min<EdgeId>(deg - off, opts_.max_edges_per_task));
        rest.first_segment = false;
        extras.push_back(rest);
    }
}

inline void
Engine::mergeExtraTasks(std::vector<EdgeTask> &extras)
{
    // Order hub slices by (slice index, vertex): successive tasks come
    // from different hubs where possible, smoothing the tail.
    std::sort(extras.begin(), extras.end(),
              [](const EdgeTask &a, const EdgeTask &b) {
                  if (a.offset != b.offset)
                      return a.offset < b.offset;
                  return a.u < b.u;
              });
}

template <typename UpdateF, typename VertexHookF>
void
Engine::processEdgeTask(unsigned core, const EdgeTask &task,
                        UpdateF &&update, VertexHookF &&vertex_hook,
                        bool want_output, bool dense_output,
                        bool sparse_frontier)
{
    const VertexId u = task.u;
    if (task.first_segment) {
        if (sparse_frontier) {
            emitLoad(core, sparse_read_base_ + 4 * task.frontier_slot, 4,
                     AccessClass::ActiveList, false, 0, /*sequential=*/true);
        } else {
            emitLoad(core, dense_active_base_ + u, 1, AccessClass::ActiveList,
                     false, 0, /*sequential=*/true);
        }
        emitCompute(core, 1);
        if (!task.active)
            return;
        emitOffsetsRead(core, u, /*sequential=*/!sparse_frontier);
        emitCompute(core, opts_.ops_per_vertex);
        vertex_hook(core, u);
    }

    const auto nbrs = g_.outNeighbors(u);
    const auto ws = g_.outWeights(u);
    const EdgeId base = g_.outEdgeBase(u);
    const bool read_src = fn_.reads_src_prop && src_prop_ != nullptr;

    const std::size_t end = task.offset + task.count;
    for (std::size_t i = task.offset; i < end; ++i) {
        const VertexId dst = nbrs[i];
        emitEdgeRead(core, base + i);
        if (read_src)
            emitSrcPropRead(core, u);

        const EdgeUpdateResult r = update(core, u, dst, ws[i]);

        if (r.read_dst && atomic_target_) {
            emitLoad(core, atomic_target_->addrOf(dst),
                     atomic_target_->typeSize(), AccessClass::VertexProp,
                     false, dst);
        }
        const bool newly =
            (r.activated && want_output) ? markActive(core, dst, dense_output)
                                         : false;
        if (r.performed_atomic && atomic_target_) {
            emit(core, EngineOp::atomic(
                           dst, atomic_target_->addrOf(dst),
                           atomic_target_->typeSize(),
                           static_cast<std::uint8_t>(fn_.operand_bytes),
                           newly && dense_output, newly && !dense_output));
        }
        emitCompute(core, opts_.ops_per_edge);
    }
}

template <typename UpdateF, typename VertexHookF>
VertexSubset
Engine::edgeMap(const VertexSubset &frontier, UpdateF &&update,
                bool want_output, VertexHookF &&vertex_hook)
{
    const VertexId n = g_.numVertices();

    // Ligra's representation switch: count the frontier's out-edges.
    EdgeId frontier_edges = 0;
    if (frontier.isDense()) {
        for (VertexId v = 0; v < n; ++v) {
            if (frontier.dense()[v])
                frontier_edges += g_.outDegree(v);
        }
    } else {
        for (VertexId v : frontier.sparse())
            frontier_edges += g_.outDegree(v);
    }
    const bool dense =
        frontier.isDense() ||
        (static_cast<EdgeId>(frontier.size()) + frontier_edges >
         g_.numArcs() / opts_.dense_threshold_denom);

    // Prepare output collection.
    if (want_output) {
        if (dense) {
            next_dense_.assign(n, 0);
            // Clearing the next bitmap is streaming framework overhead.
            emitStreaming(dense_active_base_, n, true,
                          AccessClass::ActiveList);
        } else {
            in_next_.assign(n, 0);
            per_core_sparse_.resize(num_cores_);
            for (auto &v : per_core_sparse_)
                v.clear();
        }
    }

    if (dense) {
        VertexSubset f = frontier;
        if (!f.isDense()) {
            f.toDense();
            // Sparse -> dense conversion streams the bitmap.
            emitStreaming(dense_active_base_, n, true,
                          AccessClass::ActiveList);
        }
        const auto &bits = f.dense();
        std::vector<EdgeTask> &tasks = task_scratch_;
        std::vector<EdgeTask> &extras = extra_scratch_;
        tasks.clear();
        extras.clear();
        tasks.reserve(n);
        for (VertexId v = 0; v < n; ++v)
            appendTasks(tasks, extras, v, bits[v] != 0, 0);
        parallelFor(tasks.size(), [&](unsigned core, std::uint64_t idx) {
            processEdgeTask(core, tasks[idx], update, vertex_hook,
                            want_output, /*dense_output=*/true,
                            /*sparse_frontier=*/false);
        });
        if (!extras.empty()) {
            // Hub slices: schedule one task at a time so a single hub's
            // work spreads over all cores (Ligra's edge parallelism).
            mergeExtraTasks(extras);
            parallelFor(
                extras.size(),
                [&](unsigned core, std::uint64_t idx) {
                    processEdgeTask(core, extras[idx], update, vertex_hook,
                                    want_output, /*dense_output=*/true,
                                    /*sparse_frontier=*/false);
                },
                /*chunk=*/1);
        }
        VertexSubset out(n);
        if (want_output)
            out = VertexSubset::fromDense(std::move(next_dense_));
        next_dense_.clear();
        return out;
    }

    const auto &ids = frontier.sparse();
    std::vector<EdgeTask> &tasks = task_scratch_;
    std::vector<EdgeTask> &extras = extra_scratch_;
    tasks.clear();
    extras.clear();
    tasks.reserve(ids.size());
    for (std::uint64_t slot = 0; slot < ids.size(); ++slot)
        appendTasks(tasks, extras, ids[slot], true, slot);
    parallelFor(tasks.size(), [&](unsigned core, std::uint64_t idx) {
        processEdgeTask(core, tasks[idx], update, vertex_hook, want_output,
                        /*dense_output=*/false, /*sparse_frontier=*/true);
    });
    if (!extras.empty()) {
        mergeExtraTasks(extras);
        parallelFor(
            extras.size(),
            [&](unsigned core, std::uint64_t idx) {
                processEdgeTask(core, extras[idx], update, vertex_hook,
                                want_output, /*dense_output=*/false,
                                /*sparse_frontier=*/true);
            },
            /*chunk=*/1);
    }

    VertexSubset out(n);
    if (want_output) {
        std::vector<VertexId> merged;
        for (auto &v : per_core_sparse_) {
            merged.insert(merged.end(), v.begin(), v.end());
            v.clear();
        }
        out = VertexSubset::fromSparse(n, std::move(merged));
    }
    in_next_.clear();
    return out;
}

template <typename GatherF, typename ApplyF>
void
Engine::edgeMapPullAll(const PropArrayBase &src_prop,
                       const PropArrayBase &dst_prop, GatherF &&gather,
                       ApplyF &&apply)
{
    const VertexId n = g_.numVertices();
    // Task list over destinations, hubs split by in-degree.
    std::vector<EdgeTask> &tasks = task_scratch_;
    std::vector<EdgeTask> &extras = extra_scratch_;
    tasks.clear();
    extras.clear();
    tasks.reserve(n);
    for (VertexId v = 0; v < n; ++v) {
        EdgeTask first;
        first.u = v;
        const EdgeId deg = g_.inDegree(v);
        first.count = static_cast<std::uint32_t>(
            std::min<EdgeId>(deg, opts_.max_edges_per_task));
        tasks.push_back(first);
        for (EdgeId off = opts_.max_edges_per_task; off < deg;
             off += opts_.max_edges_per_task) {
            EdgeTask rest;
            rest.u = v;
            rest.offset = static_cast<std::uint32_t>(off);
            rest.count = static_cast<std::uint32_t>(
                std::min<EdgeId>(deg - off, opts_.max_edges_per_task));
            rest.first_segment = false;
            extras.push_back(rest);
        }
    }

    auto run_task = [&](unsigned core, const EdgeTask &task) {
        const VertexId dst = task.u;
        if (task.first_segment) {
            emitInOffsetsRead(core, dst);
            emitCompute(core, opts_.ops_per_vertex);
        }
        const auto nbrs = g_.inNeighbors(dst);
        const auto ws = g_.inWeights(dst);
        const EdgeId base = g_.inEdgeBase(dst);
        const std::size_t end = task.offset + task.count;
        for (std::size_t i = task.offset; i < end; ++i) {
            emitInEdgeRead(core, base + i);
            // The random read stream of pull mode: the source's vtxProp.
            emitLoad(core, src_prop.addrOf(nbrs[i]), src_prop.typeSize(),
                     AccessClass::VertexProp, false, nbrs[i]);
            emitCompute(core, opts_.ops_per_edge);
            gather(core, dst, nbrs[i], ws[i]);
        }
        if (task.first_segment) {
            apply(core, dst);
            emitStore(core, dst_prop.addrOf(dst), dst_prop.typeSize(),
                      AccessClass::VertexProp, dst, /*sequential=*/true);
        }
    };

    parallelFor(tasks.size(), [&](unsigned core, std::uint64_t idx) {
        run_task(core, tasks[idx]);
    });
    if (!extras.empty()) {
        mergeExtraTasks(extras);
        parallelFor(
            extras.size(),
            [&](unsigned core, std::uint64_t idx) {
                run_task(core, extras[idx]);
            },
            /*chunk=*/1);
    }
}

template <typename F>
void
Engine::vertexMap(const VertexSubset &subset, F &&f,
                  const std::vector<const PropArrayBase *> &reads,
                  const std::vector<const PropArrayBase *> &writes)
{
    auto run_active = [&](unsigned core, VertexId v) {
        for (const auto *p : reads) {
            emitLoad(core, p->addrOf(v), p->typeSize(),
                     AccessClass::VertexProp, false, v, /*sequential=*/true);
        }
        f(core, v);
        for (const auto *p : writes) {
            emitStore(core, p->addrOf(v), p->typeSize(),
                      AccessClass::VertexProp, v, /*sequential=*/true);
        }
        emitCompute(core, opts_.ops_per_vertex);
    };

    if (subset.isDense()) {
        const auto &bits = subset.dense();
        parallelFor(subset.numVertices(), [&](unsigned core, std::uint64_t i) {
            const auto v = static_cast<VertexId>(i);
            emitLoad(core, dense_active_base_ + v, 1, AccessClass::ActiveList,
                     false, 0, /*sequential=*/true);
            if (bits[v])
                run_active(core, v);
        });
    } else {
        const auto &ids = subset.sparse();
        parallelFor(ids.size(), [&](unsigned core, std::uint64_t idx) {
            emitLoad(core, sparse_read_base_ + 4 * idx, 4,
                     AccessClass::ActiveList, /*blocking=*/true);
            run_active(core, ids[idx]);
        });
    }
}

} // namespace omega

#endif // OMEGA_FRAMEWORK_ENGINE_HH
