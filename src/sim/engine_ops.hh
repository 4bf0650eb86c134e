/**
 * @file
 * Compact engine->machine event records for batched delivery.
 *
 * An EngineOp is one engine event (compute, load, store, source-prop
 * read, atomic update) flattened into a 24-byte POD. The engine appends
 * every event it or an algorithm emits to one buffer, in emission order,
 * and hands each parallelFor item's ops to the machine through
 * MemorySystem::replayOps() — one virtual dispatch per run instead of
 * three to five per edge; concrete machines override it with a tight,
 * devirtualized loop. DESIGN.md §12 "One event path".
 */

#ifndef OMEGA_SIM_ENGINE_OPS_HH
#define OMEGA_SIM_ENGINE_OPS_HH

#include <cstdint>

#include "graph/types.hh"
#include "sim/access.hh"

namespace omega {

/** Event type of one EngineOp. */
enum class EngineOpKind : std::uint8_t {
    /** Advance the core clock by @c arg instruction-equivalents. */
    Compute,
    /** Core load (MemAccess with op == Load). */
    Load,
    /** Core store (MemAccess with op == Store). */
    Store,
    /** Source-vtxProp read (SVB-eligible on OMEGA). */
    SrcProp,
    /** Atomic vtxProp update (AtomicRequest). */
    Atomic,
};

/**
 * One flattened engine event. Field use by kind:
 *  - Compute: arg = instruction-equivalents.
 *  - Load/Store: addr, arg = size, cls, vertex, kBlocking/kSequential.
 *  - SrcProp: addr, arg = size, vertex.
 *  - Atomic: addr, arg = size, vertex, operand_bytes, kActivates*.
 */
struct EngineOp
{
    /** Ops with kBlocking stall the core until the access completes. */
    static constexpr std::uint8_t kBlocking = 1u << 0;
    /** Sequential (stream-prefetchable) access pattern. */
    static constexpr std::uint8_t kSequential = 1u << 1;
    /** Atomic also sets the dense active-list byte. */
    static constexpr std::uint8_t kActivatesDense = 1u << 2;
    /** Atomic also appends to the sparse active list. */
    static constexpr std::uint8_t kActivatesSparse = 1u << 3;

    std::uint64_t addr = 0;
    VertexId vertex = 0;
    std::uint32_t arg = 0;
    EngineOpKind kind = EngineOpKind::Compute;
    AccessClass cls = AccessClass::VertexProp;
    std::uint8_t flags = 0;
    std::uint8_t operand_bytes = 0;

    static EngineOp
    compute(std::uint64_t ops)
    {
        EngineOp op;
        op.kind = EngineOpKind::Compute;
        op.arg = static_cast<std::uint32_t>(ops);
        return op;
    }

    static EngineOp
    load(std::uint64_t addr, std::uint32_t size, AccessClass cls,
         bool blocking = false, VertexId vertex = 0, bool sequential = false)
    {
        EngineOp op;
        op.kind = EngineOpKind::Load;
        op.addr = addr;
        op.arg = size;
        op.cls = cls;
        op.vertex = vertex;
        op.flags = static_cast<std::uint8_t>(
            (blocking ? kBlocking : 0) | (sequential ? kSequential : 0));
        return op;
    }

    static EngineOp
    store(std::uint64_t addr, std::uint32_t size, AccessClass cls,
          VertexId vertex = 0, bool sequential = false)
    {
        EngineOp op;
        op.kind = EngineOpKind::Store;
        op.addr = addr;
        op.arg = size;
        op.cls = cls;
        op.vertex = vertex;
        op.flags = sequential ? kSequential : std::uint8_t{0};
        return op;
    }

    static EngineOp
    srcProp(VertexId vertex, std::uint64_t addr, std::uint32_t size)
    {
        EngineOp op;
        op.kind = EngineOpKind::SrcProp;
        op.addr = addr;
        op.arg = size;
        op.vertex = vertex;
        return op;
    }

    static EngineOp
    atomic(VertexId vertex, std::uint64_t addr, std::uint32_t size,
           std::uint8_t operand_bytes, bool activates_dense,
           bool activates_sparse)
    {
        EngineOp op;
        op.kind = EngineOpKind::Atomic;
        op.addr = addr;
        op.arg = size;
        op.vertex = vertex;
        op.operand_bytes = operand_bytes;
        op.flags = static_cast<std::uint8_t>(
            (activates_dense ? kActivatesDense : 0) |
            (activates_sparse ? kActivatesSparse : 0));
        return op;
    }

    /** Expand to the MemAccess form (default replay path). */
    MemAccess
    toMemAccess(unsigned core) const
    {
        MemAccess a;
        a.core = core;
        a.op = kind == EngineOpKind::Store ? MemOp::Store : MemOp::Load;
        a.addr = addr;
        a.size = arg;
        a.cls = kind == EngineOpKind::SrcProp ? AccessClass::VertexProp
                                              : cls;
        a.blocking = (flags & kBlocking) != 0;
        a.sequential = (flags & kSequential) != 0;
        a.vertex = vertex;
        return a;
    }

    /** Expand to the AtomicRequest form. */
    AtomicRequest
    toAtomicRequest(unsigned core) const
    {
        AtomicRequest r;
        r.core = core;
        r.vertex = vertex;
        r.addr = addr;
        r.size = arg;
        r.operand_bytes = operand_bytes;
        r.activates_dense = (flags & kActivatesDense) != 0;
        r.activates_sparse = (flags & kActivatesSparse) != 0;
        return r;
    }
};

static_assert(sizeof(EngineOp) <= 24, "EngineOp must stay compact");

/**
 * Counters of the engine's replay path, accumulated per machine across a
 * run at its single flush point (Engine::flushOps). They count host
 * replay work, not simulated results, and are a pure function of the
 * run's event stream.
 */
struct ScriptReplayStats
{
    /** Always 0: there are no epoch banks to refill. Kept because
     *  perfbench/ reads it. */
    std::uint64_t epochs = 0;
    /** replayOps() runs delivered: one per parallelFor item that emitted
     *  anything, plus one per cap-triggered mid-item flush. */
    std::uint64_t merged_items = 0;
    /** Engine ops delivered through those runs. */
    std::uint64_t merged_ops = 0;
    /** Always 0: there is no per-core item queue. Kept because
     *  perfbench/ reads it. */
    std::uint64_t max_queue_depth = 0;

    void
    accumulate(const ScriptReplayStats &o)
    {
        merged_items += o.merged_items;
        merged_ops += o.merged_ops;
    }
};

} // namespace omega

#endif // OMEGA_SIM_ENGINE_OPS_HH
