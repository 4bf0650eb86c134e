/**
 * @file
 * Tests for the composed CMP machine: with and without the near-memory
 * unit, and the registry configurations built from it.
 */

#include <gtest/gtest.h>

#include "sim/cmp_machine.hh"
#include "sim/machine_registry.hh"

namespace omega {
namespace {

constexpr std::uint64_t kProp = addr_space::kPropBase;

MachineConfig
config(VertexId n = 1024, std::uint32_t entry = 8)
{
    MachineConfig c;
    c.num_vertices = n;
    PropSpec p;
    p.start_addr = kProp;
    p.type_size = entry;
    p.stride = entry;
    p.count = n;
    c.props = {p};
    c.dense_active_base = addr_space::kActiveBase;
    c.sparse_active_base = addr_space::kActiveBase + 0x10000;
    c.sparse_counter_addr = addr_space::kActiveBase + 0x20000;
    c.microcode_cycles = 4;
    c.hot_boundary = n / 5;
    return c;
}

MemAccess
propLoad(unsigned core, VertexId v, std::uint32_t entry = 8)
{
    MemAccess a;
    a.core = core;
    a.op = MemOp::Load;
    a.addr = kProp + std::uint64_t(v) * entry;
    a.size = entry;
    a.cls = AccessClass::VertexProp;
    a.vertex = v;
    return a;
}

AtomicRequest
atomicOn(unsigned core, VertexId v, std::uint32_t entry = 8)
{
    AtomicRequest r;
    r.core = core;
    r.vertex = v;
    r.addr = kProp + std::uint64_t(v) * entry;
    r.size = entry;
    r.operand_bytes = 8;
    return r;
}

// --- Registry configurations ------------------------------------------

TEST(MachineRegistry, EveryLabelIsTheEntryName)
{
    // name(), the stat-tree root and the trace process name all derive
    // from the entry's name, including for entries sharing hardware.
    for (const MachineRegistryEntry &e : machineRegistry()) {
        const auto m = e.make(e.make_params());
        EXPECT_EQ(m->name(), e.name);
        ASSERT_NE(m->statTree(), nullptr) << e.name;
        EXPECT_EQ(m->statTree()->name(), e.name);
    }
}

TEST(MachineRegistry, PlugPointsFollowTheConfiguration)
{
    // The near-memory unit exists iff the parameters give the machine
    // scratchpad capacity; only GRASP installs an LLC policy.
    for (const MachineRegistryEntry &e : machineRegistry()) {
        const MachineParams p = e.make_params();
        const auto m = e.make(p);
        EXPECT_EQ(m->nearMemory() != nullptr, p.sp_total_bytes > 0)
            << e.name;
        EXPECT_EQ(m->llcPolicy() != nullptr,
                  std::string(e.name) == "grasp")
            << e.name;
    }
    MachineParams p = MachineParams::omega();
    p.sp_total_bytes = 0;
    EXPECT_EQ(CmpMachine(p, "omega").nearMemory(), nullptr);
}

// --- Caches only (no near-memory unit) ---------------------------------

TEST(CmpMachineCachesOnly, CountsHotVertexAccesses)
{
    CmpMachine m(MachineParams::baseline(), "baseline");
    m.configure(config(1000)); // hot boundary = 200
    m.memAccess(propLoad(0, 10));
    m.memAccess(propLoad(0, 500));
    m.barrier();
    const StatsReport r = m.report();
    EXPECT_EQ(r.vtxprop_accesses, 2u);
    EXPECT_EQ(r.vtxprop_hot_accesses, 1u);
}

TEST(CmpMachineCachesOnly, AtomicSerializesAndCounts)
{
    MachineParams p = MachineParams::baseline();
    CmpMachine m(p, "baseline");
    m.configure(config());
    m.atomicUpdate(atomicOn(0, 5));
    m.barrier();
    const StatsReport r = m.report();
    EXPECT_EQ(r.atomics_total, 1u);
    EXPECT_EQ(r.atomics_on_core, 1u);
    EXPECT_EQ(r.atomics_offloaded, 0u);
    EXPECT_GE(r.atomic_stall_cycles, p.atomic_serialize);
}

TEST(CmpMachineCachesOnly, PlainAtomicAblationIsCheaper)
{
    MachineParams p = MachineParams::baseline();
    CmpMachine normal(p, "baseline");
    normal.configure(config());
    p.atomics_as_plain = true;
    CmpMachine plain(p, "baseline");
    plain.configure(config());
    for (int i = 0; i < 200; ++i) {
        normal.atomicUpdate(atomicOn(0, i % 64));
        plain.atomicUpdate(atomicOn(0, i % 64));
    }
    normal.barrier();
    plain.barrier();
    EXPECT_LT(plain.cycles(), normal.cycles());
}

TEST(CmpMachineCachesOnly, BarrierSyncsAllCores)
{
    CmpMachine m(MachineParams::baseline(), "baseline");
    m.configure(config());
    m.compute(0, 800); // core 0 races ahead
    m.barrier();
    for (unsigned c = 0; c < m.params().num_cores; ++c)
        EXPECT_EQ(m.coreNow(c), m.cycles());
    EXPECT_GE(m.cycles(), 100u);
}

TEST(CmpMachineCachesOnly, SparseActivationTouchesCounter)
{
    CmpMachine m(MachineParams::baseline(), "baseline");
    m.configure(config());
    auto r1 = atomicOn(0, 3);
    r1.activates_sparse = true;
    m.atomicUpdate(r1);
    m.barrier();
    const StatsReport r = m.report();
    // dst line + counter + append store.
    EXPECT_GE(r.l1_accesses, 3u);
}

// --- With the near-memory unit (OMEGA) --------------------------------

MachineParams
omegaParams()
{
    // Scaled down so 1024 vertices fit partially: 16 cores x 4 KB = 64 KB
    // of scratchpad over 9-byte lines ~= 7281 lines.
    MachineParams p = MachineParams::omega();
    p.sp_total_bytes = 64 * 1024;
    p.l2.size_bytes = 256 * 1024;
    p.l1d.size_bytes = 1024;
    return p;
}

TEST(CmpMachineNearMemory, ResidencyFromCapacity)
{
    CmpMachine m(omegaParams(), "omega");
    m.configure(config(100000));
    // 64 KB / 9 B lines = 7281 lines; all vertices beyond stay in cache.
    EXPECT_GT(m.residentVertices(), 7000u);
    EXPECT_LT(m.residentVertices(), 7300u);
}

TEST(CmpMachineNearMemory, SmallGraphFitsEntirely)
{
    CmpMachine m(omegaParams(), "omega");
    m.configure(config(1000));
    EXPECT_EQ(m.residentVertices(), 1000u);
}

TEST(CmpMachineNearMemory, ScratchpadCapacityCoversRemainder)
{
    // A total not divisible by the core count must not silently shrink:
    // the remainder bytes are spread over the first scratchpads so the
    // modeled capacity sums to exactly sp_total_bytes.
    MachineParams p = omegaParams();
    p.sp_total_bytes = 64 * 1024 + 7; // 16 cores: 4096 each + 7 left over
    CmpMachine m(p, "omega");
    std::uint64_t total = 0;
    for (const Scratchpad &sp : m.nearMemory()->scratchpads)
        total += sp.capacityBytes();
    EXPECT_EQ(total, p.sp_total_bytes);
    EXPECT_EQ(m.nearMemory()->scratchpads.front().capacityBytes(), 4096u + 1u);
    EXPECT_EQ(m.nearMemory()->scratchpads.back().capacityBytes(), 4096u);

    // Divisible totals keep the historical even split.
    CmpMachine even(omegaParams(), "omega");
    for (const Scratchpad &sp : even.nearMemory()->scratchpads)
        EXPECT_EQ(sp.capacityBytes(), 4096u);
}

TEST(CmpMachineNearMemory, ResidentAccessUsesScratchpad)
{
    CmpMachine m(omegaParams(), "omega");
    m.configure(config(1000));
    m.memAccess(propLoad(0, 5));
    m.barrier();
    const StatsReport r = m.report();
    EXPECT_EQ(r.sp_accesses, 1u);
    EXPECT_EQ(r.l1_accesses, 0u);
}

TEST(CmpMachineNearMemory, NonResidentAccessUsesCache)
{
    CmpMachine m(omegaParams(), "omega");
    m.configure(config(100000));
    const VertexId cold = 50000;
    m.memAccess(propLoad(0, cold));
    m.barrier();
    const StatsReport r = m.report();
    EXPECT_EQ(r.sp_accesses, 0u);
    EXPECT_EQ(r.l1_accesses, 1u);
}

TEST(CmpMachineNearMemory, LocalVsRemoteScratchpad)
{
    MachineParams p = omegaParams();
    CmpMachine m(p, "omega");
    m.configure(config(1000));
    // Vertex 0 homes on scratchpad 0 (chunk 64): local for core 0,
    // remote for core 1.
    m.memAccess(propLoad(0, 0));
    m.memAccess(propLoad(1, 0));
    m.barrier();
    const StatsReport r = m.report();
    EXPECT_EQ(r.sp_local, 1u);
    EXPECT_EQ(r.sp_remote, 1u);
    // Remote word packets: control + <=8B payload, single flits.
    EXPECT_GT(r.onchip_packets, 0u);
}

TEST(CmpMachineNearMemory, AtomicsAreOffloadedToPisc)
{
    CmpMachine m(omegaParams(), "omega");
    m.configure(config(1000));
    for (int i = 0; i < 10; ++i)
        m.atomicUpdate(atomicOn(0, 5));
    m.barrier();
    const StatsReport r = m.report();
    EXPECT_EQ(r.atomics_total, 10u);
    EXPECT_EQ(r.atomics_offloaded, 10u);
    EXPECT_EQ(r.atomics_on_core, 0u);
    EXPECT_EQ(r.pisc_ops, 10u);
    EXPECT_GT(r.pisc_busy_cycles, 0u);
    // Fire-and-forget: the core never pays atomic stall.
    EXPECT_EQ(r.atomic_stall_cycles, 0u);
}

TEST(CmpMachineNearMemory, ColdAtomicFallsBackToCore)
{
    CmpMachine m(omegaParams(), "omega");
    m.configure(config(100000));
    m.atomicUpdate(atomicOn(0, 90000));
    m.barrier();
    const StatsReport r = m.report();
    EXPECT_EQ(r.atomics_offloaded, 0u);
    EXPECT_EQ(r.atomics_on_core, 1u);
}

TEST(CmpMachineNearMemory, BarrierWaitsForPiscs)
{
    CmpMachine m(omegaParams(), "omega");
    m.configure(config(1000));
    // Queue many atomics on one home PISC; the barrier must cover their
    // completion even though the core fired and forgot.
    for (int i = 0; i < 100; ++i)
        m.atomicUpdate(atomicOn(0, 5));
    m.barrier();
    EXPECT_GE(m.cycles(), 100u * 4u);
}

TEST(CmpMachineNearMemory, SvbCachesRemoteSourceReads)
{
    CmpMachine m(omegaParams(), "omega");
    m.configure(config(1000));
    const VertexId v = 200; // homes on scratchpad 3 (chunk 64)
    // Core 0 reads it repeatedly, as SSSP does per out-edge.
    for (int i = 0; i < 20; ++i)
        m.readSrcProp(0, v, kProp + v * 8ull, 8);
    m.barrier();
    const StatsReport r = m.report();
    EXPECT_EQ(r.svb_misses, 1u);
    EXPECT_EQ(r.svb_hits, 19u);
    EXPECT_EQ(r.sp_remote, 1u);
}

TEST(CmpMachineNearMemory, SvbInvalidatedAtIterationEnd)
{
    CmpMachine m(omegaParams(), "omega");
    m.configure(config(1000));
    const VertexId v = 200;
    m.readSrcProp(0, v, kProp + v * 8ull, 8);
    m.readSrcProp(0, v, kProp + v * 8ull, 8);
    m.endIteration();
    m.readSrcProp(0, v, kProp + v * 8ull, 8);
    m.barrier();
    const StatsReport r = m.report();
    EXPECT_EQ(r.svb_misses, 2u);
    EXPECT_EQ(r.svb_hits, 1u);
}

TEST(CmpMachineNearMemory, LocalSourceReadsBypassSvb)
{
    CmpMachine m(omegaParams(), "omega");
    m.configure(config(1000));
    // Vertex 5 homes on scratchpad 0: local to core 0.
    m.readSrcProp(0, 5, kProp + 5 * 8ull, 8);
    m.barrier();
    const StatsReport r = m.report();
    EXPECT_EQ(r.svb_misses, 0u);
    EXPECT_EQ(r.sp_local, 1u);
}

TEST(CmpMachineNearMemory, SpOnlyModeExecutesAtomicsOnCore)
{
    MachineParams p = omegaParams();
    p.pisc_enabled = false; // section X.A ablation
    CmpMachine m(p, "omega-sp-only");
    m.configure(config(1000));
    m.atomicUpdate(atomicOn(0, 5));
    m.barrier();
    const StatsReport r = m.report();
    EXPECT_EQ(r.atomics_offloaded, 0u);
    EXPECT_EQ(r.atomics_on_core, 1u);
    EXPECT_GT(r.sp_accesses, 0u); // still word-level SP data movement
    EXPECT_GT(r.atomic_stall_cycles, 0u);
}

TEST(CmpMachineNearMemory, SameVertexAtomicConflictsCounted)
{
    CmpMachine m(omegaParams(), "omega");
    m.configure(config(1000));
    // Back-to-back atomics on one vertex arrive while the first is
    // still executing on the home PISC.
    m.atomicUpdate(atomicOn(0, 7));
    m.atomicUpdate(atomicOn(0, 7));
    m.barrier();
    const StatsReport r = m.report();
    EXPECT_GE(r.pisc_blocked_conflicts, 1u);
}

TEST(CmpMachineNearMemory, OnChipTrafficSmallerThanBaselinePerAtomic)
{
    // The headline Fig-17 mechanism: word packets vs line transfers.
    MachineParams bp = MachineParams::baseline();
    bp.l1d.size_bytes = 1024;
    bp.l2.size_bytes = 256 * 1024;
    CmpMachine base(bp, "baseline");
    base.configure(config(1000));
    CmpMachine om(omegaParams(), "omega");
    om.configure(config(1000));
    // Scatter atomics over many vertices from many cores.
    for (unsigned i = 0; i < 1000; ++i) {
        base.atomicUpdate(atomicOn(i % 16, (i * 37) % 1000));
        om.atomicUpdate(atomicOn(i % 16, (i * 37) % 1000));
    }
    base.barrier();
    om.barrier();
    EXPECT_LT(om.report().onchip_bytes, base.report().onchip_bytes / 2);
}

} // namespace
} // namespace omega
