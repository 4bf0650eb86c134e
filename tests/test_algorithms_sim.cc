/**
 * @file
 * Algorithms driven through the simulated machines: functional results
 * must be unchanged, counters must be consistent, and the OMEGA machine
 * must show the paper's qualitative behaviour on power-law graphs.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/algorithms.hh"
#include "algorithms/bfs.hh"
#include "algorithms/pagerank.hh"
#include "algorithms/reference.hh"
#include "algorithms/sssp.hh"
#include "graph/builder.hh"
#include "graph/generators.hh"
#include "graph/reorder.hh"
#include "sim/cmp_machine.hh"
#include "util/rng.hh"

namespace omega {
namespace {

constexpr double kScale = 1.0 / 64.0;

Graph
powerLawGraph(std::uint64_t seed = 11)
{
    Rng rng(seed);
    Graph g = buildGraph(1 << 11, generateRmat(11, 12, rng));
    return reorderGraph(g, ReorderKind::InDegreeNthElement);
}

TEST(AlgoSim, BfsResultIdenticalOnBothMachines)
{
    Graph g = powerLawGraph();
    const VertexId root = defaultRoot(g);
    auto pure = runBfs(g, root, nullptr);

    CmpMachine base(MachineParams::baseline().scaledCapacities(kScale),
                    "baseline");
    auto on_base = runBfs(g, root, &base);
    CmpMachine om(MachineParams::omega().scaledCapacities(kScale), "omega");
    auto on_omega = runBfs(g, root, &om);

    EXPECT_EQ(pure.reached, on_base.reached);
    EXPECT_EQ(pure.reached, on_omega.reached);
    EXPECT_EQ(pure.rounds, on_omega.rounds);
    // Reachability sets identical (parent choice may differ with order).
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        EXPECT_EQ(pure.parent[v] == -1, on_base.parent[v] == -1);
        EXPECT_EQ(pure.parent[v] == -1, on_omega.parent[v] == -1);
    }
}

TEST(AlgoSim, SsspExactOnBothMachines)
{
    Graph g = powerLawGraph(5);
    const VertexId root = defaultRoot(g);
    auto ref = refDijkstra(g, root);

    CmpMachine base(MachineParams::baseline().scaledCapacities(kScale),
                    "baseline");
    auto on_base = runSssp(g, root, &base);
    CmpMachine om(MachineParams::omega().scaledCapacities(kScale), "omega");
    auto on_omega = runSssp(g, root, &om);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        ASSERT_EQ(on_base.dist[v], ref[v]);
        ASSERT_EQ(on_omega.dist[v], ref[v]);
    }
}

TEST(AlgoSim, CyclesAreDeterministic)
{
    Graph g = powerLawGraph(7);
    Cycles c1;
    Cycles c2;
    {
        CmpMachine m(
            MachineParams::baseline().scaledCapacities(kScale), "baseline");
        c1 = runAlgorithmOnMachine(AlgorithmKind::PageRank, g, &m);
    }
    {
        CmpMachine m(
            MachineParams::baseline().scaledCapacities(kScale), "baseline");
        c2 = runAlgorithmOnMachine(AlgorithmKind::PageRank, g, &m);
    }
    EXPECT_EQ(c1, c2);
    EXPECT_GT(c1, 0u);
}

TEST(AlgoSim, OmegaSpeedsUpPageRankOnPowerLaw)
{
    Graph g = powerLawGraph(3);
    CmpMachine base(MachineParams::baseline().scaledCapacities(kScale),
                    "baseline");
    CmpMachine om(MachineParams::omega().scaledCapacities(kScale), "omega");
    const Cycles cb =
        runAlgorithmOnMachine(AlgorithmKind::PageRank, g, &base);
    const Cycles co = runAlgorithmOnMachine(AlgorithmKind::PageRank, g, &om);
    EXPECT_GT(static_cast<double>(cb) / static_cast<double>(co), 1.3);
}

TEST(AlgoSim, OmegaOffloadsMostAtomicsOnPowerLaw)
{
    Graph g = powerLawGraph(3);
    CmpMachine om(MachineParams::omega().scaledCapacities(kScale), "omega");
    runAlgorithmOnMachine(AlgorithmKind::PageRank, g, &om);
    const StatsReport r = om.report();
    EXPECT_GT(r.atomics_total, 0u);
    EXPECT_GT(static_cast<double>(r.atomics_offloaded) /
                  static_cast<double>(r.atomics_total),
              0.9);
}

TEST(AlgoSim, HotFractionHighOnPowerLawLowOnRoad)
{
    Graph pl = powerLawGraph(9);
    CmpMachine m1(MachineParams::baseline().scaledCapacities(kScale),
                  "baseline");
    runAlgorithmOnMachine(AlgorithmKind::PageRank, pl, &m1);
    const double hot_pl = m1.report().hotVertexAccessFraction();
    EXPECT_GT(hot_pl, 0.6); // paper Fig 4(b): >75% on natural graphs

    Rng rng(2);
    Graph road = buildGraph(48 * 48,
                            generateRoadMesh(48, 48, 0.1, 0.05, rng),
                            {.symmetrize = true});
    road = reorderGraph(road, ReorderKind::InDegreeNthElement);
    CmpMachine m2(MachineParams::baseline().scaledCapacities(kScale),
                  "baseline");
    runAlgorithmOnMachine(AlgorithmKind::PageRank, road, &m2);
    const double hot_road = m2.report().hotVertexAccessFraction();
    EXPECT_LT(hot_road, 0.45); // ~20% + epsilon on uniform graphs
}

TEST(AlgoSim, EveryAlgorithmRunsOnBothMachines)
{
    Rng rng(4);
    Graph g = buildGraph(1 << 9, generateRmat(9, 8, rng),
                         {.symmetrize = true});
    g = reorderGraph(g, ReorderKind::InDegreeNthElement);
    for (const auto &meta : allAlgorithms()) {
        CmpMachine base(
            MachineParams::baseline().scaledCapacities(kScale), "baseline");
        CmpMachine om(MachineParams::omega().scaledCapacities(kScale), "omega");
        const Cycles cb = runAlgorithmOnMachine(meta.kind, g, &base);
        const Cycles co = runAlgorithmOnMachine(meta.kind, g, &om);
        EXPECT_GT(cb, 0u) << meta.name;
        EXPECT_GT(co, 0u) << meta.name;
        EXPECT_GT(base.report().l1_accesses, 0u) << meta.name;
    }
}

TEST(AlgoSim, SrcPropReadsHitSvbForSssp)
{
    // Sparse frontiers scatter sources across cores regardless of their
    // scratchpad home, so the per-edge ShortestLen re-reads go remote —
    // the paper's Fig-11 case. A road mesh has a high diameter and stays
    // in sparse mode for many rounds.
    Rng rng(2);
    Graph g = buildGraph(40 * 40, generateRoadMesh(40, 40, 0.1, 0.05, rng),
                         {.symmetrize = true});
    g = reorderGraph(g, ReorderKind::InDegreeNthElement);
    CmpMachine om(MachineParams::omega().scaledCapacities(kScale), "omega");
    runAlgorithmOnMachine(AlgorithmKind::SSSP, g, &om);
    const StatsReport r = om.report();
    EXPECT_GT(r.svb_hits + r.svb_misses, 0u);
    // The first remote read per (source, iteration) misses; the per-edge
    // repeats hit. Degree ~4 means a hit rate around 2/3.
    EXPECT_GT(static_cast<double>(r.svb_hits) /
                  static_cast<double>(r.svb_hits + r.svb_misses),
              0.4);
}

TEST(AlgoSim, DenseModeKeepsSourceReadsLocal)
{
    // Section V.D: with the scratchpad chunk matched to the schedule
    // chunk, the dense-forward sweep reads each source's vtxProp from
    // the LOCAL scratchpad.
    Graph g = powerLawGraph(6);
    CmpMachine om(MachineParams::omega().scaledCapacities(kScale), "omega");
    runAlgorithmOnMachine(AlgorithmKind::SSSP, g, &om);
    const StatsReport r = om.report();
    EXPECT_GT(r.sp_local, 0u);
    EXPECT_GT(static_cast<double>(r.sp_local),
              0.9 * static_cast<double>(r.sp_local + r.sp_remote));
}

TEST(AlgoSim, StatsInternallyConsistent)
{
    Graph g = powerLawGraph(8);
    CmpMachine om(MachineParams::omega().scaledCapacities(kScale), "omega");
    runAlgorithmOnMachine(AlgorithmKind::PageRank, g, &om);
    const StatsReport r = om.report();
    EXPECT_LE(r.l1_hits, r.l1_accesses);
    EXPECT_LE(r.l2_hits, r.l2_accesses);
    EXPECT_LE(r.vtxprop_hot_accesses, r.vtxprop_accesses);
    EXPECT_EQ(r.atomics_total, r.atomics_offloaded + r.atomics_on_core);
    EXPECT_EQ(r.pisc_ops, r.atomics_offloaded);
    EXPECT_LE(r.sp_local + r.sp_remote, r.sp_accesses + r.pisc_ops);
    EXPECT_GE(r.cycles,
              (r.compute_cycles + r.mem_stall_cycles +
               r.atomic_stall_cycles + r.sync_stall_cycles) /
                  (om.params().num_cores + 1));
}

TEST(AlgoSim, ScratchpadOnlyIsSlowerThanFullOmega)
{
    // Section X.A: scratchpads without PISCs forgo most of the benefit.
    Graph g = powerLawGraph(3);
    CmpMachine full(MachineParams::omega().scaledCapacities(kScale), "omega");
    CmpMachine sp_only(
        MachineParams::omegaScratchpadOnly().scaledCapacities(kScale),
        "omega-sp-only");
    const Cycles cf =
        runAlgorithmOnMachine(AlgorithmKind::PageRank, g, &full);
    const Cycles cs =
        runAlgorithmOnMachine(AlgorithmKind::PageRank, g, &sp_only);
    EXPECT_LT(cf, cs);
}

TEST(AlgoSim, MemoryBoundFractionIsHighOnBaseline)
{
    // Fig 3: graph workloads are ~70% memory bound on the baseline. The
    // graph must exceed the scaled LLC for the off-chip regime to show.
    Rng rng(13);
    Graph g = buildGraph(1 << 13, generateRmat(13, 12, rng));
    g = reorderGraph(g, ReorderKind::InDegreeNthElement);
    CmpMachine base(
        MachineParams::baseline().scaledCapacities(1.0 / 512), "baseline");
    runAlgorithmOnMachine(AlgorithmKind::PageRank, g, &base);
    EXPECT_GT(base.report().memoryBoundFraction(), 0.5);
}

} // namespace
} // namespace omega
