/**
 * @file
 * Tests for graph slicing (paper section VII) and sliced PageRank.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/pagerank.hh"
#include "graph/builder.hh"
#include "graph/generators.hh"
#include "graph/reorder.hh"
#include "graph/slicing.hh"
#include "sim/cmp_machine.hh"
#include "util/rng.hh"

namespace omega {
namespace {

Graph
testGraph(std::uint64_t seed = 3)
{
    Rng rng(seed);
    Graph g = buildGraph(1 << 10, generateRmat(10, 8, rng));
    return reorderGraph(g, ReorderKind::InDegreeSort);
}

TEST(Slicing, PlanCoversAllVerticesWithoutOverlap)
{
    Graph g = testGraph();
    const SlicingPlan plan =
        planSlices(g, /*sp=*/9 * 100, /*line=*/9,
                   SlicingPolicy::FitAllVtxProp);
    ASSERT_FALSE(plan.ranges.empty());
    VertexId expect = 0;
    for (const auto &[begin, end] : plan.ranges) {
        EXPECT_EQ(begin, expect);
        EXPECT_GT(end, begin);
        expect = end;
    }
    EXPECT_EQ(expect, g.numVertices());
}

TEST(Slicing, HotPolicyNeedsFewerSlices)
{
    Graph g = testGraph();
    const auto all = planSlices(g, 9 * 50, 9, SlicingPolicy::FitAllVtxProp);
    const auto hot = planSlices(g, 9 * 50, 9, SlicingPolicy::FitHotVtxProp,
                                0.20);
    // Paper section VII: up to 1/hot_fraction = 5x fewer slices.
    EXPECT_GT(all.numSlices(), hot.numSlices());
    EXPECT_NEAR(static_cast<double>(all.numSlices()) /
                    static_cast<double>(hot.numSlices()),
                5.0, 1.0);
}

TEST(Slicing, GiantScratchpadMeansOneSlice)
{
    Graph g = testGraph();
    const auto plan = planSlices(g, 1ull << 30, 9,
                                 SlicingPolicy::FitAllVtxProp);
    EXPECT_EQ(plan.numSlices(), 1u);
}

TEST(Slicing, SlicePartitionsArcsByDestination)
{
    Graph g = testGraph();
    const auto plan = planSlices(g, 9 * 200, 9,
                                 SlicingPolicy::FitAllVtxProp);
    const auto slices = sliceGraph(g, plan);
    ASSERT_EQ(slices.size(), plan.numSlices());
    EdgeId total_arcs = 0;
    for (std::size_t s = 0; s < slices.size(); ++s) {
        const auto &[begin, end] = plan.ranges[s];
        total_arcs += slices[s].numArcs();
        // Every arc's destination is inside the slice window.
        for (VertexId u = 0; u < slices[s].numVertices(); ++u) {
            for (VertexId d : slices[s].outNeighbors(u)) {
                ASSERT_GE(d, begin);
                ASSERT_LT(d, end);
            }
        }
    }
    EXPECT_EQ(total_arcs, g.numArcs());
}

TEST(Slicing, SliceKeepsVertexIdSpace)
{
    Graph g = testGraph();
    Graph s = sliceByDestination(g, 100, 200);
    EXPECT_EQ(s.numVertices(), g.numVertices());
}

TEST(Slicing, SlicedPageRankMatchesUnsliced)
{
    Graph g = testGraph();
    const auto plan = planSlices(g, 9 * 128, 9,
                                 SlicingPolicy::FitHotVtxProp);
    ASSERT_GT(plan.numSlices(), 1u);
    const auto plain = runPageRank(g, nullptr, 4);
    const auto sliced = runPageRankSliced(g, nullptr, plan, 4);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        ASSERT_NEAR(plain.rank[v], sliced.rank[v], 1e-12) << v;
}

TEST(Slicing, SlicedRunWorksWithNearMemoryUnit)
{
    Graph g = testGraph();
    MachineParams p = MachineParams::omega().scaledCapacities(1.0 / 256);
    const std::uint32_t line = 9;
    const auto plan =
        planSlices(g, p.sp_total_bytes, line, SlicingPolicy::FitHotVtxProp);
    CmpMachine m(p, "omega");
    const auto sliced = runPageRankSliced(g, &m, plan, 2);
    const auto plain = runPageRank(g, nullptr, 2);
    EXPECT_GT(m.cycles(), 0u);
    EXPECT_GT(m.report().atomics_offloaded, 0u);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        ASSERT_NEAR(plain.rank[v], sliced.rank[v], 1e-9) << v;
}

} // namespace
} // namespace omega
