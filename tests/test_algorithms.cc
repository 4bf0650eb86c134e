/**
 * @file
 * Functional correctness of all eight algorithms against serial
 * references, parameterized over graph families and seeds.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "algorithms/algorithms.hh"
#include "algorithms/bc.hh"
#include "algorithms/bfs.hh"
#include "algorithms/components.hh"
#include "algorithms/kcore.hh"
#include "algorithms/pagerank.hh"
#include "algorithms/radii.hh"
#include "algorithms/reference.hh"
#include "algorithms/sssp.hh"
#include "algorithms/triangle.hh"
#include "graph/builder.hh"
#include "graph/generators.hh"
#include "graph/reorder.hh"
#include "sim/cmp_machine.hh"
#include "util/rng.hh"

namespace omega {
namespace {

enum class Family { Rmat, Road, Ba };

struct Case
{
    Family family;
    std::uint64_t seed;
};

std::string
caseName(const ::testing::TestParamInfo<Case> &info)
{
    const char *fam = info.param.family == Family::Rmat  ? "rmat"
                      : info.param.family == Family::Road ? "road"
                                                          : "ba";
    return std::string(fam) + "_seed" + std::to_string(info.param.seed);
}

Graph
makeGraph(const Case &c, bool symmetric)
{
    Rng rng(c.seed);
    EdgeList edges;
    VertexId n = 0;
    switch (c.family) {
      case Family::Rmat:
        n = 1 << 10;
        edges = generateRmat(10, 8, rng);
        break;
      case Family::Road:
        n = 30 * 34;
        edges = generateRoadMesh(30, 34, 0.1, 0.05, rng);
        break;
      case Family::Ba:
        n = 800;
        edges = generateBarabasiAlbert(800, 3, rng);
        break;
    }
    BuildOptions opts;
    opts.symmetrize = symmetric || c.family != Family::Rmat;
    return buildGraph(n, std::move(edges), opts);
}

class AlgoCorrectness : public ::testing::TestWithParam<Case>
{
};

TEST_P(AlgoCorrectness, PageRankMatchesReference)
{
    Graph g = makeGraph(GetParam(), false);
    auto pr = runPageRank(g, nullptr, 10);
    auto ref = refPageRank(g, 10, 0.85);
    double max_err = 0.0;
    for (VertexId v = 0; v < g.numVertices(); ++v)
        max_err = std::max(max_err, std::abs(pr.rank[v] - ref[v]));
    EXPECT_LT(max_err, 1e-9);
}

TEST_P(AlgoCorrectness, PageRankSumsToOneWithoutSinks)
{
    // When every vertex has out-edges the total rank mass is conserved
    // at 1 (isolated vertices leak mass, so skip graphs that have any).
    Graph g = makeGraph(GetParam(), true);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (g.outDegree(v) == 0)
            GTEST_SKIP() << "graph has isolated vertices";
    }
    auto pr = runPageRank(g, nullptr, 8);
    double sum = 0.0;
    for (double r : pr.rank)
        sum += r;
    EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST_P(AlgoCorrectness, BfsParentsFormValidTree)
{
    Graph g = makeGraph(GetParam(), false);
    const VertexId root = defaultRoot(g);
    auto bfs = runBfs(g, root);
    auto depth = refBfsDepths(g, root);

    VertexId reached = 0;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        // Reachability agrees with the reference.
        ASSERT_EQ(bfs.parent[v] != -1, depth[v] != -1) << v;
        if (bfs.parent[v] == -1)
            continue;
        ++reached;
        if (v == root) {
            EXPECT_EQ(bfs.parent[v], static_cast<std::int32_t>(root));
            continue;
        }
        // Parent is exactly one BFS level above.
        const auto p = static_cast<VertexId>(bfs.parent[v]);
        EXPECT_EQ(depth[v], depth[p] + 1) << v;
        // And the edge parent->v exists.
        const auto nbrs = g.outNeighbors(p);
        EXPECT_TRUE(std::find(nbrs.begin(), nbrs.end(), v) != nbrs.end());
    }
    EXPECT_EQ(reached, bfs.reached);
    // Round count equals the max depth.
    std::int32_t max_depth = 0;
    for (auto d : depth)
        max_depth = std::max(max_depth, d);
    EXPECT_EQ(bfs.rounds, static_cast<unsigned>(max_depth) + 1);
}

TEST_P(AlgoCorrectness, SsspMatchesDijkstra)
{
    Graph g = makeGraph(GetParam(), false);
    const VertexId root = defaultRoot(g);
    auto sp = runSssp(g, root);
    auto ref = refDijkstra(g, root);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        ASSERT_EQ(sp.dist[v], ref[v]) << "vertex " << v;
}

TEST_P(AlgoCorrectness, BcForwardMatchesReference)
{
    Graph g = makeGraph(GetParam(), false);
    const VertexId root = defaultRoot(g);
    auto bc = runBcForward(g, root);
    auto [sigma, depth] = refBcForward(g, root);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        ASSERT_EQ(bc.depth[v], depth[v]) << v;
        ASSERT_NEAR(bc.sigma[v], sigma[v], 1e-6) << v;
    }
}

TEST_P(AlgoCorrectness, ComponentsMatchReference)
{
    Graph g = makeGraph(GetParam(), true);
    auto cc = runComponents(g);
    auto ref = refComponents(g);
    // Same partition: labels must induce identical equivalence classes.
    std::set<std::uint32_t> ours;
    std::set<std::uint32_t> theirs;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        ours.insert(cc.label[v]);
        theirs.insert(ref[v]);
        // Min-label propagation also yields the min member id.
        ASSERT_EQ(cc.label[v], ref[v]) << v;
    }
    EXPECT_EQ(cc.num_components, theirs.size());
}

TEST_P(AlgoCorrectness, TriangleCountMatchesReference)
{
    Graph g = makeGraph(GetParam(), true);
    auto tc = runTriangleCount(g);
    EXPECT_EQ(tc.triangles, refTriangles(g));
}

TEST_P(AlgoCorrectness, CorenessMatchesReference)
{
    Graph g = makeGraph(GetParam(), true);
    auto kc = runKCore(g);
    auto ref = refCoreness(g);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        ASSERT_EQ(kc.coreness[v], ref[v]) << v;
    std::int32_t max_core = 0;
    for (auto c : ref)
        max_core = std::max(max_core, c);
    EXPECT_EQ(kc.degeneracy, max_core);
}

/** Replicate runRadii's source sampling (same RNG recipe). */
std::vector<VertexId>
sampledSources(VertexId n, unsigned sample, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<VertexId> sources;
    while (sources.size() < sample) {
        const auto v = static_cast<VertexId>(rng.nextBounded(n));
        if (std::find(sources.begin(), sources.end(), v) == sources.end())
            sources.push_back(v);
    }
    return sources;
}

TEST_P(AlgoCorrectness, RadiiSingleSourceEqualsBfsDepth)
{
    Graph g = makeGraph(GetParam(), true);
    const std::uint64_t seed = GetParam().seed;
    RadiiResult r = runRadii(g, nullptr, 1, seed);
    const VertexId src = sampledSources(g.numVertices(), 1, seed)[0];
    auto depth = refBfsDepths(g, src);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        ASSERT_EQ(r.radii[v], depth[v]) << v;
}

TEST_P(AlgoCorrectness, RadiiMultiSourceIsMaxOfDepths)
{
    Graph g = makeGraph(GetParam(), true);
    const std::uint64_t seed = GetParam().seed + 3;
    RadiiResult r = runRadii(g, nullptr, 8, seed);
    const auto sources = sampledSources(g.numVertices(), 8, seed);
    // The estimate equals the max BFS depth over the sources reaching v.
    std::vector<std::int32_t> expect(g.numVertices(), -1);
    for (VertexId s : sources) {
        auto depth = refBfsDepths(g, s);
        for (VertexId v = 0; v < g.numVertices(); ++v)
            expect[v] = std::max(expect[v], depth[v]);
    }
    std::int32_t max_expect = 0;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        ASSERT_EQ(r.radii[v], expect[v]) << v;
        max_expect = std::max(max_expect, expect[v]);
    }
    EXPECT_EQ(r.max_radius, max_expect);
}

INSTANTIATE_TEST_SUITE_P(
    Families, AlgoCorrectness,
    ::testing::Values(Case{Family::Rmat, 1}, Case{Family::Rmat, 2},
                      Case{Family::Rmat, 3}, Case{Family::Road, 1},
                      Case{Family::Road, 2}, Case{Family::Ba, 1},
                      Case{Family::Ba, 2}),
    caseName);

TEST(AlgorithmRegistry, HasEightEntriesWithTable2Metadata)
{
    const auto &all = allAlgorithms();
    ASSERT_EQ(all.size(), 8u);
    EXPECT_EQ(algorithmMeta(AlgorithmKind::PageRank).vtxprop_bytes, 8u);
    EXPECT_EQ(algorithmMeta(AlgorithmKind::BFS).vtxprop_bytes, 4u);
    EXPECT_EQ(algorithmMeta(AlgorithmKind::Radii).vtxprop_bytes, 12u);
    EXPECT_EQ(algorithmMeta(AlgorithmKind::Radii).num_props, 3u);
    EXPECT_TRUE(algorithmMeta(AlgorithmKind::SSSP).reads_src_prop);
    EXPECT_FALSE(algorithmMeta(AlgorithmKind::PageRank).has_active_list);
    EXPECT_TRUE(algorithmMeta(AlgorithmKind::TC).needs_symmetric);
}

TEST(AlgorithmRegistry, FindByName)
{
    EXPECT_EQ(*findAlgorithm("pagerank"), AlgorithmKind::PageRank);
    EXPECT_EQ(*findAlgorithm("BFS"), AlgorithmKind::BFS);
    EXPECT_FALSE(findAlgorithm("nope").has_value());
}

TEST(AlgorithmRegistry, DefaultRootHasMaxOutDegree)
{
    EdgeList edges{{3, 0, 1}, {3, 1, 1}, {3, 2, 1}, {0, 1, 1}};
    Graph g = buildGraph(4, std::move(edges));
    EXPECT_EQ(defaultRoot(g), 3u);
}

TEST_P(AlgoCorrectness, BrandesMatchesReference)
{
    Graph g = makeGraph(GetParam(), true);
    const VertexId root = defaultRoot(g);
    auto full = runBcBrandes(g, root);
    auto ref = refBrandes(g, root);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        ASSERT_NEAR(full.centrality[v], ref[v], 1e-6) << v;
    // The root itself has zero dependency, and unreachable vertices too.
    EXPECT_DOUBLE_EQ(full.centrality[root], 0.0);
}

TEST(Brandes, RunsOnBothMachines)
{
    Rng rng(21);
    Graph g = buildGraph(1 << 9, generateRmat(9, 8, rng),
                         {.symmetrize = true});
    g = reorderGraph(g, ReorderKind::InDegreeNthElement);
    const VertexId root = defaultRoot(g);
    auto pure = runBcBrandes(g, root, nullptr);
    CmpMachine om(MachineParams::omega().scaledCapacities(1.0 / 64), "omega");
    auto on_omega = runBcBrandes(g, root, &om);
    EXPECT_GT(om.cycles(), 0u);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        ASSERT_NEAR(pure.centrality[v], on_omega.centrality[v], 1e-9);
}

TEST(PullMode, PageRankPullMatchesReference)
{
    Rng rng(17);
    Graph g = buildGraph(1 << 10, generateRmat(10, 8, rng));
    auto pull = runPageRankPull(g, nullptr, 6);
    auto ref = refPageRank(g, 6, 0.85);
    double max_err = 0.0;
    for (VertexId v = 0; v < g.numVertices(); ++v)
        max_err = std::max(max_err, std::abs(pull.rank[v] - ref[v]));
    EXPECT_LT(max_err, 1e-9);
}

TEST(PullMode, PullHasNoAtomicsOnAnyMachine)
{
    Rng rng(18);
    Graph g = buildGraph(1 << 9, generateRmat(9, 8, rng));
    g = reorderGraph(g, ReorderKind::InDegreeNthElement);
    CmpMachine base(MachineParams::baseline().scaledCapacities(1.0 / 64),
                    "baseline");
    runPageRankPull(g, &base, 1);
    EXPECT_EQ(base.report().atomics_total, 0u);
    EXPECT_GT(base.cycles(), 0u);

    CmpMachine om(MachineParams::omega().scaledCapacities(1.0 / 64), "omega");
    runPageRankPull(g, &om, 1);
    EXPECT_EQ(om.report().atomics_total, 0u);
    // The random source reads route to the scratchpads instead.
    EXPECT_GT(om.report().sp_accesses, g.numArcs() / 2);
}

TEST(PullMode, PushAndPullAgreeThroughMachines)
{
    Rng rng(19);
    Graph g = buildGraph(1 << 9, generateRmat(9, 8, rng));
    CmpMachine om(MachineParams::omega().scaledCapacities(1.0 / 64), "omega");
    auto pull = runPageRankPull(g, &om, 3);
    auto push = runPageRank(g, nullptr, 3);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        ASSERT_NEAR(pull.rank[v], push.rank[v], 1e-9) << v;
}

TEST(UpdateFnFactories, MatchTable2AtomicTypes)
{
    EXPECT_EQ(pageRankUpdateFn().steps[0].op, PiscAluOp::FpAdd);
    EXPECT_EQ(bfsUpdateFn().steps[0].op, PiscAluOp::UnsignedComp);
    EXPECT_EQ(ssspUpdateFn().steps[0].op, PiscAluOp::SignedMin);
    EXPECT_EQ(ccUpdateFn().steps[0].op, PiscAluOp::SignedMin);
    EXPECT_EQ(kcoreUpdateFn().steps[0].op, PiscAluOp::SignedAdd);
    EXPECT_TRUE(ssspUpdateFn().reads_src_prop);
    EXPECT_FALSE(bfsUpdateFn().reads_src_prop);
}

} // namespace
} // namespace omega
