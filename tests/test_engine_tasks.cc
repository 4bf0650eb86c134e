/**
 * @file
 * Tests for the engine's edge-task segmentation: hubs are split across
 * scheduling units (as Ligra parallelizes within high-degree vertices),
 * without changing functional behaviour.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "algorithms/pagerank.hh"
#include "algorithms/reference.hh"
#include "framework/engine.hh"
#include "graph/builder.hh"
#include "graph/generators.hh"
#include "sim/cmp_machine.hh"
#include "util/rng.hh"

namespace omega {
namespace {

/** A star graph: one hub pointing at n-1 spokes. */
Graph
starGraph(VertexId n)
{
    EdgeList edges;
    for (VertexId v = 1; v < n; ++v)
        edges.push_back({0, v, 1});
    return buildGraph(n, std::move(edges));
}

TEST(EngineTasks, UpdateRunsOncePerEdgeRegardlessOfTaskSize)
{
    Graph g = starGraph(1000); // hub degree 999 >> any task cap
    for (const unsigned cap : {8u, 64u, 256u, 4096u}) {
        EngineOptions opts;
        opts.max_edges_per_task = cap;
        PropertyRegistry props(g.numVertices());
        Engine eng(g, props, pageRankUpdateFn(), nullptr, opts);
        std::map<VertexId, int> seen;
        eng.edgeMap(VertexSubset::all(g.numVertices()),
                    [&](unsigned, VertexId, VertexId d, std::int32_t) {
                        ++seen[d];
                        return EdgeUpdateResult{};
                    },
                    false);
        EXPECT_EQ(seen.size(), 999u) << "cap " << cap;
        for (const auto &[v, count] : seen)
            ASSERT_EQ(count, 1) << "cap " << cap << " dst " << v;
    }
}

TEST(EngineTasks, VertexHookRunsOncePerVertexEvenWhenSplit)
{
    Graph g = starGraph(5000);
    EngineOptions opts;
    opts.max_edges_per_task = 64; // hub split into ~78 segments
    PropertyRegistry props(g.numVertices());
    Engine eng(g, props, pageRankUpdateFn(), nullptr, opts);
    std::map<VertexId, int> hooks;
    eng.edgeMap(VertexSubset::all(g.numVertices()),
                [&](unsigned, VertexId, VertexId, std::int32_t) {
                    return EdgeUpdateResult{};
                },
                false, [&](unsigned, VertexId u) { ++hooks[u]; });
    // Only the hub has out-edges but every vertex gets a first segment;
    // the hook fires once for each ACTIVE vertex.
    for (const auto &[v, count] : hooks)
        ASSERT_EQ(count, 1) << v;
    EXPECT_EQ(hooks.size(), g.numVertices());
}

TEST(EngineTasks, HubIsSharedAcrossCores)
{
    Graph g = starGraph(10000);
    EngineOptions opts;
    opts.max_edges_per_task = 64;
    PropertyRegistry props(g.numVertices());
    auto &prop = props.create<double>("p", 0.0);
    CmpMachine mach(
        MachineParams::baseline().scaledCapacities(1.0 / 64), "baseline");
    Engine eng(g, props, pageRankUpdateFn(), &mach, opts);
    eng.setAtomicTarget(&prop);
    eng.configureMachine();

    std::set<unsigned> cores_used;
    eng.edgeMap(VertexSubset::all(g.numVertices()),
                [&](unsigned core, VertexId, VertexId, std::int32_t) {
                    cores_used.insert(core);
                    return EdgeUpdateResult{};
                },
                false);
    // One giant hub: without splitting, exactly one core would process
    // every edge.
    EXPECT_GT(cores_used.size(), 8u);
}

TEST(EngineTasks, SparseModeSplitsHubsToo)
{
    Graph g = starGraph(8000);
    EngineOptions opts;
    opts.max_edges_per_task = 64;
    // Keep the single-vertex frontier in sparse mode.
    opts.dense_threshold_denom = 1;
    PropertyRegistry props(g.numVertices());
    auto &prop = props.create<double>("p", 0.0);
    CmpMachine mach(
        MachineParams::baseline().scaledCapacities(1.0 / 64), "baseline");
    Engine eng(g, props, pageRankUpdateFn(), &mach, opts);
    eng.setAtomicTarget(&prop);
    eng.configureMachine();

    std::set<unsigned> cores_used;
    int edges_seen = 0;
    eng.edgeMap(VertexSubset::single(g.numVertices(), 0),
                [&](unsigned core, VertexId, VertexId, std::int32_t) {
                    cores_used.insert(core);
                    ++edges_seen;
                    return EdgeUpdateResult{};
                },
                false);
    EXPECT_EQ(edges_seen, 7999);
    EXPECT_GT(cores_used.size(), 8u);
}

TEST(EngineTasks, FunctionalResultIndependentOfTaskSize)
{
    Rng rng(5);
    Graph g = buildGraph(1 << 9, generateRmat(9, 10, rng));
    const auto ref = refPageRank(g, 5, 0.85);
    for (const unsigned cap : {4u, 32u, 1024u}) {
        EngineOptions opts;
        opts.max_edges_per_task = cap;
        auto pr = runPageRank(g, nullptr, 5, 0.85, 0.0, opts);
        for (VertexId v = 0; v < g.numVertices(); ++v)
            ASSERT_NEAR(pr.rank[v], ref[v], 1e-9) << "cap " << cap;
    }
}

TEST(EngineTasks, CyclesDeterministicPerTaskSize)
{
    Rng rng(6);
    Graph g = buildGraph(1 << 9, generateRmat(9, 8, rng));
    for (const unsigned cap : {16u, 256u}) {
        EngineOptions opts;
        opts.max_edges_per_task = cap;
        Cycles c1;
        Cycles c2;
        {
            CmpMachine m(
                MachineParams::baseline().scaledCapacities(1.0 / 64),
                "baseline");
            runPageRank(g, &m, 1, 0.85, 0.0, opts);
            c1 = m.cycles();
        }
        {
            CmpMachine m(
                MachineParams::baseline().scaledCapacities(1.0 / 64),
                "baseline");
            runPageRank(g, &m, 1, 0.85, 0.0, opts);
            c2 = m.cycles();
        }
        EXPECT_EQ(c1, c2) << "cap " << cap;
    }
}

TEST(EngineTasks, SplittingReducesTailLatency)
{
    // With a giant hub, coarse tasks leave one core working alone; the
    // split version balances and finishes sooner.
    Graph g = starGraph(20000);
    auto run = [&](unsigned cap) {
        EngineOptions opts;
        opts.max_edges_per_task = cap;
        CmpMachine m(
            MachineParams::baseline().scaledCapacities(1.0 / 64), "baseline");
        PropertyRegistry props(g.numVertices());
        auto &prop = props.create<double>("p", 0.0);
        Engine eng(g, props, pageRankUpdateFn(), &m, opts);
        eng.setAtomicTarget(&prop);
        eng.configureMachine();
        eng.edgeMap(VertexSubset::all(g.numVertices()),
                    [&](unsigned, VertexId, VertexId, std::int32_t) {
                        EdgeUpdateResult r;
                        r.performed_atomic = true;
                        return r;
                    },
                    false);
        eng.finishIteration();
        return m.cycles();
    };
    const Cycles split = run(64);
    const Cycles coarse = run(1u << 30);
    EXPECT_LT(split, coarse / 2);
}

} // namespace
} // namespace omega
