/**
 * @file
 * Tests for VertexSubset, the static scheduler and the Engine runtime
 * (functional behaviour + event emission).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "algorithms/bfs.hh"
#include "algorithms/pagerank.hh"
#include "algorithms/triangle.hh"
#include "framework/engine.hh"
#include "framework/scheduler.hh"
#include "framework/vertex_subset.hh"
#include "graph/builder.hh"
#include "graph/generators.hh"
#include "sim/cmp_machine.hh"
#include "sim/machine_registry.hh"
#include "testing/fuzz.hh"
#include "util/json.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace omega {
namespace {

TEST(VertexSubset, SingleAndAll)
{
    auto s = VertexSubset::single(10, 3);
    EXPECT_EQ(s.size(), 1u);
    EXPECT_TRUE(s.contains(3));
    EXPECT_FALSE(s.contains(4));
    auto a = VertexSubset::all(5);
    EXPECT_EQ(a.size(), 5u);
    EXPECT_TRUE(a.isDense());
    EXPECT_TRUE(a.contains(4));
}

TEST(VertexSubset, ConversionsPreserveMembership)
{
    auto s = VertexSubset::fromSparse(10, {1, 5, 9});
    EXPECT_FALSE(s.isDense());
    s.toDense();
    EXPECT_TRUE(s.isDense());
    EXPECT_EQ(s.size(), 3u);
    EXPECT_TRUE(s.contains(5));
    EXPECT_FALSE(s.contains(4));
    s.toSparse();
    EXPECT_EQ(s.sparse().size(), 3u);
    EXPECT_EQ(s.sparse()[0], 1u);
    EXPECT_EQ(s.sparse()[2], 9u);
}

TEST(VertexSubset, FromDenseCountsActive)
{
    auto s = VertexSubset::fromDense({0, 1, 1, 0, 1});
    EXPECT_EQ(s.size(), 3u);
    EXPECT_EQ(s.numVertices(), 5u);
}

TEST(VertexSubset, EmptyBehaviour)
{
    VertexSubset s(4);
    EXPECT_TRUE(s.empty());
    s.toDense();
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.size(), 0u);
}

TEST(VertexSubset, FromSparseDeduplicatesKeepingOrder)
{
    auto s = VertexSubset::fromSparse(10, {5, 1, 5, 9, 1, 5});
    EXPECT_EQ(s.size(), 3u);
    EXPECT_EQ(s.sparse(), (std::vector<VertexId>{5, 1, 9}));
    EXPECT_TRUE(s.contains(5));
    EXPECT_TRUE(s.contains(1));
    EXPECT_TRUE(s.contains(9));
    EXPECT_FALSE(s.contains(0));
}

TEST(VertexSubset, SizeAgreesWithDensePopcountAfterSwitch)
{
    // Regression: duplicates used to survive fromSparse while toDense
    // kept the stale sparse count, so size() disagreed with the dense
    // popcount after a sparse -> dense switch.
    auto s = VertexSubset::fromSparse(8, {2, 2, 7, 2, 7});
    EXPECT_EQ(s.size(), 2u);
    s.toDense();
    VertexId popcount = 0;
    for (VertexId v = 0; v < s.numVertices(); ++v)
        popcount += s.dense()[v] != 0;
    EXPECT_EQ(s.size(), popcount);
    EXPECT_EQ(s.size(), 2u);
    s.toSparse();
    EXPECT_EQ(s.size(), 2u);
    EXPECT_EQ(s.sparse(), (std::vector<VertexId>{2, 7}));
}

TEST(VertexSubset, ContainsWorksAcrossConversions)
{
    auto s = VertexSubset::fromSparse(64, {3, 17, 40});
    for (VertexId v = 0; v < 64; ++v)
        EXPECT_EQ(s.contains(v), v == 3 || v == 17 || v == 40);
    s.toDense();
    for (VertexId v = 0; v < 64; ++v)
        EXPECT_EQ(s.contains(v), v == 3 || v == 17 || v == 40);
    s.toSparse();
    for (VertexId v = 0; v < 64; ++v)
        EXPECT_EQ(s.contains(v), v == 3 || v == 17 || v == 40);
}

TEST(Scheduler, CoversAllItemsExactlyOnce)
{
    StaticScheduler sched(103, 4, 8);
    std::set<std::uint64_t> seen;
    while (!sched.done()) {
        for (unsigned c = 0; c < 4; ++c) {
            if (auto i = sched.next(c)) {
                EXPECT_TRUE(seen.insert(*i).second);
            }
        }
    }
    EXPECT_EQ(seen.size(), 103u);
}

TEST(Scheduler, ChunkAssignmentIsOpenMpStatic)
{
    // schedule(static, 4) over 3 cores: core 0 gets 0-3, 12-15, ...
    StaticScheduler sched(24, 3, 4);
    std::vector<std::uint64_t> core0;
    while (auto i = sched.next(0))
        core0.push_back(*i);
    EXPECT_EQ(core0,
              (std::vector<std::uint64_t>{0, 1, 2, 3, 12, 13, 14, 15}));
}

TEST(Scheduler, PeekDoesNotConsume)
{
    StaticScheduler sched(10, 2, 2);
    EXPECT_EQ(*sched.peek(1), 2u);
    EXPECT_EQ(*sched.peek(1), 2u);
    EXPECT_EQ(*sched.next(1), 2u);
    EXPECT_EQ(*sched.peek(1), 3u);
}

TEST(Scheduler, RemainingCountsDown)
{
    StaticScheduler sched(5, 2, 2);
    EXPECT_EQ(sched.remaining(), 5u);
    sched.next(0);
    EXPECT_EQ(sched.remaining(), 4u);
}

// --- Engine tests -----------------------------------------------------

Graph
chainGraph(VertexId n)
{
    EdgeList edges;
    for (VertexId v = 0; v + 1 < n; ++v)
        edges.push_back({v, v + 1, 1});
    return buildGraph(n, std::move(edges));
}

TEST(Engine, FunctionalEdgeMapVisitsAllEdges)
{
    Graph g = chainGraph(50);
    PropertyRegistry props(50);
    Engine eng(g, props, pageRankUpdateFn(), nullptr);
    int visits = 0;
    eng.edgeMap(VertexSubset::all(50),
                [&](unsigned, VertexId, VertexId, std::int32_t) {
                    ++visits;
                    return EdgeUpdateResult{};
                },
                false);
    EXPECT_EQ(visits, 49);
}

TEST(Engine, SparseEdgeMapProducesNextFrontier)
{
    Graph g = chainGraph(10);
    PropertyRegistry props(10);
    Engine eng(g, props, bfsUpdateFn(), nullptr);
    auto next = eng.edgeMap(
        VertexSubset::single(10, 0),
        [&](unsigned, VertexId, VertexId, std::int32_t) {
            EdgeUpdateResult r;
            r.activated = true;
            return r;
        });
    EXPECT_EQ(next.size(), 1u);
    EXPECT_TRUE(next.contains(1));
}

TEST(Engine, ActivationIsDeduplicated)
{
    // Two sources pointing at the same destination: one activation.
    EdgeList edges{{0, 2, 1}, {1, 2, 1}};
    Graph g = buildGraph(3, std::move(edges));
    PropertyRegistry props(3);
    Engine eng(g, props, bfsUpdateFn(), nullptr);
    auto next = eng.edgeMap(
        VertexSubset::fromSparse(3, {0, 1}),
        [&](unsigned, VertexId, VertexId, std::int32_t) {
            EdgeUpdateResult r;
            r.activated = true;
            return r;
        });
    EXPECT_EQ(next.size(), 1u);
}

TEST(Engine, DenseSwitchOnLargeFrontier)
{
    // A frontier whose out-degree sum exceeds arcs/20 must process
    // dense and return a dense subset.
    Rng rng(3);
    Graph g = buildGraph(1 << 8, generateRmat(8, 8, rng));
    PropertyRegistry props(g.numVertices());
    Engine eng(g, props, bfsUpdateFn(), nullptr);
    std::vector<VertexId> half;
    for (VertexId v = 0; v < g.numVertices(); v += 2)
        half.push_back(v);
    auto next = eng.edgeMap(
        VertexSubset::fromSparse(g.numVertices(), half),
        [&](unsigned, VertexId, VertexId, std::int32_t) {
            EdgeUpdateResult r;
            r.activated = true;
            return r;
        });
    EXPECT_TRUE(next.isDense());
}

TEST(Engine, DuplicateFrontierThroughDenseSwitch)
{
    // Regression: a frontier built with duplicate ids used to carry an
    // inflated size() across the sparse -> dense threshold switch, so
    // the dense pass disagreed with the deduplicated membership.
    Rng rng(3);
    Graph g = buildGraph(1 << 8, generateRmat(8, 8, rng));
    PropertyRegistry props(g.numVertices());
    std::vector<VertexId> ids;
    for (VertexId v = 0; v < g.numVertices(); v += 2) {
        ids.push_back(v);
        ids.push_back(v); // every id twice
    }
    auto frontier = VertexSubset::fromSparse(g.numVertices(), ids);
    EXPECT_EQ(frontier.size(), g.numVertices() / 2);

    Engine dup_eng(g, props, bfsUpdateFn(), nullptr);
    std::uint64_t dup_visits = 0;
    auto next = dup_eng.edgeMap(
        std::move(frontier),
        [&](unsigned, VertexId, VertexId, std::int32_t) {
            ++dup_visits;
            EdgeUpdateResult r;
            r.activated = true;
            return r;
        });
    EXPECT_TRUE(next.isDense());

    // Same frontier without duplicates must see identical edge traffic
    // and produce the same next frontier.
    std::vector<VertexId> half;
    for (VertexId v = 0; v < g.numVertices(); v += 2)
        half.push_back(v);
    PropertyRegistry props2(g.numVertices());
    Engine ref_eng(g, props2, bfsUpdateFn(), nullptr);
    std::uint64_t ref_visits = 0;
    auto ref_next = ref_eng.edgeMap(
        VertexSubset::fromSparse(g.numVertices(), half),
        [&](unsigned, VertexId, VertexId, std::int32_t) {
            ++ref_visits;
            EdgeUpdateResult r;
            r.activated = true;
            return r;
        });
    EXPECT_EQ(dup_visits, ref_visits);
    EXPECT_EQ(next.size(), ref_next.size());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_EQ(next.contains(v), ref_next.contains(v));
}

/** Machine stub that records the MachineConfig it was handed. */
class ConfigCaptureMachine final : public MemorySystem
{
  public:
    ConfigCaptureMachine() : params_(MachineParams::baseline()) {}

    void configure(const MachineConfig &config) override
    {
        config_ = config;
        configured_ = true;
    }
    void compute(unsigned, std::uint64_t) override {}
    void memAccess(const MemAccess &) override {}
    void readSrcProp(unsigned, VertexId, std::uint64_t,
                     std::uint32_t) override
    {
    }
    void atomicUpdate(const AtomicRequest &) override {}
    void barrier() override {}
    void endIteration() override {}
    Cycles coreNow(unsigned) const override { return 0; }
    Cycles cycles() const override { return 0; }
    StatsReport report() const override { return {}; }
    const MachineParams &params() const override { return params_; }
    std::string name() const override { return "config-capture"; }

    MachineConfig config_;
    bool configured_ = false;

  private:
    MachineParams params_;
};

TEST(Engine, HotBoundaryDefaultsClampToAtLeastOne)
{
    // 0.2 * n truncates to 0 for n < 5; the default must still mark at
    // least one vertex hot so an explicit 0 stays distinguishable.
    for (VertexId n : {1u, 2u, 3u, 4u}) {
        Graph g = chainGraph(n);
        PropertyRegistry props(n);
        ConfigCaptureMachine mach;
        Engine eng(g, props, pageRankUpdateFn(), &mach);
        eng.configureMachine();
        ASSERT_TRUE(mach.configured_);
        EXPECT_EQ(mach.config_.hot_boundary, 1u) << "n=" << n;
    }
    // Above the truncation regime the 20% cut is unchanged.
    Graph g = chainGraph(100);
    PropertyRegistry props(100);
    ConfigCaptureMachine mach;
    Engine eng(g, props, pageRankUpdateFn(), &mach);
    eng.configureMachine();
    EXPECT_EQ(mach.config_.hot_boundary, 20u);
    // An explicit boundary passes through untouched.
    eng.configureMachine(7);
    EXPECT_EQ(mach.config_.hot_boundary, 7u);
}

TEST(Engine, VertexMapAppliesToSubsetOnly)
{
    Graph g = chainGraph(10);
    PropertyRegistry props(10);
    auto &val = props.create<std::int32_t>("val", 0);
    Engine eng(g, props, pageRankUpdateFn(), nullptr);
    eng.vertexMap(VertexSubset::fromSparse(10, {2, 4}),
                  [&](unsigned, VertexId v) { val[v] = 1; });
    EXPECT_EQ(val[2], 1);
    EXPECT_EQ(val[4], 1);
    EXPECT_EQ(val[3], 0);
}

TEST(Engine, VertexHookRunsOncePerActiveVertex)
{
    Graph g = chainGraph(20);
    PropertyRegistry props(20);
    Engine eng(g, props, pageRankUpdateFn(), nullptr);
    int hooks = 0;
    eng.edgeMap(VertexSubset::all(20),
                [&](unsigned, VertexId, VertexId, std::int32_t) {
                    return EdgeUpdateResult{};
                },
                false, [&](unsigned, VertexId) { ++hooks; });
    EXPECT_EQ(hooks, 20);
}

TEST(Engine, MachineReceivesEvents)
{
    Graph g = chainGraph(64);
    PropertyRegistry props(64);
    auto &prop = props.create<double>("p", 0.0);
    MachineParams mp = MachineParams::baseline().scaledCapacities(1.0 / 64);
    CmpMachine mach(mp, "baseline");
    Engine eng(g, props, pageRankUpdateFn(), &mach);
    eng.setAtomicTarget(&prop);
    eng.configureMachine();
    eng.edgeMap(VertexSubset::all(64),
                [&](unsigned, VertexId, VertexId, std::int32_t) {
                    EdgeUpdateResult r;
                    r.performed_atomic = true;
                    return r;
                },
                false);
    eng.finishIteration();
    const StatsReport r = mach.report();
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(r.atomics_total, 63u);
    EXPECT_GT(r.l1_accesses, 63u);
    EXPECT_GT(r.instructions, 0u);
}

TEST(Engine, FunctionalAndSimulatedAgree)
{
    // The same algorithm must produce identical functional results with
    // and without a machine attached.
    Rng rng(5);
    Graph g = buildGraph(1 << 9, generateRmat(9, 8, rng));
    auto func = runPageRank(g, nullptr, 3);
    MachineParams mp = MachineParams::baseline().scaledCapacities(1.0 / 64);
    CmpMachine mach(mp, "baseline");
    auto sim = runPageRank(g, &mach, 3);
    ASSERT_EQ(func.rank.size(), sim.rank.size());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_NEAR(func.rank[v], sim.rank[v], 1e-12);
}

TEST(Engine, AddressBasesAreDisjointRegions)
{
    Graph g = chainGraph(10);
    PropertyRegistry props(10);
    Engine eng(g, props, pageRankUpdateFn(), nullptr);
    EXPECT_GE(eng.outOffsetsBase(), addr_space::kEdgeBase);
    EXPECT_GT(eng.outArcsBase(), eng.outOffsetsBase());
    EXPECT_GE(eng.denseActiveBase(), addr_space::kActiveBase);
    EXPECT_GT(eng.sparseActiveBase(), eng.denseActiveBase());
}

TEST(Engine, IterationCounterAdvances)
{
    Graph g = chainGraph(4);
    PropertyRegistry props(4);
    Engine eng(g, props, pageRankUpdateFn(), nullptr);
    EXPECT_EQ(eng.iterations(), 0u);
    eng.finishIteration();
    eng.finishIteration();
    EXPECT_EQ(eng.iterations(), 2u);
}

/**
 * Machine stub that records the per-event stream the default replayOps()
 * expansion produces, plus the size of every replayOps() run.
 */
class RecordingMachine final : public MemorySystem
{
  public:
    struct Event
    {
        EngineOpKind kind;
        unsigned core;
        std::uint64_t addr;
        AccessClass cls;
    };

    RecordingMachine() : params_(MachineParams::baseline()) {}

    void configure(const MachineConfig &) override {}
    void
    compute(unsigned core, std::uint64_t) override
    {
        events.push_back({EngineOpKind::Compute, core, 0,
                          AccessClass::VertexProp});
    }
    void
    memAccess(const MemAccess &a) override
    {
        events.push_back({a.op == MemOp::Store ? EngineOpKind::Store
                                               : EngineOpKind::Load,
                          a.core, a.addr, a.cls});
    }
    void
    replayOps(unsigned core, std::span<const EngineOp> ops) override
    {
        runs.push_back(ops.size());
        MemorySystem::replayOps(core, ops);
    }
    void
    readSrcProp(unsigned core, VertexId, std::uint64_t addr,
                std::uint32_t) override
    {
        events.push_back(
            {EngineOpKind::SrcProp, core, addr, AccessClass::VertexProp});
    }
    void
    atomicUpdate(const AtomicRequest &r) override
    {
        events.push_back(
            {EngineOpKind::Atomic, r.core, r.addr, AccessClass::VertexProp});
    }
    void barrier() override {}
    void endIteration() override {}
    Cycles coreNow(unsigned) const override { return 0; }
    Cycles cycles() const override { return 0; }
    StatsReport report() const override { return {}; }
    const MachineParams &params() const override { return params_; }
    std::string name() const override { return "recording"; }

    std::vector<Event> events;
    std::vector<std::size_t> runs;

  private:
    MachineParams params_;
};

TEST(Engine, UpdateLambdaLoadsLandInEmissionOrder)
{
    // An update lambda's own load (BC's depth test, KC's removed test)
    // belongs between its edge's edge-list read and its atomic: the
    // program order of the per-edge inner loop.
    Rng rng(11);
    Graph g = buildGraph(1 << 6, generateRmat(6, 4, rng));
    const VertexId n = g.numVertices();
    PropertyRegistry props(n);
    auto &prop = props.create<double>("p", 0.0);
    RecordingMachine mach;
    Engine eng(g, props, pageRankUpdateFn(), &mach);
    eng.setAtomicTarget(&prop);
    eng.configureMachine();
    const std::uint64_t sentinel = addr_space::kActiveBase + (1ull << 32);
    eng.edgeMap(VertexSubset::all(n),
                [&](unsigned core, VertexId, VertexId d, std::int32_t) {
                    eng.emitLoad(core, sentinel + d, 1,
                                 AccessClass::NGraphData);
                    EdgeUpdateResult r;
                    r.performed_atomic = true;
                    return r;
                },
                /*want_output=*/false);
    eng.finishIteration();

    const auto &ev = mach.events;
    const std::uint64_t arcs_end =
        eng.outArcsBase() + g.numArcs() * eng.edgeEntryBytes();
    std::size_t atomics = 0;
    for (std::size_t i = 0; i < ev.size(); ++i) {
        if (ev[i].kind != EngineOpKind::Atomic)
            continue;
        ++atomics;
        ASSERT_GE(i, 2u);
        const std::uint64_t d = (ev[i].addr - prop.addrOf(0)) / 8;
        const auto &load = ev[i - 1];
        EXPECT_TRUE(load.kind == EngineOpKind::Load &&
                    load.addr == sentinel + d && load.core == ev[i].core)
            << "sentinel load of vertex " << d
            << " is not right before its atomic (event " << i << ")";
        const auto &edge = ev[i - 2];
        EXPECT_TRUE(edge.kind == EngineOpKind::Load &&
                    edge.cls == AccessClass::EdgeList &&
                    edge.addr >= eng.outArcsBase() && edge.addr < arcs_end &&
                    edge.core == ev[i].core)
            << "sentinel load of vertex " << d
            << " is not right after its edge-list read (event " << i << ")";
    }
    EXPECT_EQ(atomics, g.numArcs());
}

/** Cycles plus the full stat tree of @p m, after a barrier. */
std::string
machineOutcome(MemorySystem &m)
{
    m.barrier();
    std::ostringstream os;
    os << m.cycles() << '|';
    JsonWriter w(os, /*pretty=*/false);
    m.statTree()->writeJson(w);
    return os.str();
}

TEST(Engine, ReplaySplitIsTimingIdentical)
{
    // The op buffer may flush an item's run at any point (the cap); the
    // machine must not be able to tell. Replay one fixed per-core op
    // sequence whole and split every k ops, on every registry machine.
    Rng rng(5);
    Graph g = buildGraph(1 << 8, generateRmat(8, 8, rng));
    const VertexId n = g.numVertices();
    PropertyRegistry props(n);
    auto &prop = props.create<double>("p", 0.0);
    // Configures @p m for the run's layout; returns the out-arcs base.
    const auto layout = [&](MemorySystem *m) {
        Engine eng(g, props, pageRankUpdateFn(), m);
        eng.configureMachine();
        return eng.outArcsBase();
    };
    const std::uint64_t arcs = layout(nullptr);

    std::vector<std::vector<EngineOp>> per_core(4);
    Rng pick(17);
    for (auto &ops : per_core) {
        for (int i = 0; i < 600; ++i) {
            const auto v = static_cast<VertexId>(pick.next() % n);
            switch (pick.next() % 6) {
              case 0:
                ops.push_back(EngineOp::compute(1 + pick.next() % 8));
                break;
              case 1:
                ops.push_back(EngineOp::load(arcs + 4ull * (pick.next() %
                                                            g.numArcs()),
                                             4, AccessClass::EdgeList, false,
                                             0, /*sequential=*/true));
                break;
              case 2:
                ops.push_back(EngineOp::load(prop.addrOf(v), 8,
                                             AccessClass::VertexProp,
                                             pick.next() % 4 == 0, v));
                break;
              case 3:
                ops.push_back(EngineOp::store(prop.addrOf(v), 8,
                                              AccessClass::VertexProp, v));
                break;
              case 4:
                ops.push_back(EngineOp::srcProp(v, prop.addrOf(v), 8));
                break;
              default:
                ops.push_back(EngineOp::atomic(v, prop.addrOf(v), 8, 8,
                                               pick.next() % 2 == 0, false));
                break;
            }
        }
    }

    for (const MachineRegistryEntry &entry : machineRegistry()) {
        const auto replay = [&](std::size_t k) {
            auto m = entry.make(entry.make_params());
            layout(m.get());
            for (unsigned core = 0; core < per_core.size(); ++core) {
                const std::span<const EngineOp> all(per_core[core]);
                for (std::size_t at = 0; at < all.size(); at += k) {
                    m->replayOps(core,
                                 all.subspan(at, std::min(k, all.size() - at)));
                }
            }
            return machineOutcome(*m);
        };
        const std::string whole = replay(per_core[0].size());
        for (const std::size_t k : {1u, 3u, 7u, 64u}) {
            EXPECT_EQ(replay(k), whole)
                << entry.name << " differs when split every " << k
                << " ops";
        }
    }
}

TEST(Engine, NoReplayRunExceedsTheCap)
{
    // Triangle counting on a star: the hub's item merges its whole
    // neighbor list once per leaf, far more ops than the cap, so the
    // buffer must flush mid-item.
    const Graph g =
        testing::FuzzSpec{testing::FuzzFamily::Star, 13, 128, 1, true}
            .materialize();
    RecordingMachine mach;
    runTriangleCount(g, &mach);
    ASSERT_FALSE(mach.runs.empty());
    const std::size_t largest =
        *std::max_element(mach.runs.begin(), mach.runs.end());
    EXPECT_EQ(largest, Engine::kOpBufferCap);
}

} // namespace
} // namespace omega
