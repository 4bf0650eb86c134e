/**
 * @file
 * Component microbenchmarks (google-benchmark): raw throughput of the
 * simulator building blocks. These guard the simulation speed that makes
 * the figure sweeps tractable.
 */

#include <benchmark/benchmark.h>

#include "algorithms/algorithms.hh"
#include "framework/engine.hh"
#include "graph/builder.hh"
#include "graph/generators.hh"
#include "graph/reorder.hh"
#include "omega/pisc.hh"
#include "omega/scratchpad_controller.hh"
#include "omega/source_vertex_buffer.hh"
#include "sim/cache.hh"
#include "sim/coherence.hh"
#include "sim/machine_registry.hh"
#include "util/rng.hh"

namespace {

using namespace omega;

void
BM_CacheArrayAccess(benchmark::State &state)
{
    CacheArray cache(256 * 1024, 8, 64);
    Rng rng(1);
    std::vector<std::uint64_t> addrs(4096);
    for (auto &a : addrs)
        a = rng.nextBounded(1 << 22) * 64;
    std::size_t i = 0;
    for (auto _ : state) {
        auto r = cache.access(addrs[i++ & 4095]);
        r.line->state = LineState::Exclusive;
        benchmark::DoNotOptimize(r.hit);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheArrayAccess);

void
BM_HierarchyAccessHit(benchmark::State &state)
{
    MachineParams p = MachineParams::baseline().scaledCapacities(1.0 / 32);
    CacheHierarchy h(p);
    h.access(0, 0x1000, false, 0);
    for (auto _ : state)
        benchmark::DoNotOptimize(h.access(0, 0x1000, false, 0));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyAccessHit);

void
BM_HierarchyAccessRandom(benchmark::State &state)
{
    MachineParams p = MachineParams::baseline().scaledCapacities(1.0 / 32);
    CacheHierarchy h(p);
    Rng rng(2);
    Cycles now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            h.access(static_cast<unsigned>(rng.nextBounded(16)),
                     rng.nextBounded(1 << 26), rng.nextBool(0.3), now));
        now += 4;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyAccessRandom);

void
BM_ControllerRoute(benchmark::State &state)
{
    ScratchpadController ctrl(16, 64);
    PropSpec spec;
    spec.start_addr = 0x2'0000'0000ull;
    spec.type_size = 8;
    spec.stride = 8;
    spec.count = 1 << 20;
    ctrl.configure({spec}, 1 << 18);
    Rng rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ctrl.route(
            spec.start_addr + rng.nextBounded(1 << 20) * 8));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ControllerRoute);

void
BM_PiscExecute(benchmark::State &state)
{
    Pisc pisc;
    pisc.loadMicrocode(1, 4);
    Cycles t = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(pisc.execute(t += 2));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PiscExecute);

void
BM_SvbLookup(benchmark::State &state)
{
    SourceVertexBuffer svb(16);
    Rng rng(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(svb.lookupAndFill(
            static_cast<VertexId>(rng.nextBounded(64)), 0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SvbLookup);

void
BM_RmatGeneration(benchmark::State &state)
{
    for (auto _ : state) {
        Rng rng(5);
        auto edges = generateRmat(
            static_cast<unsigned>(state.range(0)), 8, rng);
        benchmark::DoNotOptimize(edges.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            (1ll << state.range(0)) * 8);
}
BENCHMARK(BM_RmatGeneration)->Arg(10)->Arg(14);

void
BM_CsrBuild(benchmark::State &state)
{
    Rng rng(6);
    auto edges = generateRmat(12, 8, rng);
    for (auto _ : state) {
        auto g = buildGraph(1 << 12, edges);
        benchmark::DoNotOptimize(g.numArcs());
    }
    state.SetItemsProcessed(state.iterations() * edges.size());
}
BENCHMARK(BM_CsrBuild);

void
BM_ReorderNthElement(benchmark::State &state)
{
    Rng rng(7);
    Graph g = buildGraph(1 << 14, generateRmat(14, 8, rng));
    for (auto _ : state) {
        auto perm =
            buildReorderPermutation(g, ReorderKind::InDegreeNthElement);
        benchmark::DoNotOptimize(perm.data());
    }
    state.SetItemsProcessed(state.iterations() * g.numVertices());
}
BENCHMARK(BM_ReorderNthElement);

void
BM_SimulatedPageRankIteration(benchmark::State &state)
{
    Rng rng(8);
    Graph g = reorderGraph(buildGraph(1 << 12, generateRmat(12, 8, rng)),
                           ReorderKind::InDegreeNthElement);
    const MachineRegistryEntry &entry = machineEntry("baseline");
    for (auto _ : state) {
        auto m = entry.make(entry.make_params().scaledCapacities(1.0 / 64));
        runAlgorithmOnMachine(AlgorithmKind::PageRank, g, m.get());
        benchmark::DoNotOptimize(m->cycles());
    }
    state.SetItemsProcessed(state.iterations() * g.numArcs());
}
BENCHMARK(BM_SimulatedPageRankIteration);

} // namespace
