/**
 * @file
 * Extension bench (paper section IX): dynamic graphs. As edges churn,
 * the scratchpad-resident set identified by the original reordering goes
 * stale; re-running the linear-time nth-element pass restores OMEGA's
 * benefit. This harness measures PageRank speedup before churn, after
 * churn without re-reordering, and after re-reordering.
 */

#include <iostream>

#include "algorithms/algorithms.hh"
#include "bench_common.hh"
#include "graph/dynamic.hh"
#include "graph/generators.hh"
#include "graph/reorder.hh"
#include "util/table.hh"

using namespace omega;
using namespace omega::bench;

namespace {

struct StateResult
{
    Cycles base;
    Cycles omega;
};

StateResult
runState(const Graph &g, const DatasetSpec &spec, const std::string &state)
{
    const auto pagerank = [&g](CmpMachine &m) {
        runAlgorithmOnMachine(AlgorithmKind::PageRank, g, &m);
    };
    const std::string label = "PageRank " + state;
    StateResult r;
    r.base = runOn(spec, label, MachineKind::Baseline, {}, pagerank).cycles;
    r.omega = runOn(spec, label, MachineKind::Omega, {}, pagerank).cycles;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchSession session("bench_ext_dynamic", argc, argv);
    printBanner(std::cout,
                "Extension (section IX): dynamic graphs (PageRank, "
                "wiki-like churn)");

    const DatasetSpec spec = *findDataset("wiki");
    Graph initial = reorderGraph(buildDataset(spec),
                                 ReorderKind::InDegreeSort);
    DynamicGraph dyn(initial);

    Table t({"state", "arcs", "top-20% prefix coverage",
             "baseline cycles", "omega cycles", "speedup"});
    auto add = [&](const char *state, const Graph &g,
                   std::uint64_t arcs) {
        const StateResult r = runState(g, spec, state);
        t.row()
            .cell(state)
            .cell(arcs)
            .cell(formatPercent(prefixInEdgeCoverage(g, 0.2)))
            .cell(r.base)
            .cell(r.omega)
            .cell(formatSpeedup(static_cast<double>(r.base) /
                                static_cast<double>(r.omega)));
    };
    add("initial (hot-first order)", initial, dyn.numArcs());

    // Churn: new activity concentrates on a NEW set of rising hubs drawn
    // from the formerly cold id range (preferential attachment to fresh
    // celebrities), plus random unfollows.
    Rng rng(99);
    const VertexId n = initial.numVertices();
    const std::size_t churn = initial.numArcs() / 3;
    for (std::size_t i = 0; i < churn; ++i) {
        const auto src = static_cast<VertexId>(rng.nextBounded(n));
        // Rising hubs: 64 ids in the middle of the cold range.
        const auto hub = static_cast<VertexId>(
            n / 2 + rng.nextBounded(64));
        dyn.addEdge(Edge{src, hub, 1});
    }
    for (std::size_t i = 0; i < churn / 4; ++i) {
        const auto v = static_cast<VertexId>(rng.nextBounded(n));
        const auto nbrs = initial.outNeighbors(v);
        if (!nbrs.empty())
            dyn.removeEdge(v, nbrs[rng.nextBounded(nbrs.size())]);
    }

    const Graph &stale = dyn.rebuild();
    add("after churn, stale order", stale, dyn.numArcs());

    const Graph &fresh = dyn.rebuildReordered();
    add("after re-reordering", fresh, dyn.numArcs());
    t.print(std::cout);

    std::cout << "\nThe linear-time nth-element pass restores the "
                 "hot-first coverage after churn (paper section IX). "
                 "Note the residual gap: re-reordering packs the risen "
                 "hubs into one chunk, concentrating their offloaded "
                 "atomics on a single PISC (see the chunk-map "
                 "ablation).\n";
    return 0;
}
