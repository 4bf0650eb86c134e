/**
 * @file
 * Road-network navigation scenario: shortest paths and network radius on
 * a road mesh — the paper's counter-example. Road networks are NOT
 * power-law graphs, so OMEGA's hot-vertex scratchpads capture little of
 * the access stream and the speedup is modest (Fig 18).
 *
 * Run: ./build/examples/road_navigation [width] [height]
 */

#include <cstdlib>
#include <iostream>

#include "algorithms/algorithms.hh"
#include "algorithms/radii.hh"
#include "algorithms/sssp.hh"
#include "graph/builder.hh"
#include "graph/degree_stats.hh"
#include "graph/generators.hh"
#include "graph/reorder.hh"
#include "sim/cmp_machine.hh"
#include "util/table.hh"

using namespace omega;

int
main(int argc, char **argv)
{
    const VertexId w =
        argc > 1 ? static_cast<VertexId>(std::atoi(argv[1])) : 160;
    const VertexId h =
        argc > 2 ? static_cast<VertexId>(std::atoi(argv[2])) : 160;

    Rng rng(13);
    EdgeList roads = generateRoadMesh(w, h, 0.08, 0.05, rng);
    Graph g = buildGraph(w * h, std::move(roads), {.symmetrize = true});
    g = reorderGraph(g, ReorderKind::InDegreeNthElement);

    const DegreeStats stats = computeDegreeStats(g);
    std::cout << "road network: " << g.numVertices() << " intersections, "
              << g.numEdges() << " road segments; top-20% connectivity "
              << formatPercent(stats.in_degree_connectivity)
              << (stats.power_law ? " (power law)\n" : " (NOT power law)\n");

    // Route lengths from a depot.
    const VertexId depot = defaultRoot(g);
    auto routes = runSssp(g, depot, nullptr);
    std::int64_t reachable = 0;
    std::int64_t worst = 0;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (routes.dist[v] < kSsspInfinity) {
            ++reachable;
            worst = std::max<std::int64_t>(worst, routes.dist[v]);
        }
    }
    std::cout << "depot " << depot << ": " << reachable
              << " reachable intersections, worst route length " << worst
              << "\n";

    auto radii = runRadii(g, nullptr, 16, 5);
    std::cout << "estimated network radius: " << radii.max_radius
              << " hops\n\n";

    // Hardware comparison: the road network is where OMEGA helps least.
    // Use a large enough mesh scale that the vtxProp exceeds the scaled
    // scratchpads, like Western-USA in the paper.
    const double scale = 1.0 / 128.0;
    Table t({"analysis", "baseline cycles", "omega cycles", "speedup"});
    for (AlgorithmKind kind :
         {AlgorithmKind::SSSP, AlgorithmKind::Radii, AlgorithmKind::BFS}) {
        CmpMachine base(MachineParams::baseline().scaledCapacities(scale),
                        "baseline");
        CmpMachine om(MachineParams::omega().scaledCapacities(scale),
                      "omega");
        const Cycles cb = runAlgorithmOnMachine(kind, g, &base);
        const Cycles co = runAlgorithmOnMachine(kind, g, &om);
        t.row()
            .cell(algorithmName(kind))
            .cell(cb)
            .cell(co)
            .cell(formatSpeedup(static_cast<double>(cb) /
                                static_cast<double>(co)));
    }
    t.print(std::cout);
    std::cout << "\nCompare with quickstart's power-law graph: uniform "
                 "degree means only ~20% of vtxProp accesses hit the "
                 "scratchpad-resident set (paper Fig 18: 1.15x max).\n";
    return 0;
}
