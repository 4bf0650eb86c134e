/**
 * @file
 * Social-network analytics scenario: the workloads the paper's intro
 * motivates — influence ranking (PageRank), friend-distance (BFS),
 * community structure (CC) and clustering (TC) — on a preferential-
 * attachment social graph, comparing the baseline CMP against OMEGA.
 *
 * Run: ./build/examples/social_network_analytics [scale]
 */

#include <cstdlib>
#include <iostream>

#include "algorithms/algorithms.hh"
#include "algorithms/bfs.hh"
#include "algorithms/components.hh"
#include "algorithms/pagerank.hh"
#include "algorithms/triangle.hh"
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
    const VertexId users =
        argc > 1 ? static_cast<VertexId>(std::atoi(argv[1])) : 20000;

    // A social network grows by preferential attachment (the mechanism
    // the paper cites for the ubiquity of power laws).
    Rng rng(7);
    EdgeList friendships = generateBarabasiAlbert(users, 6, rng);
    Graph g = buildGraph(users, std::move(friendships),
                         {.symmetrize = true});
    g = reorderGraph(g, ReorderKind::InDegreeNthElement);

    const DegreeStats stats = computeDegreeStats(g);
    std::cout << "social graph: " << g.numVertices() << " users, "
              << g.numEdges() << " friendships; top-20% connectivity "
              << formatPercent(stats.in_degree_connectivity) << "\n\n";

    const double scale = 1.0 / 64.0;
    Table t({"analysis", "result", "baseline cycles", "omega cycles",
             "speedup"});

    auto compare = [&](const std::string &name, AlgorithmKind kind,
                       const std::string &result) {
        CmpMachine base(MachineParams::baseline().scaledCapacities(scale),
                        "baseline");
        CmpMachine om(MachineParams::omega().scaledCapacities(scale),
                      "omega");
        const Cycles cb = runAlgorithmOnMachine(kind, g, &base);
        const Cycles co = runAlgorithmOnMachine(kind, g, &om);
        t.row().cell(name).cell(result).cell(cb).cell(co).cell(
            formatSpeedup(static_cast<double>(cb) /
                          static_cast<double>(co)));
    };

    // Influence ranking.
    {
        auto pr = runPageRank(g, nullptr, 10, 0.85, 1e-7);
        VertexId top = 0;
        for (VertexId v = 1; v < g.numVertices(); ++v)
            if (pr.rank[v] > pr.rank[top])
                top = v;
        compare("influence (PageRank)", AlgorithmKind::PageRank,
                "top user id " + std::to_string(top));
    }
    // Degrees of separation from the most-followed user.
    {
        auto bfs = runBfs(g, defaultRoot(g), nullptr);
        compare("reachability (BFS)", AlgorithmKind::BFS,
                std::to_string(bfs.reached) + " reachable in " +
                    std::to_string(bfs.rounds) + " hops");
    }
    // Community structure.
    {
        auto cc = runComponents(g, nullptr);
        compare("communities (CC)", AlgorithmKind::CC,
                std::to_string(cc.num_components) + " components");
    }
    // Clustering.
    {
        auto tc = runTriangleCount(g, nullptr);
        compare("clustering (TC)", AlgorithmKind::TC,
                std::to_string(tc.triangles) + " triangles");
    }

    t.print(std::cout);
    std::cout << "\nThe atomic-heavy, random-access analyses (PageRank, "
                 "CC) gain the most from OMEGA; triangle counting is "
                 "compute bound and gains least — exactly Fig 14's "
                 "shape.\n";
    return 0;
}
