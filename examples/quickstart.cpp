/**
 * @file
 * Quickstart: build a natural graph, reorder it hot-first, run PageRank
 * on the baseline CMP and on OMEGA, and compare.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <iostream>

#include "algorithms/pagerank.hh"
#include "graph/builder.hh"
#include "graph/degree_stats.hh"
#include "graph/generators.hh"
#include "graph/reorder.hh"
#include "sim/cmp_machine.hh"
#include "util/table.hh"

using namespace omega;

int
main()
{
    // 1. Generate a power-law graph (a small social-network stand-in).
    Rng rng(42);
    EdgeList edges = generateRmat(/*scale=*/13, /*edge_factor=*/16, rng);
    Graph raw = buildGraph(VertexId(1) << 13, std::move(edges));

    // 2. OMEGA needs hot vertices at low ids: nth-element in-degree
    //    reordering (the variant the paper deploys).
    Graph g = reorderGraph(raw, ReorderKind::InDegreeNthElement);
    const DegreeStats stats = computeDegreeStats(g);
    std::cout << "graph: " << g.numVertices() << " vertices, "
              << g.numEdges() << " edges, top-20% in-degree connectivity "
              << formatPercent(stats.in_degree_connectivity)
              << (stats.power_law ? " (power law)\n" : "\n");

    // 3. Machines: Table III baseline and OMEGA, capacities scaled to the
    //    same ratio as the scaled-down graph.
    const double scale = 1.0 / 64.0;
    //    The OMEGA parameters give the machine scratchpad capacity, which
    //    attaches the near-memory unit (scratchpads, PISCs, SVBs).
    CmpMachine baseline(MachineParams::baseline().scaledCapacities(scale),
                        "baseline");
    CmpMachine omega_machine(MachineParams::omega().scaledCapacities(scale),
                             "omega");

    // 4. Run one PageRank iteration on each (the paper's configuration).
    PageRankResult on_base = runPageRank(g, &baseline, 1);
    PageRankResult on_omega = runPageRank(g, &omega_machine, 1);

    const StatsReport rb = baseline.report();
    const StatsReport ro = omega_machine.report();

    Table t({"metric", "baseline", "omega"});
    t.row()
        .cell("cycles")
        .cell(rb.cycles)
        .cell(ro.cycles);
    t.row()
        .cell("last-level hit rate")
        .cell(formatPercent(rb.lastLevelHitRate()))
        .cell(formatPercent(ro.lastLevelHitRate()));
    t.row()
        .cell("on-chip traffic")
        .cell(formatBytes(rb.onchip_bytes))
        .cell(formatBytes(ro.onchip_bytes));
    t.row()
        .cell("DRAM traffic")
        .cell(formatBytes(rb.dramBytes()))
        .cell(formatBytes(ro.dramBytes()));
    t.row()
        .cell("atomics offloaded to PISCs")
        .cell(rb.atomics_offloaded)
        .cell(ro.atomics_offloaded);
    t.print(std::cout);

    std::cout << "\nOMEGA speedup: "
              << formatSpeedup(static_cast<double>(rb.cycles) /
                               static_cast<double>(ro.cycles))
              << "\n";

    // 5. Same functional answer either way.
    double max_diff = 0.0;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        max_diff = std::max(max_diff, std::abs(on_base.rank[v] -
                                               on_omega.rank[v]));
    }
    std::cout << "max |rank difference| between machines: " << max_diff
              << " (the memory system never changes results)\n";
    return 0;
}
