/**
 * @file
 * Section III + VI ablation: software-only vertex reordering on the
 * BASELINE machine, and the quality of each ordering for OMEGA.
 *
 * Paper findings: in-degree reordering gives +12% LLC hit rate but only
 * ~8% speedup; out-degree +2%/6.3%; SlashBurn no improvement. Any
 * monotone-popularity ordering works for OMEGA's mapping; the
 * nth-element variant is deployed for its linear preprocessing time.
 */

#include <iostream>

#include "bench_common.hh"
#include "graph/reorder.hh"
#include "util/table.hh"

using namespace omega;
using namespace omega::bench;

int
main(int argc, char **argv)
{
    BenchSession session("bench_ablation_reordering", argc, argv);
    printBanner(std::cout,
                "Ablation: offline reordering on the baseline (PageRank, "
                "lj)");

    const DatasetSpec spec = *findDataset("lj");
    // The "original" ordering: the generator's raw ids (like the crawl
    // order of the real datasets, these already have some locality —
    // R-MAT concentrates hubs at low ids).
    Graph natural = buildDataset(spec);

    const std::vector<ReorderKind> kinds{
        ReorderKind::Identity,        ReorderKind::InDegreeSort,
        ReorderKind::InDegreeTopSort, ReorderKind::InDegreeNthElement,
        ReorderKind::OutDegreeSort,   ReorderKind::SlashburnLite};

    Cycles base_cycles = 0;
    double base_hit = 0.0;
    Table t({"ordering", "LLC hit%", "dLLC", "cycles", "speedup",
             "top-20% prefix coverage"});
    for (ReorderKind kind : kinds) {
        Graph g = reorderGraph(natural, kind);
        const RunOutcome out = runOn(
            spec, "PageRank " + reorderKindName(kind), MachineKind::Baseline,
            {}, [&](CmpMachine &m) {
                runAlgorithmOnMachine(AlgorithmKind::PageRank, g, &m);
            });
        const Cycles c = out.cycles;
        const double hit = out.stats.l2HitRate();
        if (kind == ReorderKind::Identity) {
            base_cycles = c;
            base_hit = hit;
        }
        t.row()
            .cell(reorderKindName(kind))
            .cell(100.0 * hit, 1)
            .cell(100.0 * (hit - base_hit), 1)
            .cell(c)
            .cell(formatSpeedup(static_cast<double>(base_cycles) /
                                static_cast<double>(c)))
            .cell(formatPercent(prefixInEdgeCoverage(g, 0.2)));
    }
    t.print(std::cout);

    std::cout << "\nPaper: in-degree +12% LLC, 8% speedup; out-degree "
                 "+2%, 6.3%; SlashBurn no improvement. Reordering alone "
                 "is not the 2x OMEGA win.\n";
    return 0;
}
