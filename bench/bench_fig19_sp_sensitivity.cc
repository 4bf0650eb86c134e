/**
 * @file
 * Fig 19 reproduction: scratchpad-size sensitivity on lj.
 *
 * The paper holds the 16 MB L2 fixed and shrinks the scratchpads
 * 16 MB -> 8 MB -> 4 MB; OMEGA still delivers 1.4x (PageRank) and 1.5x
 * (BFS) at 4 MB, which holds only 10%/20% of the respective vtxProp.
 * Capacities here are scaled by lj's capacity_scale like everything else.
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
    BenchSession session("bench_fig19_sp_sensitivity", argc, argv);
    printBanner(std::cout,
                "Fig 19: scratchpad size sensitivity (lj)");

    const DatasetSpec spec = *findDataset("lj");
    // When the scratchpads hold well under 20% of the vertices, the
    // nth-element ordering is not enough: the ids below the capacity
    // boundary must be the actual hottest vertices. The paper's section
    // VI makes exactly this point — use the full in-degree sort here.
    const Graph g =
        reorderGraph(buildDataset(spec), ReorderKind::InDegreeSort);
    Table t({"sp size (paper-equip)", "algorithm", "baseline cycles",
             "omega cycles", "speedup"});

    for (AlgorithmKind algo :
         {AlgorithmKind::PageRank, AlgorithmKind::BFS}) {
        const auto run = [&](CmpMachine &m) {
            runAlgorithmOnMachine(algo, g, &m);
        };
        const Cycles base_cycles =
            runOn(spec, algorithmName(algo), MachineKind::Baseline, {}, run)
                .cycles;
        for (const double mb : {16.0, 8.0, 4.0}) {
            // Shrink only the scratchpads; L2 stays as configured.
            const auto resize = [&](MachineParams &p) {
                p.sp_total_bytes = std::max<std::uint64_t>(
                    static_cast<std::uint64_t>(mb * 1024 * 1024 *
                                               spec.capacity_scale),
                    8192);
            };
            VertexId resident = 0;
            const Cycles omega_cycles =
                runOn(spec,
                      algorithmName(algo) + " sp=" + formatDouble(mb, 0) +
                          "MB",
                      MachineKind::Omega, resize,
                      [&](CmpMachine &m) {
                          run(m);
                          resident = m.residentVertices();
                      })
                    .cycles;
            const double resident_pct =
                100.0 * resident / g.numVertices();
            t.row()
                .cell(formatDouble(mb, 0) + "MB")
                .cell(algorithmName(algo) + " (" +
                      formatDouble(resident_pct, 0) + "% resident)")
                .cell(base_cycles)
                .cell(omega_cycles)
                .cell(formatSpeedup(static_cast<double>(base_cycles) /
                                    static_cast<double>(omega_cycles)));
        }
    }
    t.print(std::cout);

    std::cout << "\nPaper: 1.4x (PageRank) and 1.5x (BFS) remain at 4MB, "
                 "which holds 10% / 20% of the vtxProp.\n";
    return 0;
}
