/**
 * @file
 * Extension bench (paper section IV): push-with-atomics (Ligra-style)
 * vs pull-without-atomics (GraphMat-style) PageRank on both machines.
 *
 * The paper notes that atomic-free frameworks "partition the dataset so
 * that only a single thread modifies vtxProp at a time" and that OMEGA's
 * optimization then targets the operations on vtxProp rather than the
 * atomics. Pull mode trades the atomics for per-edge random READS of the
 * sources' ranks — which OMEGA still serves from the scratchpads.
 */

#include <iostream>

#include "algorithms/pagerank.hh"
#include "bench_common.hh"
#include "util/table.hh"

using namespace omega;
using namespace omega::bench;

int
main(int argc, char **argv)
{
    BenchSession session("bench_ext_pull", argc, argv);
    printBanner(std::cout,
                "Extension (section IV): push+atomics vs pull (PageRank)");

    Table t({"dataset", "direction", "baseline cycles", "omega cycles",
             "omega speedup", "atomics", "sp accesses"});
    for (const auto &ds : {"rMat", "lj"}) {
        const DatasetSpec spec = *findDataset(ds);
        const Graph &g = datasetGraph(spec);

        const auto push = [&](CmpMachine &m) { runPageRank(g, &m, 1); };
        const auto pull = [&](CmpMachine &m) {
            runPageRankPull(g, &m, 1);
        };
        const RunOutcome push_b =
            runOn(spec, "PageRank push", MachineKind::Baseline, {}, push);
        const RunOutcome push_o =
            runOn(spec, "PageRank push", MachineKind::Omega, {}, push);
        const RunOutcome pull_b =
            runOn(spec, "PageRank pull", MachineKind::Baseline, {}, pull);
        const RunOutcome pull_o =
            runOn(spec, "PageRank pull", MachineKind::Omega, {}, pull);

        t.row()
            .cell(spec.name)
            .cell("push (Ligra-style)")
            .cell(push_b.cycles)
            .cell(push_o.cycles)
            .cell(formatSpeedup(static_cast<double>(push_b.cycles) /
                                static_cast<double>(push_o.cycles)))
            .cell(push_o.stats.atomics_total)
            .cell(push_o.stats.sp_accesses);
        t.row()
            .cell(spec.name)
            .cell("pull (GraphMat-style)")
            .cell(pull_b.cycles)
            .cell(pull_o.cycles)
            .cell(formatSpeedup(static_cast<double>(pull_b.cycles) /
                                static_cast<double>(pull_o.cycles)))
            .cell(pull_o.stats.atomics_total)
            .cell(pull_o.stats.sp_accesses);
    }
    t.print(std::cout);

    std::cout << "\nPull eliminates the atomics (and with them most of "
                 "OMEGA's PISC benefit) but keeps the random source "
                 "reads that the scratchpads absorb; push leans on the "
                 "PISC offload. Both run unchanged on either machine.\n";
    return 0;
}
