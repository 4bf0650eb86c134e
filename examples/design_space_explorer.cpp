/**
 * @file
 * Design-space exploration: sweep OMEGA's architectural knobs —
 * scratchpad capacity, PISC on/off, source-vertex-buffer size, chunk
 * mapping — around the paper's design point and report speedup, traffic
 * and energy for each. This is the kind of study an architect adopting
 * the library would run first.
 *
 * Run: ./build/examples/design_space_explorer [dataset]
 */

#include <functional>
#include <iostream>

#include "algorithms/algorithms.hh"
#include "graph/datasets.hh"
#include "graph/reorder.hh"
#include "model/energy_model.hh"
#include "sim/machine_registry.hh"
#include "util/table.hh"

using namespace omega;

namespace {

struct Design
{
    std::string name;
    std::function<void(MachineParams &)> tweak;
};

} // namespace

int
main(int argc, char **argv)
{
    const std::string dataset = argc > 1 ? argv[1] : "rMat";
    const auto spec = findDataset(dataset);
    if (!spec) {
        std::cerr << "unknown dataset '" << dataset << "'\n";
        return 1;
    }
    Graph g = reorderGraph(buildDataset(*spec),
                           ReorderKind::InDegreeNthElement);
    std::cout << "design-space study on " << spec->name << " ("
              << g.numVertices() << " vertices, " << g.numEdges()
              << " edges), PageRank\n\n";

    // Baseline reference.
    const MachineParams base_params =
        MachineParams::baseline().scaledCapacities(spec->capacity_scale);
    const auto base = machineEntry("baseline").make(base_params);
    const Cycles base_cycles =
        runAlgorithmOnMachine(AlgorithmKind::PageRank, g, base.get());
    const auto base_energy =
        computeMemoryEnergy(base->report(), base_params);

    const std::vector<Design> designs{
        {"paper design point", [](MachineParams &) {}},
        {"sp/2", [](MachineParams &p) { p.sp_total_bytes /= 2; }},
        {"sp/4", [](MachineParams &p) { p.sp_total_bytes /= 4; }},
        {"sp x2 (L2 /2)",
         [](MachineParams &p) {
             p.sp_total_bytes *= 2;
             p.l2.size_bytes /= 2;
         }},
        {"no PISC", [](MachineParams &p) { p.pisc_enabled = false; }},
        {"no SVB", [](MachineParams &p) { p.svb_entries = 0; }},
        {"SVB x4", [](MachineParams &p) { p.svb_entries *= 4; }},
        {"chunk mismatch (1)",
         [](MachineParams &p) { p.sp_chunk_size = 1; }},
        {"slow PISC (12 cyc)",
         [](MachineParams &p) { p.pisc_send_cycles = 12; }},
    };

    Table t({"design", "cycles", "speedup vs baseline", "on-chip MB",
             "DRAM MB", "memory energy mJ", "energy saving"});
    for (const Design &d : designs) {
        MachineParams params =
            MachineParams::omega().scaledCapacities(spec->capacity_scale);
        d.tweak(params);
        const auto m = machineEntry("omega").make(params);
        const Cycles c =
            runAlgorithmOnMachine(AlgorithmKind::PageRank, g, m.get());
        const StatsReport r = m->report();
        const auto energy = computeMemoryEnergy(r, params);
        t.row()
            .cell(d.name)
            .cell(c)
            .cell(formatSpeedup(static_cast<double>(base_cycles) /
                                static_cast<double>(c)))
            .cell(static_cast<double>(r.onchip_bytes) / 1e6, 2)
            .cell(static_cast<double>(r.dramBytes()) / 1e6, 2)
            .cell(energy.total() * 1e3, 3)
            .cell(formatSpeedup(base_energy.total() / energy.total()));
    }
    t.print(std::cout);

    std::cout << "\nbaseline: " << base_cycles << " cycles, "
              << formatDouble(base_energy.total() * 1e3, 3)
              << " mJ memory energy\n";
    return 0;
}
