/**
 * @file
 * Proxy transparency: a run through TimingProxy must simulate exactly
 * what the bare machine simulates.
 *
 * For small fuzzed graphs (power-law and road-like) x every registered
 * machine x the benchmark's algorithms, the run is made twice, with and
 * without the proxy, and the simulated cycles, every StatsReport
 * counter, the scripted-replay totals and the functional result must be
 * identical. The proxy must also have seen the run's machine calls.
 *
 * Exits 0 when every case passes, 1 otherwise (one line per failure).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "algorithms/algorithms.hh"
#include "graph/reorder.hh"
#include "sim/machine_registry.hh"
#include "testing/capture.hh"
#include "testing/fuzz.hh"
#include "timing_proxy.hh"

using namespace omega;

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::printf("FAIL %s\n", what.c_str());
    }
}

} // namespace

int
main()
{
    std::vector<testing::FuzzSpec> graphs;
    for (auto family :
         {testing::FuzzFamily::Rmat, testing::FuzzFamily::RoadMesh}) {
        testing::FuzzSpec s;
        s.family = family;
        s.seed = 11;
        s.vertices = 512;
        graphs.push_back(s);
    }
    const std::vector<AlgorithmKind> algos{
        AlgorithmKind::PageRank, AlgorithmKind::BFS, AlgorithmKind::SSSP,
        AlgorithmKind::CC};

    int cases = 0;
    for (const testing::FuzzSpec &spec : graphs) {
        const Graph g = reorderGraph(spec.materialize(),
                                     ReorderKind::InDegreeNthElement);
        for (const MachineRegistryEntry &e : machineRegistry()) {
            const MachineParams params =
                e.make_params().scaledCapacities(1.0 / 64.0);
            for (AlgorithmKind algo : algos) {
                const std::string name = spec.describe() + " " + e.name +
                                         " " + algorithmName(algo);
                auto bare = e.make(params);
                const testing::AlgoCapture want =
                    testing::captureAlgorithm(algo, g, bare.get());

                auto inner = e.make(params);
                perfbench::TimingProxy proxy(*inner);
                const testing::AlgoCapture got =
                    testing::captureAlgorithm(algo, g, &proxy);

                ++cases;
                expect(bare->cycles() == inner->cycles(), name + ": cycles");
                const StatsReport a = bare->report();
                const StatsReport b = inner->report();
                for (const StatsField &f : StatsReport::fields())
                    expect(a.*f.member == b.*f.member,
                           name + ": stat " + f.name);
                const ScriptReplayStats &ra = bare->replayStats();
                const ScriptReplayStats &rb = proxy.replayStats();
                expect(ra.epochs == rb.epochs &&
                           ra.merged_items == rb.merged_items &&
                           ra.merged_ops == rb.merged_ops,
                       name + ": replay totals");
                expect(testing::compareCaptures(want, got, 0).empty(),
                       name + ": functional result");
                const perfbench::BoundaryTimes &t = proxy.times();
                expect(t.ops > 0 && t.calls() > 0 && t.ops >= t.calls(),
                       name + ": proxy saw the machine calls");
                expect(t.barriers > 0, name + ": proxy saw barriers");
            }
        }
    }
    std::printf("perfbench_selftest: %d cases, %d failures\n", cases,
                failures);
    return failures == 0 ? 0 : 1;
}
