/**
 * @file
 * Pinned-sweep byte-identity: one fig14 configuration's --json document,
 * captured on the pre-optimization simulation kernel, digested and
 * pinned. Any kernel change that alters a single simulated counter — or
 * even the byte layout of the document — fails here, which is what lets
 * host-side performance work proceed without re-auditing every figure.
 *
 * The digest covers the full BenchSession JSON document for PageRank on
 * the smallest fig14 dataset (sd), baseline and omega machines: machine
 * parameters, end-of-run StatsReport, derived metrics, the complete stat
 * tree and the interval time series.
 *
 * A second, layout-free matrix pins the simulated outcome (cycles + the
 * full stat tree) of every registry machine on three fuzzed graphs for
 * every algorithm: PageRank (push with a vertex hook, vertexMap and
 * streaming phases), BFS (dense/sparse frontier switches and atomics),
 * fault-armed BFS (recovery retries), SSSP (weighted push with
 * min-atomics), BC (an update lambda that emits its own loads), Radii,
 * CC, TC (a plain parallelFor with long per-item op runs), KC (emitting
 * parallelFor and update lambda), pull PageRank (edgeMapPullAll) and
 * sliced PageRank (per-slice engines and reconfiguration), plus two
 * ablation rows: plain core atomics on the baseline and whole-line
 * scratchpad transfers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/algorithms.hh"
#include "algorithms/pagerank.hh"
#include "bench_common.hh"
#include "graph/slicing.hh"
#include "sim/fault.hh"
#include "sim/machine_registry.hh"
#include "testing/fuzz.hh"
#include "util/json.hh"
#include "util/stats.hh"

namespace omega {
namespace {

using bench::BenchSession;
using bench::MachineKind;
using bench::runOn;

/** FNV-1a 64-bit over the document bytes. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

TEST(GoldenDigest, Fig14PageRankSdJsonIsByteIdentical)
{
    const std::string path = "golden_digest_fig14.json";
    {
        std::string prog = "test_golden_digest";
        std::string flag = "--json";
        std::string arg = path;
        char *argv[] = {prog.data(), flag.data(), arg.data()};
        BenchSession session("bench_fig14_speedup", 3, argv);

        const auto spec = findDataset("sd");
        ASSERT_TRUE(spec.has_value());
        runOn(*spec, AlgorithmKind::PageRank, MachineKind::Baseline);
        runOn(*spec, AlgorithmKind::PageRank, MachineKind::Omega);
    } // session destruction writes the document

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string doc = buf.str();
    ASSERT_FALSE(doc.empty());

    // Captured from the pre-optimization kernel (see CHANGES.md) and
    // re-pinned once when the Histogram::quantile overflow fix changed a
    // single reporting byte sequence (dram queue_delay p95: 2048 -> 3788,
    // the honest observed max instead of the silent hi-bound attribution;
    // every simulated counter was verified byte-identical). The kernel
    // must reproduce the document byte for byte.
    const std::uint64_t kPinnedDigest = 0xe1a1f32a1760d2e2ull;
    EXPECT_EQ(fnv1a(doc), kPinnedDigest)
        << "simulated results diverged from the pinned pre-optimization "
           "document ("
        << doc.size() << " bytes; digest 0x" << std::hex << fnv1a(doc)
        << ")";
    std::remove(path.c_str());
}

/** Run @p body inside a --json session and return the document bytes. */
template <typename Body>
std::string
sessionDocument(const std::string &path, Body &&body)
{
    {
        std::string prog = "test_golden_digest";
        std::string flag = "--json";
        std::string arg = path;
        char *argv[] = {prog.data(), flag.data(), arg.data()};
        BenchSession session("bench_fig14_speedup", 3, argv);
        body();
    } // session destruction writes the document
    std::ifstream in(path, std::ios::binary);
    if (!in.good())
        return {};
    std::ostringstream buf;
    buf << in.rdbuf();
    std::remove(path.c_str());
    return buf.str();
}

TEST(GoldenDigest, GraspPageRankSdJsonIsByteIdentical)
{
    // The GRASP machine's document: identical hardware parameters to the
    // baseline (the machine differs only in the installed LLC policy)
    // plus the policy stat group. sd fits the scaled LLC, so the
    // simulated counters must match the baseline's exactly — this digest
    // pins that AND the grasp-specific document layout.
    const std::string doc =
        sessionDocument("golden_digest_grasp.json", [] {
            const auto spec = findDataset("sd");
            ASSERT_TRUE(spec.has_value());
            runOn(*spec, AlgorithmKind::PageRank, MachineKind::Grasp);
        });
    ASSERT_FALSE(doc.empty());
    const std::uint64_t kPinnedGraspDigest = 0x8f99ee1d131be791ull;
    EXPECT_EQ(fnv1a(doc), kPinnedGraspDigest)
        << "grasp document diverged (" << doc.size()
        << " bytes; digest 0x" << std::hex << fnv1a(doc) << ")";
}

TEST(GoldenDigest, ExplicitFourChannelTweakReproducesDefaultDocument)
{
    // dram_channels defaults to 4: routing the same value through the
    // sweep's tweak path must reproduce the pinned fig14 document byte
    // for byte — the channel parameterization is observable only through
    // the parameter it sets.
    const std::string doc =
        sessionDocument("golden_digest_4ch.json", [] {
            const auto spec = findDataset("sd");
            ASSERT_TRUE(spec.has_value());
            const auto four = [](MachineParams &p) {
                p.dram_channels = 4;
            };
            runOn(*spec, AlgorithmKind::PageRank, MachineKind::Baseline,
                  four);
            runOn(*spec, AlgorithmKind::PageRank, MachineKind::Omega,
                  four);
        });
    ASSERT_FALSE(doc.empty());
    EXPECT_EQ(fnv1a(doc), 0xe1a1f32a1760d2e2ull)
        << "explicit 4-channel tweak diverged from the default document ("
        << doc.size() << " bytes; digest 0x" << std::hex << fnv1a(doc)
        << ")";
}

TEST(GoldenDigest, SingleChannelBaselineJsonIsByteIdentical)
{
    // The channel design-space axis itself, pinned at its other end: a
    // 1-channel baseline run. Locks the per-channel serialization path
    // (queueing, occupancy) the bench_channels sweep reads.
    const std::string doc =
        sessionDocument("golden_digest_1ch.json", [] {
            const auto spec = findDataset("sd");
            ASSERT_TRUE(spec.has_value());
            runOn(*spec, AlgorithmKind::PageRank, MachineKind::Baseline,
                  [](MachineParams &p) { p.dram_channels = 1; });
        });
    ASSERT_FALSE(doc.empty());
    const std::uint64_t kPinnedOneChannelDigest = 0x516f9cb321ddc5eeull;
    EXPECT_EQ(fnv1a(doc), kPinnedOneChannelDigest)
        << "1-channel document diverged (" << doc.size()
        << " bytes; digest 0x" << std::hex << fnv1a(doc) << ")";
}

/** The fuzzed graphs of the outcome matrix: power law, mesh, max skew. */
const std::vector<testing::FuzzSpec> &
matrixGraphs()
{
    using testing::FuzzFamily;
    static const std::vector<testing::FuzzSpec> graphs = {
        {FuzzFamily::Rmat, 7, 256, 8, true},
        {FuzzFamily::RoadMesh, 11, 225, 4, true},
        {FuzzFamily::Star, 13, 128, 1, true},
    };
    return graphs;
}

template <AlgorithmKind Kind>
Cycles
runKind(const Graph &g, MemorySystem *m)
{
    return runAlgorithmOnMachine(Kind, g, m);
}

Cycles
runPull(const Graph &g, MemorySystem *m)
{
    runPageRankPull(g, m, /*max_iters=*/1);
    return m->cycles();
}

Cycles
runSliced(const Graph &g, MemorySystem *m)
{
    // 64 vertices of 9-byte lines (8 B rank + active bit) per slice: 2 to
    // 4 destination slices on the matrix graphs.
    const SlicingPlan plan =
        planSlices(g, 9 * 64, 9, SlicingPolicy::FitAllVtxProp);
    runPageRankSliced(g, m, plan, /*max_iters=*/1);
    return m->cycles();
}

/** One workload column of the outcome matrix. */
struct MatrixCase
{
    const char *name;
    Cycles (*run)(const Graph &, MemorySystem *);
    bool faulted;
};

const MatrixCase kMatrixCases[] = {
    {"pagerank", runKind<AlgorithmKind::PageRank>, false},
    {"bfs", runKind<AlgorithmKind::BFS>, false},
    {"bfs+faults", runKind<AlgorithmKind::BFS>, true},
    {"sssp", runKind<AlgorithmKind::SSSP>, false},
    {"bc", runKind<AlgorithmKind::BC>, false},
    {"radii", runKind<AlgorithmKind::Radii>, false},
    {"cc", runKind<AlgorithmKind::CC>, false},
    {"tc", runKind<AlgorithmKind::TC>, false},
    {"kc", runKind<AlgorithmKind::KC>, false},
    {"pagerank-pull", runPull, false},
    {"pagerank-sliced", runSliced, false},
};

/**
 * One machine row of the outcome matrix: a registry entry, optionally
 * with a parameter tweak. The tweaked rows cover ablation paths that no
 * registry default reaches: plain (unlocked) core atomics, and whole-line
 * scratchpad transfers (bench_ext_lockedline).
 */
struct MatrixRow
{
    const char *label;
    const char *machine;
    void (*tweak)(MachineParams &);
};

const MatrixRow kMatrixRows[] = {
    {"baseline", "baseline", nullptr},
    {"grasp", "grasp", nullptr},
    {"omega", "omega", nullptr},
    {"omega-sp-only", "omega-sp-only", nullptr},
    {"baseline+plain-atomics", "baseline",
     [](MachineParams &p) { p.atomics_as_plain = true; }},
    {"omega-sp-only+lines", "omega-sp-only",
     [](MachineParams &p) { p.sp_word_granularity = false; }},
};

/**
 * Digest of one fresh-machine run: row label, cycles and the full stat
 * tree. ScriptReplayStats is left out on purpose — it counts host
 * replay work, not simulated results.
 */
std::uint64_t
outcomeDigest(const Graph &g, const MatrixRow &row, const MatrixCase &c)
{
    const MachineRegistryEntry &entry = machineEntry(row.machine);
    MachineParams params = entry.make_params();
    if (row.tweak != nullptr)
        row.tweak(params);
    auto m = entry.make(params);
    if (c.faulted) {
        std::string error;
        const auto plan = FaultPlan::parse(
            "seed=23,ecc=0.03,nack=0.08,drop=0.02,delay=0.02,dram=0.05",
            &error);
        EXPECT_TRUE(plan.has_value()) << error;
        m->armFaults(*plan);
    }
    const Cycles cycles = c.run(g, m.get());
    std::ostringstream os;
    os << row.label << '|' << cycles << '|';
    const StatGroup *tree = m->statTree();
    EXPECT_NE(tree, nullptr) << row.label << " has no stat tree";
    if (tree != nullptr) {
        JsonWriter w(os, /*pretty=*/false);
        tree->writeJson(w);
        EXPECT_TRUE(w.complete());
    }
    return fnv1a(os.str());
}

TEST(GoldenDigest, RegistryOutcomeMatrixIsPinned)
{
    // Row-major: graph, then machine row, then case. The pagerank, bfs
    // and bfs+faults pins of the four registry rows were captured before
    // the intra-run script pipeline was removed; the sssp column and the
    // two tweaked rows were captured before the machine classes were
    // merged into one composed machine; the radii, cc, tc, pagerank-pull
    // and pagerank-sliced columns were captured before the engine's event
    // paths were merged into one op buffer. The bc and kc columns pin
    // emission order: each update-lambda load lands between its edge's
    // reads and its atomic (see CHANGES.md).
    const std::uint64_t kPinned[] = {
        0xb7d6ee2114fb67e9ull, // rmat / baseline / pagerank
        0x36f66e290d5ede05ull, // rmat / baseline / bfs
        0xfe1648bc005ac6d1ull, // rmat / baseline / bfs+faults
        0x96e22f3c514288f9ull, // rmat / baseline / sssp
        0x66ff68237d5b9e87ull, // rmat / baseline / bc
        0xa4764f03a1535659ull, // rmat / baseline / radii
        0x32294f0264d62fe7ull, // rmat / baseline / cc
        0x62a4693815bf0408ull, // rmat / baseline / tc
        0x1d38e2e6c15e08faull, // rmat / baseline / kc
        0xea0cb5822319c0deull, // rmat / baseline / pagerank-pull
        0x9f29c75e0a7a3469ull, // rmat / baseline / pagerank-sliced
        0x7ca3bc26bb029cd6ull, // rmat / grasp / pagerank
        0x5e70a1598007c363ull, // rmat / grasp / bfs
        0x2934bc0bdbeb486aull, // rmat / grasp / bfs+faults
        0xf4e6fb05309b0da5ull, // rmat / grasp / sssp
        0xed1eaa28ba245360ull, // rmat / grasp / bc
        0x0437e7a978220490ull, // rmat / grasp / radii
        0x7ba233f43344a351ull, // rmat / grasp / cc
        0xfb7057a1217071f7ull, // rmat / grasp / tc
        0x324aa341cc6bc638ull, // rmat / grasp / kc
        0x77a9b3b295895114ull, // rmat / grasp / pagerank-pull
        0xdbc724fc308df97cull, // rmat / grasp / pagerank-sliced
        0x984c6805958da977ull, // rmat / omega / pagerank
        0xb492aefbb2c4490dull, // rmat / omega / bfs
        0xdf288e14e814f596ull, // rmat / omega / bfs+faults
        0x0b0cc8abfb5092baull, // rmat / omega / sssp
        0x60789cfcecce787full, // rmat / omega / bc
        0x8d727493e0d7b2adull, // rmat / omega / radii
        0x96a6429547bf6214ull, // rmat / omega / cc
        0xc802d21a95ed1afeull, // rmat / omega / tc
        0xc4d1f8d6d947bff3ull, // rmat / omega / kc
        0x4191f57df7ee5efeull, // rmat / omega / pagerank-pull
        0x665965f077ec3d35ull, // rmat / omega / pagerank-sliced
        0xd58d5baae833b550ull, // rmat / omega-sp-only / pagerank
        0xc20d12be3a71a36dull, // rmat / omega-sp-only / bfs
        0x8fba51b22c0f947bull, // rmat / omega-sp-only / bfs+faults
        0x0f99a8f4c821557bull, // rmat / omega-sp-only / sssp
        0xa11db56f07a3077aull, // rmat / omega-sp-only / bc
        0xf6e2b8b6e4da10a2ull, // rmat / omega-sp-only / radii
        0x7e63d9e19270b2ddull, // rmat / omega-sp-only / cc
        0x294a3d9c04d4a061ull, // rmat / omega-sp-only / tc
        0x710355634f83bf4dull, // rmat / omega-sp-only / kc
        0xa06735508dcdee4dull, // rmat / omega-sp-only / pagerank-pull
        0x29617e5756c285b0ull, // rmat / omega-sp-only / pagerank-sliced
        0xc9ec121471d47287ull, // rmat / baseline+plain-atomics / pagerank
        0x1f7e3fc0345ea3bdull, // rmat / baseline+plain-atomics / bfs
        0xc97e3bd8437496ccull, // rmat / baseline+plain-atomics / bfs+faults
        0x22b7c6573499627full, // rmat / baseline+plain-atomics / sssp
        0x6eb87dacdb9188e4ull, // rmat / baseline+plain-atomics / bc
        0x2d0eddd4d2623a67ull, // rmat / baseline+plain-atomics / radii
        0x0fce1920e9e907e3ull, // rmat / baseline+plain-atomics / cc
        0x5b033471183d1738ull, // rmat / baseline+plain-atomics / tc
        0xdad1f7be6d9fdfebull, // rmat / baseline+plain-atomics / kc
        0xc047b171559a4b8eull, // rmat / baseline+plain-atomics / pagerank-pull
        0xabc8944b46b36851ull, // rmat / baseline+plain-atomics / pagerank-sliced
        0x1c93912bba55fb34ull, // rmat / omega-sp-only+lines / pagerank
        0x4b21acb68e7aa2c8ull, // rmat / omega-sp-only+lines / bfs
        0xbe66cffbc740f9ccull, // rmat / omega-sp-only+lines / bfs+faults
        0xe371c4f48b66e0afull, // rmat / omega-sp-only+lines / sssp
        0x80cb53aa3591a1fcull, // rmat / omega-sp-only+lines / bc
        0x21750dcbd8eb00d6ull, // rmat / omega-sp-only+lines / radii
        0xd2f98c25128367bcull, // rmat / omega-sp-only+lines / cc
        0x7f02095065c27a61ull, // rmat / omega-sp-only+lines / tc
        0x9b9cef2c88ea3841ull, // rmat / omega-sp-only+lines / kc
        0x18dde157064563e5ull, // rmat / omega-sp-only+lines / pagerank-pull
        0xd779a02a571f8582ull, // rmat / omega-sp-only+lines / pagerank-sliced
        0x7ca2263b7ed3807dull, // road-mesh / baseline / pagerank
        0x109ca6f142c7ae95ull, // road-mesh / baseline / bfs
        0x3d84ab332dffc5baull, // road-mesh / baseline / bfs+faults
        0x3deec0ec0718fb84ull, // road-mesh / baseline / sssp
        0x5e1e62602f548d6dull, // road-mesh / baseline / bc
        0x34da2272e5cf7aa5ull, // road-mesh / baseline / radii
        0x782771dafed6f6d5ull, // road-mesh / baseline / cc
        0x5e571f2a9a96e141ull, // road-mesh / baseline / tc
        0x75f55d9cba145e89ull, // road-mesh / baseline / kc
        0x6ec5d6f5d10a0304ull, // road-mesh / baseline / pagerank-pull
        0x47b8bb592238c7b6ull, // road-mesh / baseline / pagerank-sliced
        0xb84370611d628cfbull, // road-mesh / grasp / pagerank
        0x9cb1b1815142256eull, // road-mesh / grasp / bfs
        0xe6eb134e483a3343ull, // road-mesh / grasp / bfs+faults
        0x7025c3d73884690eull, // road-mesh / grasp / sssp
        0x25d43ed1c57f2184ull, // road-mesh / grasp / bc
        0xa24026cf3eb2e2e7ull, // road-mesh / grasp / radii
        0x3a840b82446d7eb1ull, // road-mesh / grasp / cc
        0x4281e5505a89d940ull, // road-mesh / grasp / tc
        0x8712ba4380ffbb3bull, // road-mesh / grasp / kc
        0xec3bfe359193ae9dull, // road-mesh / grasp / pagerank-pull
        0x81ffcc0960e5cfa8ull, // road-mesh / grasp / pagerank-sliced
        0x2543eb1ea3f0617aull, // road-mesh / omega / pagerank
        0x9aa80c414edac0fcull, // road-mesh / omega / bfs
        0x66b2987ceec50891ull, // road-mesh / omega / bfs+faults
        0x33a3bc1d6c541886ull, // road-mesh / omega / sssp
        0xbd88806ae0febcbbull, // road-mesh / omega / bc
        0x94ffc73c4f314ac8ull, // road-mesh / omega / radii
        0x1ff3a15bb2d466efull, // road-mesh / omega / cc
        0xfab3a8593409a745ull, // road-mesh / omega / tc
        0x9ba403d36d9f53d9ull, // road-mesh / omega / kc
        0x7fb3e2a36426093dull, // road-mesh / omega / pagerank-pull
        0x4e650d4f67b3ea15ull, // road-mesh / omega / pagerank-sliced
        0x720d8042339c6328ull, // road-mesh / omega-sp-only / pagerank
        0xf16c17a868b6d9eaull, // road-mesh / omega-sp-only / bfs
        0x5425d981e7d656dfull, // road-mesh / omega-sp-only / bfs+faults
        0x546fcd0d87d5d18full, // road-mesh / omega-sp-only / sssp
        0x53d09f451f04c0b1ull, // road-mesh / omega-sp-only / bc
        0xed65c63dce2ce139ull, // road-mesh / omega-sp-only / radii
        0x3bcd5bf6c0e00118ull, // road-mesh / omega-sp-only / cc
        0x5d9d2cefe88c879cull, // road-mesh / omega-sp-only / tc
        0xf504887111d73959ull, // road-mesh / omega-sp-only / kc
        0x3ff855a4d88204feull, // road-mesh / omega-sp-only / pagerank-pull
        0x5212b85eb0e50adbull, // road-mesh / omega-sp-only / pagerank-sliced
        0x90d647a86fdc7eafull, // road-mesh / baseline+plain-atomics / pagerank
        0xda9f07d040e28478ull, // road-mesh / baseline+plain-atomics / bfs
        0x66cd476abcb2c02aull, // road-mesh / baseline+plain-atomics / bfs+faults
        0x51bbe7c1e7e59db0ull, // road-mesh / baseline+plain-atomics / sssp
        0x4321ced45cd4b25bull, // road-mesh / baseline+plain-atomics / bc
        0xf2c8e6e7ce44e362ull, // road-mesh / baseline+plain-atomics / radii
        0xf14eeb4c47a32f34ull, // road-mesh / baseline+plain-atomics / cc
        0xce07e132c43973b1ull, // road-mesh / baseline+plain-atomics / tc
        0x81c52e2a84abe611ull, // road-mesh / baseline+plain-atomics / kc
        0xfe3a6f4378c18bf4ull, // road-mesh / baseline+plain-atomics / pagerank-pull
        0x94779c8616b34d78ull, // road-mesh / baseline+plain-atomics / pagerank-sliced
        0x6ab9d48a9d8b1b49ull, // road-mesh / omega-sp-only+lines / pagerank
        0xdc9031723730b932ull, // road-mesh / omega-sp-only+lines / bfs
        0xf98911c95677851cull, // road-mesh / omega-sp-only+lines / bfs+faults
        0x0be782f8ab0b907eull, // road-mesh / omega-sp-only+lines / sssp
        0x9fe1d53d9069c005ull, // road-mesh / omega-sp-only+lines / bc
        0x6600148aa0c68b8cull, // road-mesh / omega-sp-only+lines / radii
        0xf816cc1bd4049135ull, // road-mesh / omega-sp-only+lines / cc
        0x73ba98642e9b259cull, // road-mesh / omega-sp-only+lines / tc
        0xeb7fb573e786aae1ull, // road-mesh / omega-sp-only+lines / kc
        0x7bbcb05bc9976ce3ull, // road-mesh / omega-sp-only+lines / pagerank-pull
        0x7802af11a83ba7a6ull, // road-mesh / omega-sp-only+lines / pagerank-sliced
        0x40b14298e4a9a170ull, // star / baseline / pagerank
        0x412c4d7292e8da56ull, // star / baseline / bfs
        0x2e1670ad5fb98734ull, // star / baseline / bfs+faults
        0x5038cc04f2591fe4ull, // star / baseline / sssp
        0x8a9f05f4abb15af8ull, // star / baseline / bc
        0x3c14ddfdd6febe85ull, // star / baseline / radii
        0xc891b68bfcfb8596ull, // star / baseline / cc
        0xa4ab6aa1c39c9b75ull, // star / baseline / tc
        0xb83421cb475de80dull, // star / baseline / kc
        0x407d95a51a30e9ceull, // star / baseline / pagerank-pull
        0xab957eadc16d9edaull, // star / baseline / pagerank-sliced
        0xd3167573786a725dull, // star / grasp / pagerank
        0x7a9252118e34ebaaull, // star / grasp / bfs
        0x75cce5ea03aff3ceull, // star / grasp / bfs+faults
        0xb6fef1b90d2641e8ull, // star / grasp / sssp
        0x15330d93e1a46d7cull, // star / grasp / bc
        0x7e8a370a86b7ae33ull, // star / grasp / radii
        0x98bf30ac130385abull, // star / grasp / cc
        0x13872d4cba2622adull, // star / grasp / tc
        0xe7902cc6274d640aull, // star / grasp / kc
        0x036fa918c441c7b6ull, // star / grasp / pagerank-pull
        0xa9799be02011c815ull, // star / grasp / pagerank-sliced
        0x005ae43d4ecb5a2bull, // star / omega / pagerank
        0xa1cce42a6b6beee7ull, // star / omega / bfs
        0x68f04be50b6e5eecull, // star / omega / bfs+faults
        0x44934ba62edc4913ull, // star / omega / sssp
        0x310d3e90847f2613ull, // star / omega / bc
        0xd91d77f0995b0a98ull, // star / omega / radii
        0x26d010af3fdc2d96ull, // star / omega / cc
        0x6314813a7f69484cull, // star / omega / tc
        0xa5dbb6359be5d845ull, // star / omega / kc
        0xf06249876b4c20e8ull, // star / omega / pagerank-pull
        0xdec91e0cbcb9c77bull, // star / omega / pagerank-sliced
        0xb3529495fc4920ecull, // star / omega-sp-only / pagerank
        0xe5183c1b1c678436ull, // star / omega-sp-only / bfs
        0x444f78191b6f2074ull, // star / omega-sp-only / bfs+faults
        0x5c4d69d39fd9d8d1ull, // star / omega-sp-only / sssp
        0xee48dbc03a3d86f5ull, // star / omega-sp-only / bc
        0x7f76b414cedb5189ull, // star / omega-sp-only / radii
        0x9989a8f3659aa19aull, // star / omega-sp-only / cc
        0x6325afe09043fb63ull, // star / omega-sp-only / tc
        0x08e48833f6f88f94ull, // star / omega-sp-only / kc
        0x147940d130989889ull, // star / omega-sp-only / pagerank-pull
        0x331187fa319ac7b9ull, // star / omega-sp-only / pagerank-sliced
        0x36034e03b12c45c6ull, // star / baseline+plain-atomics / pagerank
        0xb2975780b5a4108bull, // star / baseline+plain-atomics / bfs
        0xd3820cb08fb6b960ull, // star / baseline+plain-atomics / bfs+faults
        0xa264e1f98249af1dull, // star / baseline+plain-atomics / sssp
        0xd3031f07fd3ea76aull, // star / baseline+plain-atomics / bc
        0xbb5f140e2db1f8d9ull, // star / baseline+plain-atomics / radii
        0x3a3bcaca688f46e2ull, // star / baseline+plain-atomics / cc
        0xaf2bf29d06ed66e5ull, // star / baseline+plain-atomics / tc
        0xdf876fa73cd5852aull, // star / baseline+plain-atomics / kc
        0x52da621e2280643eull, // star / baseline+plain-atomics / pagerank-pull
        0x3a28622a8d23d6e0ull, // star / baseline+plain-atomics / pagerank-sliced
        0xbee16c6015b97cbcull, // star / omega-sp-only+lines / pagerank
        0x345b1e4852339633ull, // star / omega-sp-only+lines / bfs
        0x6c58d787133df843ull, // star / omega-sp-only+lines / bfs+faults
        0x93d68c69ffa8ef83ull, // star / omega-sp-only+lines / sssp
        0x1d1de6dd3ebce07aull, // star / omega-sp-only+lines / bc
        0x81742ebc578b1c31ull, // star / omega-sp-only+lines / radii
        0x2f71779a2b8a3996ull, // star / omega-sp-only+lines / cc
        0xaf2d2b3a6c115563ull, // star / omega-sp-only+lines / tc
        0xb9834522099060c3ull, // star / omega-sp-only+lines / kc
        0xac86856bf565cdbfull, // star / omega-sp-only+lines / pagerank-pull
        0x379b46624ee5a8d9ull, // star / omega-sp-only+lines / pagerank-sliced
    };
    std::size_t i = 0;
    for (const testing::FuzzSpec &spec : matrixGraphs()) {
        const Graph g = spec.materialize();
        for (const MatrixRow &row : kMatrixRows) {
            for (const MatrixCase &c : kMatrixCases) {
                ASSERT_LT(i, std::size(kPinned));
                const std::uint64_t got = outcomeDigest(g, row, c);
                EXPECT_EQ(got, kPinned[i])
                    << c.name << " on " << row.label << " / "
                    << spec.describe() << " drifted (digest 0x" << std::hex
                    << got << ")";
                ++i;
            }
        }
    }
    EXPECT_EQ(i, std::size(kPinned));
}

} // namespace
} // namespace omega
