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
 * PageRank (scripted pull, vertexMap and streaming phases), BFS (the
 * buffered push path with dense/sparse frontier switches and atomics),
 * fault-armed BFS (recovery retries re-entering both paths) and SSSP
 * (weighted push with min-atomics), plus two ablation rows: plain core
 * atomics on the baseline and whole-line scratchpad transfers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/algorithms.hh"
#include "bench_common.hh"
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

/** One workload column of the outcome matrix. */
struct MatrixCase
{
    const char *name;
    AlgorithmKind algo;
    bool faulted;
};

const MatrixCase kMatrixCases[] = {
    {"pagerank", AlgorithmKind::PageRank, false},
    {"bfs", AlgorithmKind::BFS, false},
    {"bfs+faults", AlgorithmKind::BFS, true},
    {"sssp", AlgorithmKind::SSSP, false},
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
    const Cycles cycles = runAlgorithmOnMachine(c.algo, g, m.get());
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
    // merged into one composed machine (see CHANGES.md).
    const std::uint64_t kPinned[] = {
        0xb7d6ee2114fb67e9ull, // rmat / baseline / pagerank
        0x36f66e290d5ede05ull, // rmat / baseline / bfs
        0xfe1648bc005ac6d1ull, // rmat / baseline / bfs+faults
        0x96e22f3c514288f9ull, // rmat / baseline / sssp
        0x7ca3bc26bb029cd6ull, // rmat / grasp / pagerank
        0x5e70a1598007c363ull, // rmat / grasp / bfs
        0x2934bc0bdbeb486aull, // rmat / grasp / bfs+faults
        0xf4e6fb05309b0da5ull, // rmat / grasp / sssp
        0x984c6805958da977ull, // rmat / omega / pagerank
        0xb492aefbb2c4490dull, // rmat / omega / bfs
        0xdf288e14e814f596ull, // rmat / omega / bfs+faults
        0x0b0cc8abfb5092baull, // rmat / omega / sssp
        0xd58d5baae833b550ull, // rmat / omega-sp-only / pagerank
        0xc20d12be3a71a36dull, // rmat / omega-sp-only / bfs
        0x8fba51b22c0f947bull, // rmat / omega-sp-only / bfs+faults
        0x0f99a8f4c821557bull, // rmat / omega-sp-only / sssp
        0xc9ec121471d47287ull, // rmat / baseline+plain-atomics / pagerank
        0x1f7e3fc0345ea3bdull, // rmat / baseline+plain-atomics / bfs
        0xc97e3bd8437496ccull, // rmat / baseline+plain-atomics / bfs+faults
        0x22b7c6573499627full, // rmat / baseline+plain-atomics / sssp
        0x1c93912bba55fb34ull, // rmat / omega-sp-only+lines / pagerank
        0x4b21acb68e7aa2c8ull, // rmat / omega-sp-only+lines / bfs
        0xbe66cffbc740f9ccull, // rmat / omega-sp-only+lines / bfs+faults
        0xe371c4f48b66e0afull, // rmat / omega-sp-only+lines / sssp
        0x7ca2263b7ed3807dull, // road-mesh / baseline / pagerank
        0x109ca6f142c7ae95ull, // road-mesh / baseline / bfs
        0x3d84ab332dffc5baull, // road-mesh / baseline / bfs+faults
        0x3deec0ec0718fb84ull, // road-mesh / baseline / sssp
        0xb84370611d628cfbull, // road-mesh / grasp / pagerank
        0x9cb1b1815142256eull, // road-mesh / grasp / bfs
        0xe6eb134e483a3343ull, // road-mesh / grasp / bfs+faults
        0x7025c3d73884690eull, // road-mesh / grasp / sssp
        0x2543eb1ea3f0617aull, // road-mesh / omega / pagerank
        0x9aa80c414edac0fcull, // road-mesh / omega / bfs
        0x66b2987ceec50891ull, // road-mesh / omega / bfs+faults
        0x33a3bc1d6c541886ull, // road-mesh / omega / sssp
        0x720d8042339c6328ull, // road-mesh / omega-sp-only / pagerank
        0xf16c17a868b6d9eaull, // road-mesh / omega-sp-only / bfs
        0x5425d981e7d656dfull, // road-mesh / omega-sp-only / bfs+faults
        0x546fcd0d87d5d18full, // road-mesh / omega-sp-only / sssp
        0x90d647a86fdc7eafull, // road-mesh / baseline+plain-atomics / pagerank
        0xda9f07d040e28478ull, // road-mesh / baseline+plain-atomics / bfs
        0x66cd476abcb2c02aull, // road-mesh / baseline+plain-atomics / bfs+faults
        0x51bbe7c1e7e59db0ull, // road-mesh / baseline+plain-atomics / sssp
        0x6ab9d48a9d8b1b49ull, // road-mesh / omega-sp-only+lines / pagerank
        0xdc9031723730b932ull, // road-mesh / omega-sp-only+lines / bfs
        0xf98911c95677851cull, // road-mesh / omega-sp-only+lines / bfs+faults
        0x0be782f8ab0b907eull, // road-mesh / omega-sp-only+lines / sssp
        0x40b14298e4a9a170ull, // star / baseline / pagerank
        0x412c4d7292e8da56ull, // star / baseline / bfs
        0x2e1670ad5fb98734ull, // star / baseline / bfs+faults
        0x5038cc04f2591fe4ull, // star / baseline / sssp
        0xd3167573786a725dull, // star / grasp / pagerank
        0x7a9252118e34ebaaull, // star / grasp / bfs
        0x75cce5ea03aff3ceull, // star / grasp / bfs+faults
        0xb6fef1b90d2641e8ull, // star / grasp / sssp
        0x005ae43d4ecb5a2bull, // star / omega / pagerank
        0xa1cce42a6b6beee7ull, // star / omega / bfs
        0x68f04be50b6e5eecull, // star / omega / bfs+faults
        0x44934ba62edc4913ull, // star / omega / sssp
        0xb3529495fc4920ecull, // star / omega-sp-only / pagerank
        0xe5183c1b1c678436ull, // star / omega-sp-only / bfs
        0x444f78191b6f2074ull, // star / omega-sp-only / bfs+faults
        0x5c4d69d39fd9d8d1ull, // star / omega-sp-only / sssp
        0x36034e03b12c45c6ull, // star / baseline+plain-atomics / pagerank
        0xb2975780b5a4108bull, // star / baseline+plain-atomics / bfs
        0xd3820cb08fb6b960ull, // star / baseline+plain-atomics / bfs+faults
        0xa264e1f98249af1dull, // star / baseline+plain-atomics / sssp
        0xbee16c6015b97cbcull, // star / omega-sp-only+lines / pagerank
        0x345b1e4852339633ull, // star / omega-sp-only+lines / bfs
        0x6c58d787133df843ull, // star / omega-sp-only+lines / bfs+faults
        0x93d68c69ffa8ef83ull, // star / omega-sp-only+lines / sssp
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
