/**
 * @file
 * Snapshot format and checkpoint/restore correctness.
 *
 * Three layers are covered here:
 *
 *  1. The byte format: SnapshotWriter/SnapshotReader primitive
 *     round-trips and bounds checking, file framing (magic, version,
 *     size, FNV-64 checksum), atomic write, and the journal's
 *     torn-tail tolerance.
 *  2. The error taxonomy: a truncated file, a flipped payload bit, a
 *     bumped version and a non-snapshot file must each be rejected
 *     with their own distinct exception type — a snapshot is restored
 *     exactly or refused loudly, never silently mis-restored.
 *  3. The resume contract: for every registered machine, interrupting
 *     a run at an arbitrary iteration boundary (via the coordinator's
 *     test hook), then restoring the flushed checkpoint into a fresh
 *     machine and re-entering the loop, must reproduce the
 *     uninterrupted run's digest — cycles, the complete stat tree and
 *     the deterministic replay counters — bit for bit.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/algorithms.hh"
#include "algorithms/bfs.hh"
#include "algorithms/components.hh"
#include "algorithms/pagerank.hh"
#include "sim/checkpoint.hh"
#include "sim/fault.hh"
#include "sim/machine_registry.hh"
#include "sim/snapshot.hh"
#include "testing/fuzz.hh"
#include "util/json.hh"
#include "util/stats.hh"

namespace omega {
namespace {

using testing::FuzzFamily;
using testing::FuzzSpec;

// ---------------------------------------------------------------------
// Layer 1: writer/reader and file framing.
// ---------------------------------------------------------------------

TEST(SnapshotFormat, PrimitiveRoundTrip)
{
    SnapshotWriter w;
    w.putU8(0xab);
    w.putBool(true);
    w.putBool(false);
    w.putU32(0xdeadbeefu);
    w.putU64(0x0123456789abcdefull);
    w.putF64(-1234.5678);
    w.putString("hello snapshot");
    w.putString("");
    const std::vector<std::uint64_t> v64 = {1, 2, 3, 0xffffffffffffffffull};
    w.putU64Vector(v64);
    const std::vector<std::uint32_t> v32 = {7, 0, 9};
    w.putU32Vector(v32);
    const std::vector<std::uint8_t> v8 = {0x10, 0x20};
    w.putU8Vector(v8);
    const double raw[3] = {1.0, 2.5, -3.75};
    w.putBytes(raw, sizeof raw);

    SnapshotReader r(w.bytes());
    EXPECT_EQ(r.getU8(), 0xab);
    EXPECT_TRUE(r.getBool());
    EXPECT_FALSE(r.getBool());
    EXPECT_EQ(r.getU32(), 0xdeadbeefu);
    EXPECT_EQ(r.getU64(), 0x0123456789abcdefull);
    EXPECT_DOUBLE_EQ(r.getF64(), -1234.5678);
    EXPECT_EQ(r.getString(), "hello snapshot");
    EXPECT_EQ(r.getString(), "");
    EXPECT_EQ(r.getU64Vector(), v64);
    EXPECT_EQ(r.getU32Vector(), v32);
    EXPECT_EQ(r.getByteVector(), v8);
    double back[3] = {};
    r.getBytesInto(back, sizeof back);
    EXPECT_EQ(back[0], 1.0);
    EXPECT_EQ(back[1], 2.5);
    EXPECT_EQ(back[2], -3.75);
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(SnapshotFormat, ReaderBoundsChecked)
{
    SnapshotWriter w;
    w.putU32(42);
    SnapshotReader r(w.bytes());
    EXPECT_EQ(r.getU32(), 42u);
    EXPECT_THROW(r.getU64(), SnapshotTruncatedError);
}

TEST(SnapshotFormat, FixedSizeFieldRejectsWrongSize)
{
    SnapshotWriter w;
    const std::uint32_t raw[2] = {1, 2};
    w.putBytes(raw, sizeof raw);
    SnapshotReader r(w.bytes());
    std::uint32_t back[4] = {};
    EXPECT_THROW(r.getBytesInto(back, sizeof back), SnapshotStateError);
}

TEST(SnapshotFormat, BlobFramingPatchesSize)
{
    SnapshotWriter w;
    const std::size_t blob = w.beginBlob();
    w.putU64(7);
    w.putString("xyz");
    w.endBlob(blob);

    SnapshotReader r(w.bytes());
    const std::uint64_t size = r.getU64();
    const std::size_t start = r.position();
    EXPECT_EQ(r.getU64(), 7u);
    EXPECT_EQ(r.getString(), "xyz");
    EXPECT_EQ(r.position() - start, size);
    EXPECT_EQ(r.remaining(), 0u);
}

/** A small framed file on disk for the taxonomy tests. */
std::string
writeSampleFile(const std::string &name)
{
    SnapshotWriter w;
    w.putString("sample-run-key");
    for (std::uint64_t i = 0; i < 64; ++i)
        w.putU64(i * 2654435761ull);
    const std::string path = ::testing::TempDir() + name;
    writeSnapshotFile(path, w.bytes());
    return path;
}

std::vector<char>
slurpBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    return std::vector<char>((std::istreambuf_iterator<char>(is)),
                             std::istreambuf_iterator<char>());
}

void
spewBytes(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SnapshotFile, RoundTripAndAtomicWrite)
{
    const std::string path = writeSampleFile("roundtrip.snap");
    SnapshotWriter w;
    w.putString("sample-run-key");
    for (std::uint64_t i = 0; i < 64; ++i)
        w.putU64(i * 2654435761ull);
    EXPECT_EQ(readSnapshotFile(path), w.bytes());
    // The atomic-write protocol renames the tmp file over the target;
    // no tmp litter may survive a successful write.
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());
    std::remove(path.c_str());
}

TEST(SnapshotFile, MissingFileIsSnapshotError)
{
    EXPECT_THROW(
        readSnapshotFile(::testing::TempDir() + "no-such-file.snap"),
        SnapshotError);
}

TEST(SnapshotFile, BadMagicIsFormatError)
{
    const std::string path = writeSampleFile("badmagic.snap");
    auto bytes = slurpBytes(path);
    bytes[0] ^= 0x5a; // magic occupies bytes [0, 8)
    spewBytes(path, bytes);
    EXPECT_THROW(readSnapshotFile(path), SnapshotFormatError);
    std::remove(path.c_str());
}

TEST(SnapshotFile, VersionBumpIsVersionError)
{
    // Version 1 files carry the removed intra-run pipeline's replay
    // counters in the machine section: refused, never misparsed.
    for (const std::uint32_t version : {kSnapshotVersion + 1, 1u}) {
        const std::string path = writeSampleFile("badversion.snap");
        auto bytes = slurpBytes(path);
        bytes[8] = static_cast<char>(version); // version u32 at 8
        spewBytes(path, bytes);
        EXPECT_THROW(readSnapshotFile(path), SnapshotVersionError)
            << "version " << version;
        std::remove(path.c_str());
    }
}

TEST(SnapshotFile, TruncationIsTruncatedError)
{
    const std::string path = writeSampleFile("truncated.snap");
    auto bytes = slurpBytes(path);
    bytes.resize(bytes.size() - 17);
    spewBytes(path, bytes);
    EXPECT_THROW(readSnapshotFile(path), SnapshotTruncatedError);
    // A file shorter than the header itself is also truncation.
    bytes.resize(11);
    spewBytes(path, bytes);
    EXPECT_THROW(readSnapshotFile(path), SnapshotTruncatedError);
    std::remove(path.c_str());
}

TEST(SnapshotFile, BitFlipIsChecksumError)
{
    const std::string path = writeSampleFile("bitflip.snap");
    auto bytes = slurpBytes(path);
    bytes[bytes.size() / 2] ^= 0x01; // somewhere inside the payload
    spewBytes(path, bytes);
    EXPECT_THROW(readSnapshotFile(path), SnapshotChecksumError);
    std::remove(path.c_str());
}

TEST(SnapshotJournal, AppendReadAndTornTail)
{
    const std::string path = ::testing::TempDir() + "journal.j";
    std::remove(path.c_str());
    EXPECT_TRUE(readJournalRecords(path).empty()); // missing file

    std::vector<std::vector<std::uint8_t>> written;
    for (int i = 0; i < 3; ++i) {
        SnapshotWriter w;
        w.putString("record-" + std::to_string(i));
        w.putU64(static_cast<std::uint64_t>(i) * 1000);
        appendJournalRecord(path, w.bytes());
        written.push_back(w.bytes());
    }
    EXPECT_EQ(readJournalRecords(path), written);

    // A crash mid-append leaves a torn record at the tail; the intact
    // prefix must still load (those runs are kept, the torn one is
    // simply re-executed).
    {
        std::ofstream os(path, std::ios::binary | std::ios::app);
        const char garbage[13] = "OMGSNAP\0torn";
        os.write(garbage, sizeof garbage);
    }
    EXPECT_EQ(readJournalRecords(path), written);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Layer 3: interrupt-at-arbitrary-iteration + resume reproduces the
// uninterrupted digest, for every machine in the registry.
// ---------------------------------------------------------------------

/** Every registered timing machine, in canonical registry order. */
const std::vector<std::string> kMachines = {"baseline", "grasp", "omega",
                                            "omega-sp-only"};

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

/** Digest of the run's full simulated outcome (cycles and the complete
 *  stat tree) plus the replay counters the snapshot carries. */
std::uint64_t
machineDigest(const MemorySystem &m)
{
    std::ostringstream os;
    os << m.name() << '|' << m.cycles() << '|';
    const StatGroup *tree = m.statTree();
    EXPECT_NE(tree, nullptr);
    if (tree != nullptr) {
        JsonWriter w(os, /*pretty=*/false);
        tree->writeJson(w);
        EXPECT_TRUE(w.complete());
    }
    const ScriptReplayStats &rs = m.replayStats();
    os << '|' << rs.merged_items << '|' << rs.merged_ops;
    return fnv1a(os.str());
}

void
runAlgo(AlgorithmKind algo, const Graph &g, MemorySystem *m,
        CheckpointCoordinator *coord)
{
    EngineOptions opts;
    opts.checkpoint = coord;
    if (algo == AlgorithmKind::PageRank) {
        // Multiple iterations so an interrupt can land strictly inside
        // the run (the registry dispatch simulates a single iteration).
        runPageRank(g, m, /*max_iters=*/4, 0.85, 0.0, opts);
    } else {
        runAlgorithmOnMachine(algo, g, m, opts);
    }
}

std::unique_ptr<MemorySystem>
makeMachine(const std::string &name)
{
    const MachineRegistryEntry &entry = machineEntry(name);
    return entry.make(entry.make_params());
}

/**
 * Interrupt @p algo on @p machine at iteration @p stop (test hook: no
 * signals, but the identical coordinator code path), then restore the
 * flushed checkpoint into a fresh machine and run to completion.
 * Returns the resumed machine's digest.
 */
std::uint64_t
interruptAndResumeDigest(const Graph &g, const std::string &machine,
                         AlgorithmKind algo, std::uint64_t stop)
{
    const std::string path = ::testing::TempDir() + "resume_" + machine +
                             "_" + std::to_string(stop) + ".snap";
    const std::string key = "test-run/" + machine;

    CheckpointCoordinator coord;
    coord.configureSave(path, /*every=*/0);
    coord.test_stop = [stop](std::uint64_t it) { return it == stop; };
    coord.beginRun(key);
    {
        auto m = makeMachine(machine);
        EXPECT_THROW(runAlgo(algo, g, m.get(), &coord),
                     CheckpointInterrupt);
    }

    CheckpointCoordinator resume;
    resume.setResumePayload(readSnapshotFile(path));
    EXPECT_TRUE(resume.resumePending());
    EXPECT_EQ(resume.resumeRunKey(), key);
    resume.beginRun(key);
    auto m = makeMachine(machine);
    runAlgo(algo, g, m.get(), &resume);
    EXPECT_FALSE(resume.resumePending()) << "resume never consumed";
    EXPECT_EQ(resume.restoredIteration(), stop);
    std::remove(path.c_str());
    return machineDigest(*m);
}

TEST(SnapshotResume, PageRankResumeMatchesUninterruptedOnEveryMachine)
{
    const Graph g = FuzzSpec{FuzzFamily::Rmat, 7, 256, 8, true}
                        .materialize();
    for (const std::string &machine : kMachines) {
        auto ref = makeMachine(machine);
        runAlgo(AlgorithmKind::PageRank, g, ref.get(), nullptr);
        const std::uint64_t uninterrupted = machineDigest(*ref);
        for (const std::uint64_t stop : {1u, 2u, 3u}) {
            EXPECT_EQ(interruptAndResumeDigest(g, machine,
                                               AlgorithmKind::PageRank,
                                               stop),
                      uninterrupted)
                << machine << " diverged after resume from iteration "
                << stop;
        }
    }
}

TEST(SnapshotResume, BfsResumeMatchesUninterruptedOnEveryMachine)
{
    // BFS drives the buffered push path with atomics and a live
    // frontier in the snapshot; the frontier itself round-trips.
    const Graph g = FuzzSpec{FuzzFamily::RoadMesh, 11, 225, 4, true}
                        .materialize();
    for (const std::string &machine : kMachines) {
        auto ref = makeMachine(machine);
        runAlgo(AlgorithmKind::BFS, g, ref.get(), nullptr);
        const std::uint64_t uninterrupted = machineDigest(*ref);
        for (const std::uint64_t stop : {1u, 3u}) {
            EXPECT_EQ(interruptAndResumeDigest(g, machine,
                                               AlgorithmKind::BFS, stop),
                      uninterrupted)
                << machine << " diverged after resume from iteration "
                << stop;
        }
    }
}

TEST(SnapshotResume, CheckpointCadenceDoesNotPerturbTheRun)
{
    // Saving every iteration is observation only: the digest must be
    // identical to a run that never checkpoints.
    const Graph g = FuzzSpec{FuzzFamily::Rmat, 7, 256, 8, true}
                        .materialize();
    const std::string path = ::testing::TempDir() + "cadence.snap";
    auto ref = makeMachine("omega");
    runAlgo(AlgorithmKind::BFS, g, ref.get(), nullptr);

    CheckpointCoordinator coord;
    coord.configureSave(path, /*every=*/1);
    coord.beginRun("cadence-run");
    auto m = makeMachine("omega");
    runAlgo(AlgorithmKind::BFS, g, m.get(), &coord);
    EXPECT_EQ(machineDigest(*m), machineDigest(*ref));
    // The file left behind is the last completed iteration's snapshot
    // and must verify cleanly.
    EXPECT_NO_THROW(readSnapshotFile(path));
    std::remove(path.c_str());
}

TEST(SnapshotResume, PostMortemDumpIsNotResumable)
{
    // A watchdog post-mortem uses the same container with
    // resumable=false; handing it to --resume must be refused with a
    // state error, not silently restored into a live run.
    SnapshotWriter w;
    w.putString("dead-run");
    w.putU64(0);
    w.putBool(false); // post-mortem marker
    w.putU64(0);      // no sections
    CheckpointCoordinator coord;
    EXPECT_THROW(coord.setResumePayload(w.bytes()), SnapshotStateError);
}

TEST(SnapshotResume, WrongAlgorithmSectionIsRejected)
{
    // A BFS checkpoint restored into a CC run: the section names
    // diverge and the restore must stop before touching any state.
    const Graph g = FuzzSpec{FuzzFamily::Rmat, 7, 256, 8, true}
                        .materialize();
    const std::string path = ::testing::TempDir() + "wrongalgo.snap";
    const std::string key = "shared-key";

    CheckpointCoordinator coord;
    coord.configureSave(path, 0);
    coord.test_stop = [](std::uint64_t it) { return it == 1; };
    coord.beginRun(key);
    {
        auto m = makeMachine("baseline");
        EXPECT_THROW(runAlgo(AlgorithmKind::BFS, g, m.get(), &coord),
                     CheckpointInterrupt);
    }

    CheckpointCoordinator resume;
    resume.setResumePayload(readSnapshotFile(path));
    resume.beginRun(key);
    auto m = makeMachine("baseline");
    EXPECT_THROW(runAlgo(AlgorithmKind::CC, g, m.get(), &resume),
                 SnapshotStateError);
    std::remove(path.c_str());
}

TEST(SnapshotResume, WrongGraphIsRejected)
{
    // Same machine, same algorithm, different graph: the property
    // arrays disagree in size and the payload must be refused (the
    // exact failing layer varies, but it is always a SnapshotError —
    // never a silent mis-restore).
    const Graph g1 = FuzzSpec{FuzzFamily::Rmat, 7, 256, 8, true}
                         .materialize();
    const Graph g2 = FuzzSpec{FuzzFamily::RoadMesh, 11, 225, 4, true}
                         .materialize();
    const std::string path = ::testing::TempDir() + "wronggraph.snap";
    const std::string key = "shared-key";

    CheckpointCoordinator coord;
    coord.configureSave(path, 0);
    coord.test_stop = [](std::uint64_t it) { return it == 1; };
    coord.beginRun(key);
    {
        auto m = makeMachine("baseline");
        EXPECT_THROW(runAlgo(AlgorithmKind::BFS, g1, m.get(), &coord),
                     CheckpointInterrupt);
    }

    CheckpointCoordinator resume;
    resume.setResumePayload(readSnapshotFile(path));
    resume.beginRun(key);
    auto m = makeMachine("baseline");
    EXPECT_THROW(runAlgo(AlgorithmKind::BFS, g2, m.get(), &resume),
                 SnapshotError);
    std::remove(path.c_str());
}

TEST(SnapshotResume, UnarmedFaultMachineRejectsArmedSnapshot)
{
    // The machine section encodes whether a fault campaign was armed;
    // restoring an armed snapshot into an unarmed machine (or vice
    // versa) is a state mismatch, not a silent drop of the injector.
    const Graph g = FuzzSpec{FuzzFamily::Rmat, 7, 256, 8, true}
                        .materialize();
    const std::string path = ::testing::TempDir() + "armmismatch.snap";
    const std::string key = "shared-key";
    std::string error;
    const auto plan = FaultPlan::parse("seed=23,ecc=0.03", &error);
    ASSERT_TRUE(plan.has_value()) << error;

    CheckpointCoordinator coord;
    coord.configureSave(path, 0);
    coord.test_stop = [](std::uint64_t it) { return it == 1; };
    coord.beginRun(key);
    {
        auto m = makeMachine("baseline");
        m->armFaults(*plan);
        EXPECT_THROW(runAlgo(AlgorithmKind::BFS, g, m.get(), &coord),
                     CheckpointInterrupt);
    }

    CheckpointCoordinator resume;
    resume.setResumePayload(readSnapshotFile(path));
    resume.beginRun(key);
    auto m = makeMachine("baseline"); // NOT armed
    EXPECT_THROW(runAlgo(AlgorithmKind::BFS, g, m.get(), &resume),
                 SnapshotStateError);
    std::remove(path.c_str());
}

} // namespace
} // namespace omega
