/**
 * @file
 * Fault-injection subsystem tests: plan parsing, injector determinism,
 * recovery paths (retry, poison/re-fetch, degradation), and the
 * forward-progress watchdog on both machine models.
 *
 * The load-bearing property throughout: faults may only perturb
 * *timing*. Every recovered run must still compute exactly what the
 * functional reference computes, and every injected-event trace must be
 * a pure function of (plan, simulated event sequence).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "framework/engine.hh"
#include "sim/cmp_machine.hh"
#include "sim/fault.hh"
#include "sim/params.hh"
#include "testing/capture.hh"
#include "testing/differential.hh"
#include "testing/fuzz.hh"
#include "util/json.hh"

namespace omega {
namespace {

using testing::AlgoCapture;
using testing::captureAlgorithm;
using testing::compareCaptures;
using testing::DiffOptions;
using testing::FuzzFamily;
using testing::FuzzSpec;
using testing::MachineVariant;
using testing::runDifferentialCase;
using testing::runDifferentialMatrix;

/** Parse or die; test specs are spelled inline. */
FaultPlan
plan(const std::string &spec)
{
    std::string error;
    auto p = FaultPlan::parse(spec, &error);
    EXPECT_TRUE(p.has_value()) << spec << ": " << error;
    return p.value_or(FaultPlan{});
}

/** The small power-law instance most machine-level tests run. */
FuzzSpec
smallRmat()
{
    FuzzSpec spec;
    spec.family = FuzzFamily::Rmat;
    spec.seed = 11;
    spec.vertices = 256;
    spec.edge_factor = 8;
    spec.symmetrize = true;
    return spec;
}

/** Scaled-capacity params matching the differential harness. */
constexpr double kScale = 1.0 / 64.0;

TEST(FaultPlan, ParseDescribeRoundTrip)
{
    const FaultPlan p = plan(
        "seed=42,ecc=0.25,nack=0.5,drop=0.125,delay=0.0625,dram=0.03125,"
        "delay-cycles=48,stall-cycles=300,retries=5,backoff=32,"
        "line-threshold=2,sp-threshold=3,watchdog=1000000,no-retry=1");
    EXPECT_EQ(p.seed, 42u);
    EXPECT_DOUBLE_EQ(p.sp_ecc_rate, 0.25);
    EXPECT_FALSE(p.retries_enabled);
    EXPECT_EQ(p.watchdog_cycles, 1000000u);
    // parse(describe()) is the identity: a campaign is reproducible from
    // its printed plan.
    const FaultPlan back = plan(p.describe());
    EXPECT_EQ(back.describe(), p.describe());
}

TEST(FaultPlan, DefaultIsUnarmed)
{
    EXPECT_FALSE(FaultPlan{}.armed());
    EXPECT_FALSE(plan("seed=7").armed());
    EXPECT_TRUE(plan("ecc=0.1").armed());
    EXPECT_TRUE(plan("nack-always=1").armed());
}

TEST(FaultPlan, ParseRejectsMalformedSpecs)
{
    std::string error;
    EXPECT_FALSE(FaultPlan::parse("bogus-key=1", &error).has_value());
    EXPECT_NE(error.find("unknown fault-plan key"), std::string::npos);
    EXPECT_FALSE(FaultPlan::parse("ecc=1.5", &error).has_value());
    EXPECT_FALSE(FaultPlan::parse("ecc=-0.5", &error).has_value());
    EXPECT_FALSE(FaultPlan::parse("seed=-1", &error).has_value());
    EXPECT_FALSE(FaultPlan::parse("seed=banana", &error).has_value());
    EXPECT_FALSE(FaultPlan::parse("retries=2000000", &error).has_value());
    EXPECT_FALSE(FaultPlan::parse("line-threshold=0", &error).has_value());
    EXPECT_FALSE(FaultPlan::parse("watchdog", &error).has_value());
    EXPECT_FALSE(FaultPlan::parse("=1", &error).has_value());
}

TEST(FaultInjector, SameSeedSameDecisionSequence)
{
    const FaultPlan p = plan("seed=9,ecc=0.5,dram=0.25");
    FaultInjector a(p);
    FaultInjector b(p);
    for (unsigned i = 0; i < 200; ++i) {
        EXPECT_EQ(a.spEccError(i % 4, i, i * 10),
                  b.spEccError(i % 4, i, i * 10));
        EXPECT_EQ(a.dramStall(i % 2, i * 10), b.dramStall(i % 2, i * 10));
    }
    EXPECT_EQ(a.traceDigest(), b.traceDigest());
    EXPECT_EQ(a.totalEvents(), b.totalEvents());
    EXPECT_GT(a.totalEvents(), 0u);

    FaultInjector c(plan("seed=10,ecc=0.5,dram=0.25"));
    for (unsigned i = 0; i < 200; ++i) {
        (void)c.spEccError(i % 4, i, i * 10);
        (void)c.dramStall(i % 2, i * 10);
    }
    EXPECT_NE(a.traceDigest(), c.traceDigest());
}

TEST(FaultInjector, KindStreamsAreIndependent)
{
    // Consulting one kind's hook must not perturb another kind's
    // decision sequence: the DRAM fire pattern is the same whether or
    // not ECC draws happened in between.
    const FaultPlan p = plan("seed=21,ecc=0.5,dram=0.5");
    FaultInjector mixed(p);
    FaultInjector dram_only(p);
    std::vector<Cycles> a;
    std::vector<Cycles> b;
    for (unsigned i = 0; i < 100; ++i) {
        (void)mixed.spEccError(0, i, i);
        a.push_back(mixed.dramStall(0, i));
        b.push_back(dram_only.dramStall(0, i));
    }
    EXPECT_EQ(a, b);
}

TEST(FaultInjector, PersistentFaultThresholds)
{
    FaultInjector inj(plan("line-threshold=3,sp-threshold=2,ecc=0.5"));
    EXPECT_FALSE(inj.registerLineError(7));
    EXPECT_FALSE(inj.registerLineError(7));
    EXPECT_TRUE(inj.registerLineError(7));  // crossed
    EXPECT_TRUE(inj.registerLineError(7));  // stays persistent
    EXPECT_FALSE(inj.registerLineError(8)); // independent per line

    EXPECT_FALSE(inj.registerScratchpadFault(1));
    EXPECT_TRUE(inj.registerScratchpadFault(1));  // fires exactly once...
    EXPECT_FALSE(inj.registerScratchpadFault(1)); // ...never again
}

TEST(FaultInjector, NackAlwaysFiresDeterministically)
{
    FaultInjector inj(plan("nack-always=1"));
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_TRUE(inj.piscNack(0, i, i));
    EXPECT_EQ(inj.counters().pisc_nacks, 8u);
}

TEST(FaultInjector, WriteJsonIsComplete)
{
    FaultInjector inj(plan("ecc=0.5"));
    for (unsigned i = 0; i < 32; ++i)
        (void)inj.spEccError(0, i, i);
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/false);
    inj.writeJson(w);
    EXPECT_TRUE(w.complete());
    EXPECT_NE(os.str().find("trace_digest"), std::string::npos);
    EXPECT_NE(os.str().find("sp_ecc_errors"), std::string::npos);
}

/**
 * Run one armed differential case and require a pass: machine results
 * under the campaign must match the functional reference. Timing-sanity
 * checks are skipped — injected latency legitimately distorts them.
 */
void
expectRecovered(const FaultPlan &p, MachineVariant variant,
                AlgorithmKind algo)
{
    DiffOptions opts;
    opts.check_timing = false;
    opts.variants = {variant};
    opts.fault_plan = p;
    const auto result = runDifferentialCase(smallRmat(), algo, opts);
    ASSERT_FALSE(result.skipped);
    EXPECT_TRUE(result.passed()) << result.summary();
}

TEST(FaultRecovery, TransientEccRetriesRecoverBitIdentical)
{
    expectRecovered(plan("seed=5,ecc=0.05"), MachineVariant::Omega,
                    AlgorithmKind::BFS);
}

TEST(FaultRecovery, NackRetriesRecover)
{
    expectRecovered(plan("seed=5,nack=0.2"), MachineVariant::Omega,
                    AlgorithmKind::SSSP);
}

TEST(FaultRecovery, CrossbarFaultsOnlyPerturbTiming)
{
    expectRecovered(plan("seed=5,drop=0.1,delay=0.1"),
                    MachineVariant::Omega, AlgorithmKind::CC);
}

TEST(FaultRecovery, BaselineDramStallsOnlyPerturbTiming)
{
    expectRecovered(plan("seed=5,dram=0.2"), MachineVariant::Baseline,
                    AlgorithmKind::BFS);
}

TEST(FaultRecovery, EccPoisonFallsBackToCachePath)
{
    // retries=0 exhausts immediately: every ECC error poisons its line,
    // and with thresholds of 1 the scratchpad demotes outright. The run
    // must complete on the cache path with correct results.
    const FaultPlan p = plan(
        "seed=5,ecc=1,retries=0,line-threshold=1,sp-threshold=1");
    const Graph g = smallRmat().materialize();
    CmpMachine mach(MachineParams::omega().scaledCapacities(kScale), "omega");
    mach.armFaults(p);
    const AlgoCapture func =
        captureAlgorithm(AlgorithmKind::BFS, g, nullptr);
    const AlgoCapture got =
        captureAlgorithm(AlgorithmKind::BFS, g, &mach);
    EXPECT_TRUE(compareCaptures(func, got).empty());
    ASSERT_NE(mach.faultInjector(), nullptr);
    const FaultCounters &c = mach.faultInjector()->counters();
    EXPECT_GT(c.lines_poisoned, 0u);
    EXPECT_GT(c.sp_demotions, 0u);
    EXPECT_GT(c.refetches, 0u);
    EXPECT_GT(mach.nearMemory()->controller.poisonedLines(), 0u);
    EXPECT_GT(mach.nearMemory()->controller.demotedScratchpads(), 0u);
}

TEST(FaultRecovery, NackExhaustionDegradesToCoreAtomics)
{
    // Every delivery NACKs; retries exhaust and each atomic falls back
    // to the core/cache path. Results must still match.
    const FaultPlan p = plan(
        "seed=5,nack-always=1,retries=2,backoff=4,"
        "line-threshold=1,sp-threshold=1");
    const Graph g = smallRmat().materialize();
    CmpMachine mach(MachineParams::omega().scaledCapacities(kScale), "omega");
    mach.armFaults(p);
    const AlgoCapture func =
        captureAlgorithm(AlgorithmKind::PageRank, g, nullptr);
    const AlgoCapture got =
        captureAlgorithm(AlgorithmKind::PageRank, g, &mach);
    EXPECT_TRUE(compareCaptures(func, got, /*max_ulps=*/256).empty());
    const FaultCounters &c = mach.faultInjector()->counters();
    EXPECT_GT(c.degraded_atomics, 0u);
    EXPECT_GT(c.retries, 0u);
}

TEST(FaultWatchdog, LostUpdateTripsWithDiagnosticDump)
{
    // Retries disabled: the first NACKed offload is LOST and its
    // busy-table entry is stamped kNeverRetire. The watchdog must
    // convert that into a failing run with a state dump, not silence.
    const FaultPlan p =
        plan("seed=5,nack-always=1,no-retry=1,watchdog=100000000");
    const Graph g = smallRmat().materialize();
    CmpMachine mach(MachineParams::omega().scaledCapacities(kScale), "omega");
    mach.armFaults(p);
    try {
        (void)captureAlgorithm(AlgorithmKind::PageRank, g, &mach);
        FAIL() << "watchdog did not trip";
    } catch (const WatchdogError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("watchdog"), std::string::npos) << what;
        EXPECT_NE(what.find("stuck"), std::string::npos) << what;
        // The dump includes the injected-fault summary.
        EXPECT_NE(what.find("fault campaign"), std::string::npos) << what;
    }
}

TEST(FaultWatchdog, EngineOptionOverridesPlanBudget)
{
    // A 1-cycle phase budget from EngineOptions trips on any real phase
    // even with no faults armed, on both machine models.
    const Graph g = smallRmat().materialize();
    EngineOptions opts;
    opts.watchdog_cycles = 1;
    {
        CmpMachine mach(
            MachineParams::baseline().scaledCapacities(kScale), "baseline");
        EXPECT_THROW(
            (void)captureAlgorithm(AlgorithmKind::PageRank, g, &mach, opts),
            WatchdogError);
    }
    {
        CmpMachine mach(MachineParams::omega().scaledCapacities(kScale),
                        "omega");
        EXPECT_THROW(
            (void)captureAlgorithm(AlgorithmKind::PageRank, g, &mach, opts),
            WatchdogError);
    }
}

TEST(FaultWatchdog, GenerousBudgetDoesNotTrip)
{
    const Graph g = smallRmat().materialize();
    EngineOptions opts;
    opts.watchdog_cycles = Cycles{1} << 50;
    CmpMachine mach(MachineParams::omega().scaledCapacities(kScale), "omega");
    mach.armFaults(plan("seed=5,ecc=0.05,nack=0.1"));
    EXPECT_NO_THROW(
        (void)captureAlgorithm(AlgorithmKind::PageRank, g, &mach, opts));
}

TEST(FaultDeterminism, IdenticalCampaignsProduceIdenticalTraces)
{
    // Same plan + same run => same injected-event trace digest, same
    // event count, and the same computed results.
    const FaultPlan p = plan("seed=13,ecc=0.1,nack=0.1,drop=0.05,dram=0.1");
    const Graph g = smallRmat().materialize();
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
    AlgoCapture first;
    for (int round = 0; round < 2; ++round) {
        CmpMachine mach(MachineParams::omega().scaledCapacities(kScale),
                        "omega");
        mach.armFaults(p);
        const AlgoCapture got =
            captureAlgorithm(AlgorithmKind::CC, g, &mach);
        const FaultInjector *inj = mach.faultInjector();
        ASSERT_NE(inj, nullptr);
        EXPECT_GT(inj->totalEvents(), 0u);
        if (round == 0) {
            digest = inj->traceDigest();
            events = inj->totalEvents();
            first = got;
        } else {
            EXPECT_EQ(inj->traceDigest(), digest);
            EXPECT_EQ(inj->totalEvents(), events);
            EXPECT_TRUE(compareCaptures(first, got).empty());
        }
    }
}

TEST(FaultDeterminism, MatrixResultsAreJobCountInvariant)
{
    // The armed differential matrix reports identically for any worker
    // count: campaigns are per-machine and machines are per-case.
    DiffOptions opts;
    opts.check_timing = false;
    opts.variants = {MachineVariant::Omega};
    opts.fault_plan = plan("seed=3,ecc=0.05,nack=0.1,dram=0.1");
    FuzzSpec spec = smallRmat();
    spec.vertices = 128;
    spec.edge_factor = 4;

    opts.jobs = 1;
    const auto seq = runDifferentialMatrix({spec}, opts);
    opts.jobs = 4;
    const auto par = runDifferentialMatrix({spec}, opts);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_TRUE(seq[i].passed()) << seq[i].summary();
        EXPECT_EQ(seq[i].summary(), par[i].summary());
    }
}

TEST(FaultDeterminism, RearmResetsTheCampaign)
{
    // Arming again mid-life restarts the campaign from scratch: the
    // event log, counters, and trace digest all return to their
    // freshly-armed values. (Machine timing state — warm caches, the
    // clock — is NOT reset, so a second run's digest legitimately
    // differs; the reset contract covers the injector only.)
    const FaultPlan p = plan("seed=8,ecc=0.1,dram=0.1");
    const Graph g = smallRmat().materialize();
    CmpMachine mach(MachineParams::omega().scaledCapacities(kScale), "omega");
    mach.armFaults(p);
    const std::uint64_t fresh = mach.faultInjector()->traceDigest();
    (void)captureAlgorithm(AlgorithmKind::BFS, g, &mach);
    EXPECT_GT(mach.faultInjector()->totalEvents(), 0u);
    EXPECT_NE(mach.faultInjector()->traceDigest(), fresh);
    mach.armFaults(p);
    EXPECT_EQ(mach.faultInjector()->totalEvents(), 0u);
    EXPECT_EQ(mach.faultInjector()->traceDigest(), fresh);
}

TEST(FaultDebugDump, DumpsAreInformativeOnBothMachines)
{
    const FaultPlan p = plan("seed=5,dram=0.2");
    {
        CmpMachine mach(MachineParams::omega().scaledCapacities(kScale),
                        "omega");
        EXPECT_NE(mach.debugDump().find("core"), std::string::npos);
        mach.armFaults(p);
        EXPECT_NE(mach.debugDump().find("fault campaign"),
                  std::string::npos);
    }
    {
        CmpMachine mach(
            MachineParams::baseline().scaledCapacities(kScale), "baseline");
        mach.armFaults(p);
        EXPECT_NE(mach.debugDump().find("fault campaign"),
                  std::string::npos);
    }
}

} // namespace
} // namespace omega
