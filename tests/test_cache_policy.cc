/**
 * @file
 * Tests for the pluggable LLC insertion/promotion policy (GRASP).
 *
 * Three layers:
 *  - the hook itself is timing-neutral: a CacheArray with the
 *    DefaultCachePolicy installed replays a fuzzed trace byte-identical
 *    to one with no policy;
 *  - GRASP's insertion/promotion properties over fuzzed hot/cold mixes
 *    (hot lines are protected, cold lines self-victimize, the stats
 *    identities tie every decision back to an LLC event);
 *  - misconfigured protection maps (overlapping or out-of-order region
 *    bounds) abort instead of silently degrading.
 *
 * The final test pins the headline claim on a real workload: GRASP beats
 * the plain-cache baseline on a power-law fig14 dataset (lj) whose
 * vertex properties overflow the scaled LLC.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bench_common.hh"
#include "sim/cache.hh"
#include "sim/cache_policy.hh"
#include "sim/memory_system.hh"
#include "util/rng.hh"

namespace omega {
namespace {

// ---------------------------------------------------------------------
// Hook neutrality: DefaultCachePolicy == no policy, byte for byte.
// ---------------------------------------------------------------------

/** One observable outcome of an allocating access. */
struct TraceEvent
{
    bool hit = false;
    bool evicted = false;
    std::uint64_t victim_addr = 0;

    bool
    operator==(const TraceEvent &o) const
    {
        return hit == o.hit && evicted == o.evicted &&
               victim_addr == o.victim_addr;
    }
};

std::vector<TraceEvent>
replay(CacheArray &c, const std::vector<std::uint64_t> &trace)
{
    std::vector<TraceEvent> events;
    events.reserve(trace.size());
    for (std::uint64_t addr : trace) {
        auto r = c.access(addr);
        if (!r.hit)
            r.line->state = LineState::Exclusive;
        TraceEvent e;
        e.hit = r.hit;
        e.evicted = r.evicted;
        e.victim_addr = r.evicted ? r.victim_addr : 0;
        events.push_back(e);
    }
    return events;
}

TEST(CachePolicyHook, DefaultPolicyIsByteIdenticalToNoPolicy)
{
    // Fuzzed trace with enough reuse and conflict to exercise hits,
    // fills and evictions in every set of a small array.
    Rng rng(0xC0FFEEull);
    std::vector<std::uint64_t> trace;
    for (int i = 0; i < 20000; ++i) {
        // 512 distinct lines over a 16 KiB (256-line) array.
        trace.push_back(rng.nextBounded(512) * 64);
    }

    CacheArray bare(16 * 1024, 4, 64);
    CacheArray hooked(16 * 1024, 4, 64);
    DefaultCachePolicy identity;
    hooked.setPolicy(&identity);

    const auto bare_events = replay(bare, trace);
    const auto hooked_events = replay(hooked, trace);
    ASSERT_EQ(bare_events.size(), hooked_events.size());
    for (std::size_t i = 0; i < bare_events.size(); ++i) {
        ASSERT_TRUE(bare_events[i] == hooked_events[i])
            << "divergence at access " << i;
    }

    // Final contents agree too, not just the event stream.
    for (std::uint64_t line = 0; line < 512; ++line) {
        EXPECT_EQ(bare.probe(line * 64) != nullptr,
                  hooked.probe(line * 64) != nullptr);
    }
}

// ---------------------------------------------------------------------
// Region classification.
// ---------------------------------------------------------------------

TEST(GraspPolicy, ClassifyRespectsRegionBounds)
{
    // [0x1000, 0x1400) hot, [0x1400, 0x2000) warm, [0x2000, 0x4000) cold.
    GraspPolicy p({{0x1000, 0x1400, 0x2000, 0x4000}});
    EXPECT_EQ(p.classify(0x0FC0), GraspPolicy::Region::Other);
    EXPECT_EQ(p.classify(0x1000), GraspPolicy::Region::Hot);
    EXPECT_EQ(p.classify(0x13C0), GraspPolicy::Region::Hot);
    EXPECT_EQ(p.classify(0x1400), GraspPolicy::Region::Warm);
    EXPECT_EQ(p.classify(0x1FC0), GraspPolicy::Region::Warm);
    EXPECT_EQ(p.classify(0x2000), GraspPolicy::Region::Cold);
    EXPECT_EQ(p.classify(0x3FC0), GraspPolicy::Region::Cold);
    EXPECT_EQ(p.classify(0x4000), GraspPolicy::Region::Other);
}

TEST(GraspPolicy, RegionsFromConfigSplitsAtHotAndWarmBoundaries)
{
    MachineConfig config;
    config.num_vertices = 1000;
    config.hot_boundary = 100;
    PropSpec prop;
    prop.start_addr = 0x10000;
    prop.type_size = 8;
    prop.stride = 8;
    prop.count = 1000;
    config.props.push_back(prop);
    // A second, empty range must be skipped entirely.
    PropSpec empty;
    empty.start_addr = 0x80000;
    empty.count = 0;
    config.props.push_back(empty);

    const auto regions = GraspPolicy::regionsFromConfig(config, 4);
    ASSERT_EQ(regions.size(), 1u);
    EXPECT_EQ(regions[0].start, 0x10000u);
    EXPECT_EQ(regions[0].hot_end, 0x10000u + 100 * 8);
    EXPECT_EQ(regions[0].warm_end, 0x10000u + 400 * 8);
    EXPECT_EQ(regions[0].end, 0x10000u + 1000 * 8);
}

TEST(GraspPolicy, RegionsFromConfigClampsToRangeEnd)
{
    // hot_boundary (and hot_boundary * warm_factor) past the range's own
    // count must clamp: a short monitored range is all hot.
    MachineConfig config;
    config.hot_boundary = 500;
    PropSpec prop;
    prop.start_addr = 0;
    prop.stride = 4;
    prop.count = 200;
    config.props.push_back(prop);

    const auto regions = GraspPolicy::regionsFromConfig(config, 4);
    ASSERT_EQ(regions.size(), 1u);
    EXPECT_EQ(regions[0].hot_end, 200u * 4);
    EXPECT_EQ(regions[0].warm_end, 200u * 4);
    EXPECT_EQ(regions[0].end, 200u * 4);
}

// ---------------------------------------------------------------------
// Insertion/promotion properties over fuzzed hot/cold mixes.
// ---------------------------------------------------------------------

TEST(GraspPolicy, HotLinesSurviveAColdStream)
{
    // Single-set cache: the adversarial case where every cold line lands
    // on top of the protected set. Region layout keeps every address in
    // set 0 of a 4-way, 64 B-line array (any multiple of 64*1 works).
    GraspPolicy policy({{0x0000, 0x0080, 0x0080, 0x40000}});
    CacheArray c(4 * 64, 4, 64); // 1 set, 4 ways
    c.setPolicy(&policy);

    // Two hot lines enter at MRU.
    c.access(0x0000).line->state = LineState::Exclusive;
    c.access(0x0040).line->state = LineState::Exclusive;

    // A long stream of distinct cold lines through the same set.
    for (std::uint64_t i = 0; i < 64; ++i) {
        auto r = c.access(0x1000 + i * 64);
        if (!r.hit)
            r.line->state = LineState::Exclusive;
        // The protected set must never be the victim.
        if (r.evicted) {
            EXPECT_NE(r.victim_addr, 0x0000u);
            EXPECT_NE(r.victim_addr, 0x0040u);
        }
    }
    EXPECT_NE(c.probe(0x0000), nullptr);
    EXPECT_NE(c.probe(0x0040), nullptr);
}

TEST(GraspPolicy, ColdLinesSelfVictimizeInsteadOfGrowing)
{
    // With two ways taken by hot lines, a cold stream churns through the
    // remaining ways: at most (ways - hot) cold lines resident at once.
    GraspPolicy policy({{0x0000, 0x0080, 0x0080, 0x40000}});
    CacheArray c(4 * 64, 4, 64);
    c.setPolicy(&policy);
    c.access(0x0000).line->state = LineState::Exclusive;
    c.access(0x0040).line->state = LineState::Exclusive;

    std::vector<std::uint64_t> cold;
    for (std::uint64_t i = 0; i < 32; ++i)
        cold.push_back(0x1000 + i * 64);
    for (std::uint64_t addr : cold) {
        auto r = c.access(addr);
        if (!r.hit)
            r.line->state = LineState::Exclusive;
    }
    unsigned resident = 0;
    for (std::uint64_t addr : cold)
        resident += c.probe(addr) != nullptr ? 1 : 0;
    EXPECT_LE(resident, 2u);
}

TEST(GraspPolicy, ColdHitNeverPromotes)
{
    // A cold line that hits repeatedly earns no protection, while an
    // unmonitored ("other") line is promoted by a single hit: when the
    // set is full, the cold line is the victim despite more reuse.
    GraspPolicy policy({{0x0000, 0x0000, 0x0000, 0x1000}}); // all cold
    CacheArray c(2 * 64, 2, 64); // 1 set, 2 ways
    c.setPolicy(&policy);

    c.access(0x1000).line->state = LineState::Exclusive; // other
    c.access(0x0000).line->state = LineState::Exclusive; // cold
    EXPECT_TRUE(c.access(0x0000).hit);
    EXPECT_TRUE(c.access(0x0000).hit);
    EXPECT_TRUE(c.access(0x1000).hit); // promoted to MRU
    EXPECT_EQ(policy.stats().unpromoted_hits, 2u);
    EXPECT_EQ(policy.stats().promoted_hits, 1u);

    auto r = c.access(0x2000);
    ASSERT_FALSE(r.hit);
    ASSERT_TRUE(r.evicted);
    EXPECT_EQ(r.victim_addr, 0x0000u);
    r.line->state = LineState::Exclusive;
    EXPECT_EQ(c.probe(0x0000), nullptr);
    EXPECT_NE(c.probe(0x1000), nullptr);
}

TEST(GraspPolicy, FuzzedMixKeepsStatsIdentities)
{
    // Fuzzed hot/warm/cold/other mix on a multi-set array: every fill
    // and every hit must be accounted exactly once, and no hot fill may
    // enter at distant priority.
    Rng rng(0xD15EA5Eull);
    GraspPolicy policy({{0x0000, 0x0400, 0x1000, 0x8000}});
    CacheArray c(8 * 1024, 4, 64);
    c.setPolicy(&policy);

    std::uint64_t misses = 0;
    std::uint64_t hits = 0;
    for (int i = 0; i < 50000; ++i) {
        std::uint64_t addr;
        const double cls = rng.nextDouble();
        if (cls < 0.3) {
            addr = rng.nextBounded(0x0400); // hot: small, reused
        } else if (cls < 0.4) {
            addr = 0x0400 + rng.nextBounded(0x0C00); // warm
        } else if (cls < 0.9) {
            addr = 0x1000 + rng.nextBounded(0x7000); // cold tail
        } else {
            addr = 0x10000 + rng.nextBounded(0x20000); // other (edges)
        }
        auto r = c.access(c.lineAddr(addr));
        if (r.hit) {
            ++hits;
        } else {
            ++misses;
            r.line->state = LineState::Exclusive;
        }
    }

    const GraspPolicyStats &s = policy.stats();
    EXPECT_EQ(s.inserts(), misses);
    EXPECT_EQ(s.hits(), hits);
    EXPECT_EQ(s.distant_inserts,
              s.warm_inserts + s.cold_inserts + s.other_inserts);
    // The mix touched every class.
    EXPECT_GT(s.hot_inserts, 0u);
    EXPECT_GT(s.warm_inserts, 0u);
    EXPECT_GT(s.cold_inserts, 0u);
    EXPECT_GT(s.other_inserts, 0u);
    EXPECT_GT(s.unpromoted_hits, 0u);
    EXPECT_GT(s.promoted_hits, 0u);
}

// ---------------------------------------------------------------------
// Invalid protection maps abort at configuration time.
// ---------------------------------------------------------------------

TEST(GraspPolicyDeathTest, OverlappingRegionsAbort)
{
    EXPECT_DEATH(GraspPolicy({{0x0000, 0x100, 0x200, 0x1000},
                              {0x0800, 0x900, 0xA00, 0x2000}}),
                 "grasp regions overlap");
}

TEST(GraspPolicyDeathTest, OutOfOrderBoundsAbort)
{
    // warm_end < hot_end: the tiers are inverted.
    EXPECT_DEATH(GraspPolicy({{0x0000, 0x400, 0x200, 0x1000}}),
                 "grasp region bounds out of order");
}

// ---------------------------------------------------------------------
// The headline claim, pinned on a real workload.
// ---------------------------------------------------------------------

TEST(GraspWorkload, BeatsBaselineOnThrashingPowerLawDataset)
{
    // lj is the largest power-law fig14 dataset in the simulation set:
    // its vertex properties overflow the capacity-scaled LLC, so
    // replacement priority decides the hit rate. GRASP must win cycles
    // AND issue fewer DRAM reads (the mechanism, not just the outcome).
    const DatasetSpec spec = *findDataset("lj");
    ASSERT_TRUE(spec.paper_power_law);
    const auto base =
        bench::runOn(spec, AlgorithmKind::PageRank, bench::MachineKind::Baseline);
    const auto grasp =
        bench::runOn(spec, AlgorithmKind::PageRank, bench::MachineKind::Grasp);
    EXPECT_LT(grasp.cycles, base.cycles);
    EXPECT_LT(grasp.stats.dram_reads, base.stats.dram_reads);
    EXPECT_GT(grasp.stats.l2_hits, base.stats.l2_hits);
}

} // namespace
} // namespace omega
