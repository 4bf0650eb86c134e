/**
 * @file
 * Memory-access profiling & attribution implementation.
 */

#include "sim/profile.hh"

#include <algorithm>
#include <utility>

#include "sim/access.hh"
#include "sim/cache_policy.hh"
#include "sim/memory_system.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace omega {

// --------------------------------------------------------------------------
// ReuseDistanceCounter

std::uint64_t
ReuseDistanceCounter::record(std::uint64_t addr)
{
    std::uint64_t distance = kColdMiss;
    auto it = slot_of_.find(addr);
    if (it != slot_of_.end()) {
        // Live slots strictly above the old slot are exactly the distinct
        // addresses touched since the previous access; prefix() includes
        // the slot itself, so the live total cancels it out.
        distance = slot_of_.size() - prefix(it->second);
        bump(it->second, -1);
    }
    const std::size_t slot = next_++;
    // Appending to a Fenwick tree: node `slot` covers the range
    // (slot - lowbit, slot], so its initial value is the new element (1,
    // a live slot) plus the already-known sum over the rest of the range.
    const std::size_t lowbit = slot & (0 - slot);
    omega_assert(tree_.empty() ? slot == 1 : slot == tree_.size(),
                 "reuse counter slot sequence broken");
    if (tree_.empty())
        tree_.push_back(0); // index 0 unused
    tree_.push_back(static_cast<std::int64_t>(
        1 + prefix(slot - 1) - prefix(slot - lowbit)));
    slot_of_[addr] = slot;
    // Retired slots dominate: renumber the live ones densely. The
    // slack keeps tiny traces from compacting every few accesses.
    if (next_ > 2 * slot_of_.size() + 64)
        compact();
    return distance;
}

void
ReuseDistanceCounter::bump(std::size_t slot, std::int64_t delta)
{
    for (std::size_t i = slot; i < tree_.size(); i += i & (0 - i))
        tree_[i] += delta;
}

std::uint64_t
ReuseDistanceCounter::prefix(std::size_t slot) const
{
    std::int64_t sum = 0;
    for (std::size_t i = slot; i > 0; i -= i & (0 - i))
        sum += tree_[i];
    return static_cast<std::uint64_t>(sum);
}

void
ReuseDistanceCounter::compact()
{
    // Renumber live slots in slot order — deterministic regardless of
    // the unordered_map's iteration order.
    std::vector<std::pair<std::size_t, std::uint64_t>> live;
    live.reserve(slot_of_.size());
    for (const auto &[addr, slot] : slot_of_)
        live.emplace_back(slot, addr);
    std::sort(live.begin(), live.end());
    tree_.assign(live.size() + 1, 0);
    next_ = 1;
    for (const auto &[old_slot, addr] : live) {
        (void)old_slot;
        const std::size_t slot = next_++;
        slot_of_[addr] = slot;
        for (std::size_t i = slot; i < tree_.size(); i += i & (0 - i))
            tree_[i] += 1;
    }
}

// --------------------------------------------------------------------------
// ShadowDirectory

ShadowDirectory::ShadowDirectory(std::uint64_t capacity_lines)
    : capacity_(capacity_lines)
{
}

bool
ShadowDirectory::access(std::uint64_t addr)
{
    auto it = stamp_of_.find(addr);
    if (it != stamp_of_.end()) {
        by_stamp_.erase(it->second);
        it->second = ++stamp_;
        by_stamp_.emplace(stamp_, addr);
        return true;
    }
    if (capacity_ == 0)
        return false;
    if (stamp_of_.size() >= capacity_) {
        const auto lru = by_stamp_.begin();
        stamp_of_.erase(lru->second);
        by_stamp_.erase(lru);
    }
    stamp_of_.emplace(addr, ++stamp_);
    by_stamp_.emplace(stamp_, addr);
    return false;
}

// --------------------------------------------------------------------------
// AccessProfiler

const char *
regionBucketName(RegionBucket b)
{
    switch (b) {
      case RegionBucket::Hot:
        return regionName(GraspPolicy::Region::Hot);
      case RegionBucket::Warm:
        return regionName(GraspPolicy::Region::Warm);
      case RegionBucket::Cold:
        return regionName(GraspPolicy::Region::Cold);
      case RegionBucket::Edge:
        return "edge";
      case RegionBucket::Frontier:
        return "frontier";
      case RegionBucket::Other:
        return regionName(GraspPolicy::Region::Other);
    }
    panic("unreachable region bucket");
}

AccessProfiler::AccessProfiler(const Config &cfg)
    : cfg_(cfg),
      llc_shadow_(cfg.llc_lines),
      reuse_hist_(Histogram::logSpaced(1.0, 1e8, 32)),
      sp_home_accesses_(cfg.num_scratchpads, 0),
      heatmap_(cfg.llc_sets, 0)
{
    l1_shadow_.reserve(cfg.num_cores);
    for (unsigned c = 0; c < cfg.num_cores; ++c)
        l1_shadow_.emplace_back(cfg.l1_lines);
    l1_seen_.resize(cfg.num_cores);
}

void
AccessProfiler::reset()
{
    // Re-arm in place: member addresses must survive because the stat
    // tree registered pointers to them on the first arm. The attached
    // channel vectors live in the Dram, which is not recreated.
    const std::vector<Cycles> *busy = channel_busy_;
    const std::vector<std::uint64_t> *requests = channel_requests_;
    *this = AccessProfiler(cfg_);
    channel_busy_ = busy;
    channel_requests_ = requests;
}

void
AccessProfiler::configure(const MachineConfig &config)
{
    // Same tiers and warm factor the GRASP policy derives, so the
    // attribution matches the policy's view of the address space.
    region_map_.setRegions(GraspPolicy::regionsFromConfig(
        config, GraspPolicy::kWarmFactor));
}

void
AccessProfiler::attachDramChannels(const std::vector<Cycles> *busy,
                                   const std::vector<std::uint64_t> *requests)
{
    channel_busy_ = busy;
    channel_requests_ = requests;
}

RegionBucket
AccessProfiler::regionOf(std::uint64_t addr) const
{
    if (addr >= addr_space::kPropBase && addr < addr_space::kActiveBase) {
        switch (region_map_.classify(addr)) {
          case GraspPolicy::Region::Hot:
            return RegionBucket::Hot;
          case GraspPolicy::Region::Warm:
            return RegionBucket::Warm;
          case GraspPolicy::Region::Cold:
            return RegionBucket::Cold;
          case GraspPolicy::Region::Other:
            return RegionBucket::Other;
        }
    }
    if (addr >= addr_space::kEdgeBase && addr < addr_space::kPropBase)
        return RegionBucket::Edge;
    if (addr >= addr_space::kActiveBase && addr < addr_space::kOtherBase)
        return RegionBucket::Frontier;
    return RegionBucket::Other;
}

void
AccessProfiler::onL1Access(unsigned core, std::uint64_t line_addr, bool hit)
{
    ++l1_.accesses;
    ++open_.l1_accesses;
    if (core >= l1_shadow_.size())
        return;
    // The shadow must observe every access (hits maintain its recency
    // order), not just misses.
    const bool shadow_hit = l1_shadow_[core].access(line_addr);
    const bool first = l1_seen_[core].insert(line_addr).second;
    if (hit)
        return;
    ++l1_.misses;
    if (first)
        ++l1_.compulsory;
    else if (shadow_hit)
        ++l1_.conflict;
    else
        ++l1_.capacity;
}

void
AccessProfiler::onLlcAccess(std::uint64_t line_addr, bool hit,
                            std::uint64_t set)
{
    ++llc_.accesses;
    ++open_.llc_accesses;
    if (set < heatmap_.size())
        ++heatmap_[set];
    const std::uint64_t distance = reuse_.record(line_addr);
    const bool first = distance == ReuseDistanceCounter::kColdMiss;
    if (first)
        ++reuse_cold_;
    else
        reuse_hist_.sample(static_cast<double>(distance));
    const bool shadow_hit = llc_shadow_.access(line_addr);
    RegionCounts &region =
        region_[static_cast<std::size_t>(regionOf(line_addr))];
    ++region.llc_accesses;
    if (hit)
        return;
    ++llc_.misses;
    ++open_.llc_misses;
    ++region.llc_misses;
    if (first)
        ++llc_.compulsory;
    else if (shadow_hit)
        ++llc_.conflict;
    else
        ++llc_.capacity;
}

void
AccessProfiler::onDramRead(std::uint64_t addr, std::uint64_t bytes)
{
    ++dram_reads_;
    dram_read_bytes_ += bytes;
    open_.dram_read_bytes += bytes;
    region_[static_cast<std::size_t>(regionOf(addr))].dram_read_bytes +=
        bytes;
}

void
AccessProfiler::onDramWrite(std::uint64_t addr, std::uint64_t bytes)
{
    ++dram_writes_;
    dram_write_bytes_ += bytes;
    open_.dram_write_bytes += bytes;
    region_[static_cast<std::size_t>(regionOf(addr))].dram_write_bytes +=
        bytes;
}

void
AccessProfiler::onScratchpadAccess(std::uint64_t addr, std::uint32_t bytes,
                                   bool write, unsigned home)
{
    ++sp_accesses_;
    if (write)
        ++sp_writes_;
    sp_bytes_ += bytes;
    ++open_.sp_accesses;
    if (home < sp_home_accesses_.size())
        ++sp_home_accesses_[home];
    RegionCounts &region = region_[static_cast<std::size_t>(regionOf(addr))];
    ++region.sp_accesses;
    region.sp_bytes += bytes;
}

void
AccessProfiler::endPhase(Cycles now)
{
    open_.last_iteration = iterations_;
    open_.end_cycles = now;
    if (phases_.size() < kMaxPhases) {
        phases_.push_back(open_);
    } else {
        // Tail aggregation: long runs fold every further iteration into
        // the last record so the JSON stays bounded.
        PhaseProfile &tail = phases_.back();
        tail.last_iteration = iterations_;
        tail.end_cycles = now;
        tail.l1_accesses += open_.l1_accesses;
        tail.llc_accesses += open_.llc_accesses;
        tail.llc_misses += open_.llc_misses;
        tail.dram_read_bytes += open_.dram_read_bytes;
        tail.dram_write_bytes += open_.dram_write_bytes;
        tail.sp_accesses += open_.sp_accesses;
    }
    ++iterations_;
    open_ = PhaseProfile{};
    open_.first_iteration = iterations_;
}

void
AccessProfiler::finishRun(Cycles now)
{
    // Trailing activity after the last engine iteration (final
    // vertex-map sweeps, convergence checks) becomes one last phase.
    if (open_.l1_accesses | open_.llc_accesses | open_.dram_read_bytes |
        open_.dram_write_bytes | open_.sp_accesses)
        endPhase(now);
}

void
AccessProfiler::addStats(StatGroup &g)
{
    g.addScalar("l1_accesses", &l1_.accesses, "L1 accesses observed");
    g.addScalar("l1_misses", &l1_.misses, "L1 misses observed");
    g.addScalar("l1_compulsory", &l1_.compulsory, "L1 first-touch misses");
    g.addScalar("l1_conflict", &l1_.conflict,
                "L1 misses a fully-assoc. same-capacity cache would hit");
    g.addScalar("l1_capacity", &l1_.capacity, "L1 capacity misses");
    g.addScalar("llc_accesses", &llc_.accesses, "LLC accesses observed");
    g.addScalar("llc_misses", &llc_.misses, "LLC misses observed");
    g.addScalar("llc_compulsory", &llc_.compulsory,
                "LLC first-touch misses");
    g.addScalar("llc_conflict", &llc_.conflict,
                "LLC misses a fully-assoc. same-capacity cache would hit");
    g.addScalar("llc_capacity", &llc_.capacity, "LLC capacity misses");
    g.addHistogram("reuse_distance", &reuse_hist_,
                   "LLC line stack distance (log-spaced buckets)");
    g.addScalar("reuse_cold", &reuse_cold_, "first-touch LLC lines");
    g.addScalar("dram_reads", &dram_reads_, "DRAM read requests");
    g.addScalar("dram_writes", &dram_writes_, "DRAM write requests");
    g.addScalar("dram_read_bytes", &dram_read_bytes_, "DRAM bytes read");
    g.addScalar("dram_write_bytes", &dram_write_bytes_,
                "DRAM bytes written");
    g.addScalar("sp_accesses", &sp_accesses_, "scratchpad accesses");
    g.addScalar("sp_bytes", &sp_bytes_, "scratchpad bytes moved");
    g.addScalar("phases", &iterations_, "closed phases (iterations)");
    for (std::size_t i = 0; i < kNumRegionBuckets; ++i) {
        const std::string prefix =
            std::string("region_") +
            regionBucketName(static_cast<RegionBucket>(i));
        g.addScalar(prefix + "_llc_accesses", &region_[i].llc_accesses);
        g.addScalar(prefix + "_llc_misses", &region_[i].llc_misses);
        g.addScalar(prefix + "_dram_read_bytes",
                    &region_[i].dram_read_bytes);
        g.addScalar(prefix + "_dram_write_bytes",
                    &region_[i].dram_write_bytes);
        g.addScalar(prefix + "_sp_accesses", &region_[i].sp_accesses);
    }
    // Satellite of the channel sweep: the per-channel busy/request
    // vectors finally become visible to stat tooling. They point into
    // the Dram's own counters, which outlive the stat tree.
    if (channel_busy_ != nullptr) {
        for (std::size_t i = 0; i < channel_busy_->size(); ++i) {
            const std::string ch = "dram_ch" + std::to_string(i);
            g.addScalar(ch + "_busy_cycles", &(*channel_busy_)[i],
                        "channel busy cycles");
            g.addScalar(ch + "_requests", &(*channel_requests_)[i],
                        "channel requests");
        }
    }
}

namespace {

void
writeThreeC(JsonWriter &w, const ThreeCCounts &c)
{
    w.beginObject();
    w.field("accesses", c.accesses);
    w.field("misses", c.misses);
    w.field("compulsory", c.compulsory);
    w.field("conflict", c.conflict);
    w.field("capacity", c.capacity);
    w.endObject();
}

} // namespace

void
AccessProfiler::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.field("compiled_in", profile::compiledIn());
    w.key("l1");
    writeThreeC(w, l1_);
    w.key("llc");
    writeThreeC(w, llc_);

    w.key("reuse_distance").beginObject();
    w.field("cold", reuse_cold_);
    w.field("sampled", reuse_hist_.count());
    w.field("unique_lines", reuse_.uniqueAddrs());
    // Distance 0 (immediate re-reference) lands in the underflow of the
    // [1, 1e8) log histogram by construction.
    w.field("immediate", reuse_hist_.underflow());
    w.field("p50", reuse_hist_.quantile(0.5));
    w.field("p90", reuse_hist_.quantile(0.9));
    w.field("p99", reuse_hist_.quantile(0.99));
    w.field("max", reuse_hist_.max());
    w.key("buckets").beginArray();
    for (std::size_t i = 0; i < reuse_hist_.numBuckets(); ++i)
        w.value(reuse_hist_.bucketCount(i));
    w.endArray();
    w.endObject();

    w.key("dram").beginObject();
    w.field("reads", dram_reads_);
    w.field("writes", dram_writes_);
    w.field("read_bytes", dram_read_bytes_);
    w.field("write_bytes", dram_write_bytes_);
    w.key("channels").beginArray();
    if (channel_busy_ != nullptr) {
        for (std::size_t i = 0; i < channel_busy_->size(); ++i) {
            w.beginObject();
            w.field("busy_cycles", (*channel_busy_)[i]);
            w.field("requests", (*channel_requests_)[i]);
            w.endObject();
        }
    }
    w.endArray();
    w.endObject();

    w.key("scratchpad").beginObject();
    w.field("accesses", sp_accesses_);
    w.field("writes", sp_writes_);
    w.field("bytes", sp_bytes_);
    w.key("per_home").beginArray();
    for (const std::uint64_t n : sp_home_accesses_)
        w.value(n);
    w.endArray();
    w.endObject();

    w.key("regions").beginArray();
    for (std::size_t i = 0; i < kNumRegionBuckets; ++i) {
        const RegionCounts &r = region_[i];
        w.beginObject();
        w.field("name", regionBucketName(static_cast<RegionBucket>(i)));
        w.field("llc_accesses", r.llc_accesses);
        w.field("llc_misses", r.llc_misses);
        w.field("dram_read_bytes", r.dram_read_bytes);
        w.field("dram_write_bytes", r.dram_write_bytes);
        w.field("sp_accesses", r.sp_accesses);
        w.field("sp_bytes", r.sp_bytes);
        w.endObject();
    }
    w.endArray();

    w.key("phases").beginArray();
    for (const PhaseProfile &p : phases_) {
        w.beginObject();
        w.field("first_iteration", p.first_iteration);
        w.field("last_iteration", p.last_iteration);
        w.field("end_cycles", p.end_cycles);
        w.field("l1_accesses", p.l1_accesses);
        w.field("llc_accesses", p.llc_accesses);
        w.field("llc_misses", p.llc_misses);
        w.field("dram_read_bytes", p.dram_read_bytes);
        w.field("dram_write_bytes", p.dram_write_bytes);
        w.field("sp_accesses", p.sp_accesses);
        w.endObject();
    }
    w.endArray();

    w.key("llc_sets").beginObject();
    w.field("sets", static_cast<std::uint64_t>(heatmap_.size()));
    std::uint64_t hot_set = 0;
    std::uint64_t total = 0;
    std::uint64_t nonzero = 0;
    for (const std::uint64_t n : heatmap_) {
        hot_set = std::max(hot_set, n);
        total += n;
        nonzero += n != 0;
    }
    w.field("max", hot_set);
    w.field("mean", heatmap_.empty()
                        ? 0.0
                        : static_cast<double>(total) /
                              static_cast<double>(heatmap_.size()));
    w.field("nonzero", nonzero);
    // Downsampled view: 64 bins, each the sum of a contiguous set range.
    const std::size_t bins = std::min<std::size_t>(64, heatmap_.size());
    w.key("bins").beginArray();
    for (std::size_t b = 0; b < bins; ++b) {
        const std::size_t lo = b * heatmap_.size() / bins;
        const std::size_t hi = (b + 1) * heatmap_.size() / bins;
        std::uint64_t sum = 0;
        for (std::size_t s = lo; s < hi; ++s)
            sum += heatmap_[s];
        w.value(sum);
    }
    w.endArray();
    w.endObject();

    w.endObject();
}

ProfileSummary
AccessProfiler::summary() const
{
    ProfileSummary s;
    s.armed = true;
    s.llc_accesses = llc_.accesses;
    s.llc_misses = llc_.misses;
    s.llc_compulsory = llc_.compulsory;
    s.llc_conflict = llc_.conflict;
    s.llc_capacity = llc_.capacity;
    s.reuse_cold = reuse_cold_;
    s.reuse_p50 = reuse_hist_.quantile(0.5);
    s.reuse_p95 = reuse_hist_.quantile(0.95);
    s.dram_read_bytes = dram_read_bytes_;
    s.dram_write_bytes = dram_write_bytes_;
    s.sp_accesses = sp_accesses_;
    return s;
}

} // namespace omega
