/**
 * @file
 * Timing-sanity invariant implementation.
 */

#include "testing/invariants.hh"

#include <sstream>

#include "sim/cmp_machine.hh"

namespace omega {
namespace testing {

namespace {

void
require(std::vector<std::string> &out, bool cond, const std::string &msg)
{
    if (!cond)
        out.push_back(msg);
}

template <typename A, typename B>
std::string
pairMsg(const char *text, A a, B b)
{
    std::ostringstream os;
    os << text << " (" << a << " vs " << b << ")";
    return os.str();
}

} // namespace

std::vector<std::string>
checkStatsInvariants(const StatsReport &r, const MachineParams &p)
{
    std::vector<std::string> out;

    // Cache hierarchy accounting.
    require(out, r.l1_hits <= r.l1_accesses,
            pairMsg("l1 hits exceed accesses", r.l1_hits, r.l1_accesses));
    require(out, r.l2_hits <= r.l2_accesses,
            pairMsg("l2 hits exceed accesses", r.l2_hits, r.l2_accesses));
    require(out, r.l2_accesses == r.l1_accesses - r.l1_hits,
            pairMsg("every L1 miss must probe the L2 exactly once",
                    r.l2_accesses, r.l1_accesses - r.l1_hits));

    // DRAM accounting: one line read per L2 miss, one write per
    // writeback, nothing else touches DRAM.
    const std::uint64_t l2_misses = r.l2_accesses - r.l2_hits;
    require(out, r.dram_reads == l2_misses,
            pairMsg("DRAM reads != L2 misses", r.dram_reads, l2_misses));
    require(out, r.dram_writes == r.writebacks,
            pairMsg("DRAM writes != writebacks", r.dram_writes,
                    r.writebacks));
    require(out,
            r.dram_read_bytes ==
                r.dram_reads * static_cast<std::uint64_t>(p.l2.line_bytes),
            pairMsg("DRAM read bytes not line-granular", r.dram_read_bytes,
                    r.dram_reads * p.l2.line_bytes));
    require(out,
            r.dram_write_bytes ==
                r.dram_writes *
                    static_cast<std::uint64_t>(p.l2.line_bytes),
            pairMsg("DRAM write bytes not line-granular",
                    r.dram_write_bytes, r.dram_writes * p.l2.line_bytes));

    // Atomic routing: offloaded + on-core partitions the total, and the
    // PISCs executed exactly the offloaded ones.
    require(out, r.atomics_total == r.atomics_offloaded + r.atomics_on_core,
            pairMsg("atomic routing does not partition the total",
                    r.atomics_total,
                    r.atomics_offloaded + r.atomics_on_core));
    require(out, r.pisc_ops == r.atomics_offloaded,
            pairMsg("PISC op count != offloaded atomics", r.pisc_ops,
                    r.atomics_offloaded));

    // Scratchpad routing: every routed (local/remote) word maps to a
    // recorded scratchpad access or a PISC atomic.
    require(out, r.sp_local + r.sp_remote <= r.sp_accesses + r.pisc_ops,
            pairMsg("scratchpad routing exceeds recorded accesses",
                    r.sp_local + r.sp_remote, r.sp_accesses + r.pisc_ops));

    // Machines without the OMEGA structures must not report them.
    if (p.sp_total_bytes == 0) {
        require(out, r.sp_accesses == 0 && r.sp_local == 0 &&
                         r.sp_remote == 0,
                "scratchpad counters nonzero without scratchpads");
        require(out, r.pisc_ops == 0 && r.atomics_offloaded == 0,
                "PISC counters nonzero without scratchpads");
    }
    if (!p.pisc_enabled)
        require(out, r.pisc_ops == 0,
                "PISC ops nonzero with PISCs disabled");
    if (p.svb_entries == 0)
        require(out, r.svb_hits == 0 && r.svb_misses == 0,
                "SVB counters nonzero without SVBs");

    // Hot-vertex counting is a subset of all vtxProp accesses.
    require(out, r.vtxprop_hot_accesses <= r.vtxprop_accesses,
            pairMsg("hot vtxProp accesses exceed total",
                    r.vtxprop_hot_accesses, r.vtxprop_accesses));

    // Per-core accounting: a core's clock is exactly its useful cycles
    // plus its attributed stalls, and the final barrier parks every core
    // at the global clock — so the buckets summed over cores must equal
    // num_cores * cycles.
    const std::uint64_t buckets = r.compute_cycles + r.mem_stall_cycles +
                                  r.atomic_stall_cycles +
                                  r.sync_stall_cycles;
    require(out, buckets == r.cycles * p.num_cores,
            pairMsg("stall buckets do not sum to num_cores * cycles",
                    buckets, r.cycles * p.num_cores));

    return out;
}

std::vector<std::string>
checkMachineClocks(const MemorySystem &mach)
{
    std::vector<std::string> out;
    const Cycles total = mach.cycles();
    for (unsigned c = 0; c < mach.params().num_cores; ++c) {
        const Cycles t = mach.coreNow(c);
        require(out, t <= total,
                pairMsg("core clock ahead of post-barrier global clock", t,
                        total));
    }
    return out;
}

std::vector<std::string>
checkPolicyInvariants(const MemorySystem &mach, const StatsReport &r)
{
    std::vector<std::string> out;
    const auto *cmp = dynamic_cast<const CmpMachine *>(&mach);
    if (cmp == nullptr)
        return out;
    const auto *grasp = dynamic_cast<const GraspPolicy *>(cmp->llcPolicy());
    if (grasp == nullptr)
        return out;
    const GraspPolicyStats &s = grasp->stats();

    // The L2 consults the policy exactly once per fill and once per hit,
    // so the decision counters must sum to the hierarchy's L2 totals.
    const std::uint64_t l2_misses = r.l2_accesses - r.l2_hits;
    require(out, s.inserts() == l2_misses,
            pairMsg("policy insert decisions != L2 fills", s.inserts(),
                    l2_misses));
    require(out, s.hits() == r.l2_hits,
            pairMsg("policy promotion decisions != L2 hits", s.hits(),
                    r.l2_hits));

    // GRASP's whole point: the protected hot set always inserts at MRU,
    // and only non-hot classes ever take the distant-reuse path.
    require(out,
            s.distant_inserts ==
                s.warm_inserts + s.cold_inserts + s.other_inserts,
            pairMsg("hot-region lines inserted at distant-reuse priority",
                    s.distant_inserts,
                    s.warm_inserts + s.cold_inserts + s.other_inserts));
    return out;
}

std::uint64_t
compulsoryEdgeReadBytes(EdgeId num_arcs, unsigned edge_entry_bytes,
                        unsigned line_bytes)
{
    const std::uint64_t bytes =
        num_arcs * static_cast<std::uint64_t>(edge_entry_bytes);
    // Floor to whole lines: alignment of the array base may split the
    // first/last line with neighbors, so only full interior lines are a
    // safe compulsory-miss bound.
    return bytes / line_bytes * line_bytes;
}

} // namespace testing
} // namespace omega
