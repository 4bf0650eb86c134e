/**
 * @file
 * Machine configuration (paper Table III).
 *
 * The baseline is a 16-core CMP: 8-wide OoO cores at 2 GHz with 192-entry
 * ROBs, private L1s, a shared banked L2 (2 MB per core), a 128-bit crossbar
 * and 4 channels of DDR3-1600. OMEGA re-purposes half of each core's L2
 * share as a direct-mapped scratchpad (1 MB cache + 1 MB scratchpad per
 * core) with a PISC engine per scratchpad.
 *
 * Capacities can be scaled down uniformly (scaledCapacities) to match the
 * scaled dataset stand-ins; latencies, widths and bandwidths are
 * size-independent and stay fixed.
 */

#ifndef OMEGA_SIM_PARAMS_HH
#define OMEGA_SIM_PARAMS_HH

#include <cstdint>

namespace omega {

/** Cycle count type (core clock domain, 2 GHz). */
using Cycles = std::uint64_t;

/** Geometry/latency of one cache level. */
struct CacheParams
{
    std::uint64_t size_bytes = 0;
    unsigned ways = 8;
    unsigned line_bytes = 64;
    Cycles latency = 2;

    /** Capacity in lines (shadow-directory / reuse-window sizing). */
    std::uint64_t lines() const { return size_bytes / line_bytes; }
};

/** Full machine configuration. */
struct MachineParams
{
    /** @name Cores. @{ */
    unsigned num_cores = 16;
    unsigned issue_width = 8;
    unsigned rob_size = 192;
    /** Maximum outstanding misses per core (MSHR-style overlap window). */
    unsigned mshrs = 8;
    /** Stream prefetcher: cap the core-visible latency of sequential
     *  misses at the on-chip level (traffic still charged in full). */
    bool stream_prefetch = true;
    double clock_ghz = 2.0;
    /** @} */

    /** @name Memory hierarchy. @{ */
    CacheParams l1d{32 * 1024, 8, 64, 2};
    /** Shared L2; size is the TOTAL across all banks. */
    CacheParams l2{32ull * 1024 * 1024, 8, 64, 14};
    /** @} */

    /** @name Scratchpads (OMEGA only; sp_total_bytes==0 disables them). @{ */
    std::uint64_t sp_total_bytes = 0;
    Cycles sp_latency = 3;
    /** PISC engines colocated with the scratchpads. */
    bool pisc_enabled = false;
    /** Per-core read-only source-vertex buffer entries (0 disables). */
    unsigned svb_entries = 0;
    /** Chunk size of the vertex->scratchpad interleaving. */
    unsigned sp_chunk_size = 64;
    /**
     * Move scratchpad data in word-size packets (the OMEGA design). When
     * false, transfers are whole cache lines — the "locked cache lines"
     * alternative of section IX, kept for comparison.
     */
    bool sp_word_granularity = true;
    /** @} */

    /** @name Interconnect (crossbar). @{ */
    Cycles xbar_latency = 8;
    unsigned xbar_flit_bytes = 16;
    /** Header bytes added to every on-chip packet. */
    unsigned xbar_header_bytes = 8;
    /** @} */

    /** @name DRAM. @{ */
    unsigned dram_channels = 4;
    double dram_gbs_per_channel = 12.0;
    Cycles dram_latency = 100;
    /** @} */

    /** @name Atomic-operation handling. @{ */
    /**
     * Pipeline-hold cost of a locked RMW executed by a core (the paper's
     * "atomic operations causing the core's pipeline to be on-hold").
     */
    Cycles atomic_serialize = 16;
    /** Core-side cost of firing an offload packet to a PISC. */
    Cycles pisc_send_cycles = 2;
    /**
     * Ablation switch (paper section III): execute atomics as plain
     * read-modify-writes with no serialization or locking.
     */
    bool atomics_as_plain = false;
    /** @} */

    /** Bytes a DRAM channel moves per core cycle. */
    double dramBytesPerCycle() const
    {
        return dram_gbs_per_channel / clock_ghz;
    }

    /** Paper Table III baseline CMP. */
    static MachineParams baseline();
    /**
     * GRASP node: the baseline hardware verbatim — the machine differs
     * only in the LLC insertion/promotion policy its registry entry
     * installs,
     * so the parameter document of a grasp run is identical to a
     * baseline run's (a deliberate property: the two machines isolate
     * pure replacement-policy effects).
     */
    static MachineParams grasp();
    /** Paper Table III OMEGA node (half L2 re-purposed as scratchpads). */
    static MachineParams omega();
    /** OMEGA with scratchpads but no PISC engines (section X.A ablation). */
    static MachineParams omegaScratchpadOnly();

    /**
     * Scale every capacity by @p factor (latencies/bandwidth unchanged).
     * Used to keep scaled-down dataset stand-ins in the same
     * fits-on-chip regime as the paper's full-size graphs.
     */
    MachineParams scaledCapacities(double factor) const;
};

} // namespace omega

#endif // OMEGA_SIM_PARAMS_HH
