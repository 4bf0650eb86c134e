/**
 * @file
 * Per-core tile: the core-private half of a machine.
 *
 * CmpMachine splits into per-core tiles and a shared spine. A tile
 * bundles the state only the owning core's events touch: its timing
 * model and its private counters. Everything mutated across cores —
 * caches, crossbar, DRAM, the near-memory unit's scratchpads and
 * controller — stays outside, on the spine. The split keeps each
 * core's replay state in one place; it is not a distribution unit.
 */

#ifndef OMEGA_SIM_TILE_HH
#define OMEGA_SIM_TILE_HH

#include <cstdint>

#include "sim/core_model.hh"
#include "sim/params.hh"

namespace omega {

/** Core-private state of one core. */
struct CoreTile
{
    explicit CoreTile(const MachineParams &params) : core(params) {}

    CoreModel core;
    /** Sparse active-list appends attributed to this tile — the issuing
     *  core for core-executed atomics, the home engine for offloaded
     *  ones (address generation for the interleaved append layout). */
    std::uint64_t sparse_appends = 0;
};

} // namespace omega

#endif // OMEGA_SIM_TILE_HH
