/**
 * @file
 * Per-core tile: the core-private half of a machine.
 *
 * A machine splits into per-core tiles and a shared spine. A tile
 * bundles the state only the owning core's events touch: its timing
 * model and its private counters. Both machines hold a vector of tiles
 * (OMEGA extends the tile with its source-vertex buffer); everything
 * mutated across cores — caches, crossbar, DRAM, scratchpad controller
 * — stays outside, on the spine.
 * The grouping is the unit a future multi-chip sharding would distribute.
 */

#ifndef OMEGA_SIM_TILE_HH
#define OMEGA_SIM_TILE_HH

#include <cstdint>

#include "sim/core_model.hh"
#include "sim/params.hh"

namespace omega {

/** Core-private state common to both machines. */
struct CoreTile
{
    explicit CoreTile(const MachineParams &params) : core(params) {}

    CoreModel core;
    /** Sparse active-list appends attributed to this tile — the issuing
     *  core on the baseline, the home engine for OMEGA's PISC path
     *  (address generation for the interleaved append layout). */
    std::uint64_t sparse_appends = 0;
};

} // namespace omega

#endif // OMEGA_SIM_TILE_HH
