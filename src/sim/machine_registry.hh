/**
 * @file
 * Machine registry: the simulated design points, enumerable by name.
 *
 * Every design point is the one composed CmpMachine in a different
 * configuration: an entry is a name, a parameter factory and an optional
 * LLC policy factory. The near-memory unit needs no entry field — the
 * parameters attach it (sp_total_bytes > 0). Benches and tests iterate
 * the table instead of enumerating literals; adding a design point
 * means adding one entry here.
 *
 * The entry's name is the single source of truth for every label a run
 * emits: the constructed machine's name(), its stat-tree root and trace
 * process name all equal it (enforced by test_machines), and --json
 * "machine" fields derive from it.
 */

#ifndef OMEGA_SIM_MACHINE_REGISTRY_HH
#define OMEGA_SIM_MACHINE_REGISTRY_HH

#include <memory>
#include <string_view>
#include <vector>

#include "sim/cmp_machine.hh"
#include "sim/params.hh"

namespace omega {

/** One simulated design point. */
struct MachineRegistryEntry
{
    /** Canonical machine label (JSON fields, trace pids, stat roots). */
    const char *name;
    /** One-line design summary for tables/usage text. */
    const char *description;
    /** Unscaled paper-configuration parameters. */
    MachineParams (*make_params)();
    /** LLC policy plug-in factory; nullptr keeps true LRU. */
    std::unique_ptr<CachePolicy> (*make_policy)();

    /** Construct the machine from (possibly tweaked/scaled) params. */
    std::unique_ptr<CmpMachine> make(const MachineParams &params) const;
};

/**
 * All registered machines, in canonical sweep order: baseline first,
 * then the cache-management design point, then the scratchpad designs.
 */
const std::vector<MachineRegistryEntry> &machineRegistry();

/** Entry by canonical name, or nullptr if unknown. */
const MachineRegistryEntry *findMachineEntry(std::string_view name);

/** Entry by canonical name; panics on an unknown name. */
const MachineRegistryEntry &machineEntry(std::string_view name);

} // namespace omega

#endif // OMEGA_SIM_MACHINE_REGISTRY_HH
