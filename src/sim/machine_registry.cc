/**
 * @file
 * Machine registry table.
 */

#include "sim/machine_registry.hh"

#include "util/logging.hh"

namespace omega {

namespace {

std::unique_ptr<CachePolicy>
makeGraspPolicy()
{
    return std::make_unique<GraspPolicy>();
}

} // namespace

std::unique_ptr<CmpMachine>
MachineRegistryEntry::make(const MachineParams &params) const
{
    return std::make_unique<CmpMachine>(
        params, name, make_policy != nullptr ? make_policy() : nullptr);
}

const std::vector<MachineRegistryEntry> &
machineRegistry()
{
    static const std::vector<MachineRegistryEntry> table = {
        {"baseline", "plain-cache CMP (paper Table III)",
         &MachineParams::baseline, nullptr},
        {"grasp", "baseline hardware + GRASP LLC insertion/promotion",
         &MachineParams::grasp, &makeGraspPolicy},
        {"omega", "scratchpads + PISC engines (paper Fig 6)",
         &MachineParams::omega, nullptr},
        {"omega-sp-only", "scratchpads without PISCs (section X.A)",
         &MachineParams::omegaScratchpadOnly, nullptr},
    };
    return table;
}

const MachineRegistryEntry *
findMachineEntry(std::string_view name)
{
    for (const MachineRegistryEntry &e : machineRegistry()) {
        if (name == e.name)
            return &e;
    }
    return nullptr;
}

const MachineRegistryEntry &
machineEntry(std::string_view name)
{
    const MachineRegistryEntry *e = findMachineEntry(name);
    if (e == nullptr)
        panic("unknown machine '", std::string(name), "'");
    return *e;
}

} // namespace omega
