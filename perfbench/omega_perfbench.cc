/**
 * @file
 * The repo benchmark: host time-to-result and simulated results of the
 * OMEGA simulator on three named workloads.
 *
 *   omega_perfbench --workload <name> --seed <n> --seconds <s>
 *                   --trace <0|1> [--work-dir <dir>]
 *   omega_perfbench --describe
 *
 * The program drives the library from outside through its public entry
 * points: buildDataset/reorderGraph (graph), the machine registry with
 * captureAlgorithm (framework + algorithms -> sim/omega), and the
 * checkpoint coordinator, snapshot files and journal (harness I/O).
 * Every dataset is generated from --seed; the simulator only ever sees
 * the generated graphs.
 *
 * A run sets the workload's graphs up several times, computes the
 * functional oracle of every (graph, algorithm) pair, then repeats whole
 * passes over the workload for --seconds. Host times are medians over
 * repetitions, taken per graph or per job and summed, so a slow stretch
 * of host time that hits a few repetitions does not move them; the
 * end-to-end ones are also scaled to a quiet host by HostProbe. Every
 * simulated run is checked against its oracle, and every pass must
 * reproduce the first pass's simulated cycles and counters exactly.
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 alternates
 * untraced passes with traced ones, in which the machine is wrapped in
 * TimingProxy, and prints the per-layer metrics; traced and untraced
 * passes must agree on every simulated value.
 *
 * Human-readable lines go first; the last line of stdout is one JSON
 * object {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "algorithms/algorithms.hh"
#include "graph/datasets.hh"
#include "graph/reorder.hh"
#include "sim/checkpoint.hh"
#include "sim/interval_stats.hh"
#include "sim/machine_registry.hh"
#include "sim/snapshot.hh"
#include "sim/stats_report.hh"
#include "testing/capture.hh"
#include "timing_proxy.hh"
#include "util/json.hh"
#include "util/stats.hh"

using namespace omega;
using namespace omega::perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Graph set-ups per run: at least kSetupReps, and more while they have
 * taken less than kSetupSeconds (cheap road meshes set up in ~30 ms, so
 * five would be a short, noisy sample), up to kSetupMaxReps.
 */
constexpr int kSetupReps = 5;
constexpr double kSetupSeconds = 2.0;
constexpr int kSetupMaxReps = 64;
/** Interval-sample cadence of the checkpoint-resume documents. */
constexpr Cycles kIntervalCycles = 100000;

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct Job
{
    std::string dataset;
    AlgorithmKind algo;
    std::string machine;
    /** Which independently seeded instance of the dataset. */
    unsigned instance = 0;
};

/**
 * A workload runs the Table-I stand-ins scaled down to 2^-shrink_log2 of
 * their canonical vertex count (same generator, degree structure and edge
 * factor; machine capacities scale along), so one pass takes a few host
 * seconds and a run can report the median of several passes. Each
 * dataset is generated as several instances from seeds derived from
 * --seed: a graph's shape (a road mesh's diameter from its root, say)
 * moves both simulated cycles and host time, and averaging over
 * instances keeps one seed's luck from dominating the result.
 */
struct Workload
{
    const char *name;
    const char *why;
    std::vector<Job> jobs;
    unsigned shrink_log2;
    /** Run the jobs as a checkpointed, interrupted and resumed sweep. */
    bool checkpoint = false;
};

const std::vector<std::string> kAllMachines{"baseline", "grasp", "omega",
                                            "omega-sp-only"};

/** datasets x algos x machines, over @p instances graph instances. */
std::vector<Job>
cross(const std::vector<std::string> &datasets,
      const std::vector<AlgorithmKind> &algos,
      const std::vector<std::string> &machines, unsigned instances)
{
    std::vector<Job> jobs;
    for (unsigned k = 0; k < instances; ++k)
        for (const std::string &d : datasets)
            for (AlgorithmKind a : algos)
                for (const std::string &m : machines)
                    jobs.push_back(Job{d, a, m, k});
    return jobs;
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> w{
        {"pagerank-powerlaw",
         "OMEGA's mechanism: PageRank on power-law graphs replays dense "
         "pull scripts, offloads atomics to PISCs and hits hot vertices "
         "in the scratchpads",
         cross({"lj", "orkut", "wiki", "ic", "rMat"},
               {AlgorithmKind::PageRank}, kAllMachines, 2),
         /*shrink_log2=*/3},
        {"traversal-road",
         "Road graphs have no hubs, so hot-vertex scratchpad residency "
         "buys little; sparse push frontiers, many barriers and small "
         "machine calls stress the framework instead",
         cross({"USA", "rCA", "rPA"},
               {AlgorithmKind::BFS, AlgorithmKind::SSSP, AlgorithmKind::CC},
               kAllMachines, 4),
         /*shrink_log2=*/4},
        {"checkpoint-resume",
         "Same simulation layers plus harness I/O: per-iteration "
         "snapshots, the sweep journal and the result document, "
         "interrupted and resumed",
         [] {
             std::vector<Job> jobs;
             for (unsigned k = 0; k < 2; ++k) {
                 for (const auto &[d, a] :
                      {std::pair{"lj", AlgorithmKind::SSSP},
                       std::pair{"USA", AlgorithmKind::BFS},
                       std::pair{"orkut", AlgorithmKind::PageRank}}) {
                     for (const char *m : {"baseline", "omega"})
                         jobs.push_back(Job{d, a, m, k});
                 }
             }
             return jobs;
         }(),
         /*shrink_log2=*/3,
         /*checkpoint=*/true},
    };
    return w;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

// ---------------------------------------------------------------------
// Metric names (the BENCHMARK.json manifest lists exactly these)
// ---------------------------------------------------------------------

struct MetricDef
{
    std::string name;
    std::string unit;
    const char *better;
};

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> m{
        {"sim_medges_per_s", "Medges/s", "higher"},
        {"wall_s", "s", "lower"},
        {"setup_s", "s", "lower"},
        {"peak_rss_mb", "MB", "lower"},
        {"sim_cycles", "cycles", "lower"},
    };
    return m;
}

bool
isOmegaMachine(const std::string &m)
{
    return m == "omega" || m == "omega-sp-only";
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> m = [] {
        std::vector<MetricDef> v{
            {"graph.generate_s", "s", "lower"},
            {"graph.reorder_s", "s", "lower"},
            {"graph.arcs", "count", "higher"},
            {"engine.self_s", "s", "lower"},
            {"engine.self_frac", "fraction", "lower"},
            {"machine.replay_s", "s", "lower"},
            {"machine.ns_per_op", "ns/op", "lower"},
            {"machine.event_s", "s", "lower"},
            {"machine.calls", "count", "lower"},
            {"machine.ops_per_call", "ops/call", "higher"},
            {"machine.barrier_s", "s", "lower"},
            {"machine.barriers", "count", "lower"},
            {"machine.ops", "count", "lower"},
        };
        for (const std::string &mach : kAllMachines) {
            const std::vector<std::pair<const char *, MetricDef>> common{
                {"cycles", {"", "cycles", "lower"}},
                {"core.mem_stall_frac", {"", "fraction", "lower"}},
                {"core.atomic_stall_frac", {"", "fraction", "lower"}},
                {"core.sync_stall_frac", {"", "fraction", "lower"}},
                {"l1.hit_rate", {"", "fraction", "higher"}},
                {"llc.hit_rate", {"", "fraction", "higher"}},
                {"coherence.invalidations", {"", "count", "lower"}},
                {"xbar.bytes", {"", "bytes", "lower"}},
                {"dram.bytes", {"", "bytes", "lower"}},
                {"dram.queue_cycles", {"", "cycles", "lower"}},
            };
            for (const auto &[suffix, def] : common)
                v.push_back({mach + "." + suffix, def.unit, def.better});
            if (!isOmegaMachine(mach))
                continue;
            const std::vector<std::pair<const char *, MetricDef>> omega{
                {"sp.accesses", {"", "count", "higher"}},
                {"sp.remote_frac", {"", "fraction", "lower"}},
                {"pisc.ops", {"", "count", "higher"}},
                {"pisc.busy_cycles", {"", "cycles", "lower"}},
                {"svb.hit_rate", {"", "fraction", "higher"}},
                {"atomics.offloaded_frac", {"", "fraction", "higher"}},
            };
            for (const auto &[suffix, def] : omega)
                v.push_back({mach + "." + suffix, def.unit, def.better});
        }
        const std::vector<MetricDef> tail{
            {"model.omega_speedup", "ratio", "higher"},
            {"checkpoint.saves", "count", "lower"},
            {"checkpoint.bytes", "bytes", "lower"},
            {"checkpoint.save_s", "s", "lower"},
            {"checkpoint.restore_s", "s", "lower"},
            {"doc.bytes", "bytes", "lower"},
            {"doc.write_s", "s", "lower"},
            {"verify_s", "s", "lower"},
            {"trace.overhead_frac", "fraction", "lower"},
        };
        v.insert(v.end(), tail.begin(), tail.end());
        return v;
    }();
    return m;
}

// ---------------------------------------------------------------------
// Sample statistics
// ---------------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Highest of the usual percentiles that still has at least ten samples
 * beyond it (nearest rank), or nullopt when there are fewer than 20.
 */
std::optional<std::pair<double, double>>
tailPercentile(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    for (double p : {0.999, 0.99, 0.95, 0.9, 0.75, 0.5}) {
        if (n * (1.0 - p) + 1e-9 < 10.0)
            continue;
        const auto rank = static_cast<std::size_t>(std::ceil(p * n));
        return std::make_pair(p * 100.0, v[rank - 1]);
    }
    return std::nullopt;
}

std::string
describeSamples(const std::vector<double> &v)
{
    std::ostringstream os;
    os << "n=" << v.size();
    if (auto t = tailPercentile(v))
        os << ", p" << t->first << "=" << t->second;
    else
        os << ", no tail percentile (needs n>=20)";
    return os.str();
}

/**
 * Sum over items (columns) of each item's median over repetitions
 * (rows): the time of one repetition, robust to a slow stretch of host
 * time that hits only some repetitions.
 */
double
sumOfMedians(const std::vector<std::vector<double>> &rows)
{
    double sum = 0.0;
    for (std::size_t c = 0; !rows.empty() && c < rows.front().size(); ++c) {
        std::vector<double> col;
        for (const std::vector<double> &row : rows)
            if (c < row.size())
                col.push_back(row[c]);
        sum += median(col);
    }
    return sum;
}

// ---------------------------------------------------------------------
// Host-speed probe
// ---------------------------------------------------------------------

/**
 * A fixed pointer chase, timed next to every measured interval, that
 * tells how fast the host runs at that moment.
 *
 * The benchmark shares its host with other tenants, who slow it for
 * stretches of seconds to minutes, so a run's median cannot average a
 * busy stretch out: the median PageRank rate of 30 s runs read
 * 8.7 Medges/s when the host was quiet and 5.0 when it was busy. The
 * simulator slows with the probe: dividing each interval by the
 * slowdown the probe read around it turns host seconds into seconds of
 * the quiet host. Over six 30 s road runs across a busy-to-quiet change
 * the coefficient of variation of the per-run time fell from 0.20 raw
 * to 0.06 scaled. DRAM-bound loops on the VM's other cores did not slow
 * the simulator; the contention comes from below the VM, so it can be
 * sampled but not avoided. The probe is a random cycle through a 256 KiB
 * ring built from a fixed seed, so it does not depend on the workload,
 * its seed or the library under test.
 */
class HostProbe
{
  public:
    HostProbe() : next_(kRingWords)
    {
        std::vector<std::uint32_t> order(kRingWords);
        for (std::uint32_t i = 0; i < kRingWords; ++i)
            order[i] = i;
        std::uint64_t state = 0x5DEECE66Dull;
        for (std::uint32_t i = kRingWords - 1; i > 0; --i) {
            state = state * 6364136223846793005ull + 1442695040888963407ull;
            std::swap(order[i], order[(state >> 33) % (i + 1)]);
        }
        for (std::uint32_t i = 0; i < kRingWords; ++i)
            next_[order[i]] = order[(i + 1) % kRingWords];
        last_ = read();
    }

    /**
     * Reads the probe again and returns the slowdown over the interval
     * since the previous reading: the mean of the two readings over the
     * quiet host's reading (1 when quiet, > 1 when contended).
     */
    double
    slowdown()
    {
        const double now = read();
        const double k = 0.5 * (last_ + now) / kQuietSeconds;
        last_ = now;
        readings_.push_back(now);
        return k;
    }

    /** A point in the run, to sum up the readings taken after it. */
    struct Mark
    {
        std::size_t readings;
        double spent_s;
    };
    Mark mark() const { return {readings_.size(), spent_s_}; }

    /** Mean slowdown over the readings taken since @p m (1 if none). */
    double
    slowdownSince(const Mark &m) const
    {
        if (readings_.size() == m.readings)
            return 1.0;
        double sum = 0.0;
        for (std::size_t i = m.readings; i < readings_.size(); ++i)
            sum += readings_[i];
        return sum / static_cast<double>(readings_.size() - m.readings) /
               kQuietSeconds;
    }

    /** Host seconds spent reading the probe since @p m. */
    double secondsSince(const Mark &m) const { return spent_s_ - m.spent_s; }

    /** Every reading taken through slowdown(). */
    const std::vector<double> &readings() const { return readings_; }

    /** Median reading of an uncontended host (4-vCPU Xeon, see README). */
    static constexpr double kQuietSeconds = 1.35e-3;

  private:
    static constexpr std::uint32_t kRingWords = 1u << 16;
    static constexpr int kSteps = 300000;

    double
    read()
    {
        const auto t0 = Clock::now();
        std::uint32_t at = 0;
        for (int i = 0; i < kSteps; ++i)
            at = next_[at];
        sink_ = at;
        const double s = since(t0);
        spent_s_ += s;
        return s;
    }

    std::vector<std::uint32_t> next_;
    double last_ = 0.0;
    double spent_s_ = 0.0;
    std::vector<double> readings_;
    volatile std::uint32_t sink_ = 0;
};

/** Row sums of @p rows (one total per repetition). */
std::vector<double>
rowSums(const std::vector<std::vector<double>> &rows)
{
    std::vector<double> out;
    for (const std::vector<double> &row : rows) {
        double sum = 0.0;
        for (double v : row)
            sum += v;
        out.push_back(sum);
    }
    return out;
}

// ---------------------------------------------------------------------
// Set-up and the functional oracle
// ---------------------------------------------------------------------

struct Dataset
{
    DatasetSpec spec;
    Graph graph;
};

/** @p spec with 2^shrink_log2 times fewer vertices. */
DatasetSpec
shrunk(DatasetSpec spec, unsigned shrink_log2)
{
    switch (spec.family) {
      case DatasetFamily::Rmat:
        spec.rmat_scale -= shrink_log2;
        break;
      case DatasetFamily::BarabasiAlbert:
        spec.ba_vertices >>= shrink_log2;
        break;
      case DatasetFamily::RoadMesh:
        spec.road_width >>= shrink_log2 / 2;
        spec.road_height >>= shrink_log2 - shrink_log2 / 2;
        break;
    }
    spec.capacity_scale /= static_cast<double>(1u << shrink_log2);
    return spec;
}

/** Seed of instance @p k; instance 0 uses --seed itself. */
std::uint64_t
instanceSeed(std::uint64_t seed, unsigned k)
{
    return seed + k * 0x9E3779B97F4A7C15ull;
}

/** Key of a job's graph in the set-up (one graph per instance). */
std::string
graphKey(const Job &j)
{
    return j.dataset + "#" + std::to_string(j.instance);
}

struct SetupResult
{
    std::map<std::string, Dataset> datasets;
    /** Host seconds per set-up repetition (rows) and graph (columns). */
    std::vector<std::vector<double>> generate_s, reorder_s, setup_s;
    /** setup_s over the host slowdown the probe read around each. */
    std::vector<std::vector<double>> scaled_setup_s;
};

SetupResult
setUp(const Workload &w, std::uint64_t seed, HostProbe &probe)
{
    std::vector<const Job *> graphs; // one job per distinct graph
    for (const Job &j : w.jobs) {
        if (std::none_of(graphs.begin(), graphs.end(), [&](const Job *g) {
                return graphKey(*g) == graphKey(j);
            }))
            graphs.push_back(&j);
    }

    SetupResult r;
    const auto start = Clock::now();
    for (int rep = 0; rep < kSetupMaxReps &&
                      (rep < kSetupReps || since(start) < kSetupSeconds);
         ++rep) {
        r.datasets.clear();
        std::vector<double> gen, reorder, total, scaled;
        for (const Job *j : graphs) {
            const std::optional<DatasetSpec> canonical =
                findDataset(j->dataset);
            if (!canonical)
                throw std::runtime_error("unknown dataset " + j->dataset);
            const DatasetSpec spec = shrunk(*canonical, w.shrink_log2);
            auto t0 = Clock::now();
            Graph raw = buildDataset(spec, instanceSeed(seed, j->instance));
            gen.push_back(since(t0));
            t0 = Clock::now();
            Graph g = reorderGraph(raw, ReorderKind::InDegreeNthElement);
            reorder.push_back(since(t0));
            total.push_back(gen.back() + reorder.back());
            scaled.push_back(total.back() / probe.slowdown());
            r.datasets.emplace(graphKey(*j), Dataset{spec, std::move(g)});
        }
        r.generate_s.push_back(std::move(gen));
        r.reorder_s.push_back(std::move(reorder));
        r.setup_s.push_back(std::move(total));
        r.scaled_setup_s.push_back(std::move(scaled));
    }
    return r;
}

std::string
oracleKey(const Job &j)
{
    return graphKey(j) + "/" + algorithmName(j.algo);
}

// ---------------------------------------------------------------------
// One simulated run
// ---------------------------------------------------------------------

struct RunResult
{
    Cycles cycles = 0;
    StatsReport stats;
    double sim_s = 0.0;
    BoundaryTimes boundary;
    /** Scripted-replay totals the engine reported for the run. */
    ScriptReplayStats replay;
    testing::AlgoCapture capture;
    /** Iterations completed (checkpointed runs only). */
    std::uint64_t iterations = 0;
};

std::unique_ptr<MemorySystem>
makeMachine(const Job &j, const DatasetSpec &spec)
{
    const MachineRegistryEntry &e = machineEntry(j.machine);
    return e.make(e.make_params().scaledCapacities(spec.capacity_scale));
}

RunResult
simulate(const Job &j, const Dataset &d, bool traced)
{
    RunResult r;
    std::unique_ptr<MemorySystem> m = makeMachine(j, d.spec);
    std::optional<TimingProxy> proxy;
    if (traced)
        proxy.emplace(*m);
    MemorySystem *target = traced ? static_cast<MemorySystem *>(&*proxy)
                                  : m.get();
    const auto t0 = Clock::now();
    r.capture = testing::captureAlgorithm(j.algo, d.graph, target);
    r.sim_s = since(t0);
    r.cycles = m->cycles();
    r.stats = m->report();
    r.replay = target->replayStats();
    if (traced)
        r.boundary = proxy->times();
    return r;
}

bool
sameStats(const StatsReport &a, const StatsReport &b)
{
    for (const StatsField &f : StatsReport::fields())
        if (a.*f.member != b.*f.member)
            return false;
    return true;
}

bool
sameReplay(const ScriptReplayStats &a, const ScriptReplayStats &b)
{
    return a.epochs == b.epochs && a.merged_items == b.merged_items &&
           a.merged_ops == b.merged_ops &&
           a.max_queue_depth == b.max_queue_depth;
}

// ---------------------------------------------------------------------
// Checks and counters shared by all workloads
// ---------------------------------------------------------------------

struct Ledger
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    std::vector<std::string> problems;

    void
    fail(const std::string &what)
    {
        ++failed;
        correct = false;
        if (problems.size() < 20)
            problems.push_back(what);
    }
    /** A determinism or accounting check (not a run): breaks `correct`. */
    void
    broken(const std::string &what)
    {
        correct = false;
        if (problems.size() < 20)
            problems.push_back(what);
    }
};

std::string
jobName(const Job &j)
{
    return graphKey(j) + "/" + algorithmName(j.algo) + "/" + j.machine;
}

struct Reference
{
    Cycles cycles = 0;
    StatsReport stats;
};

/** Check a run against its oracle and against the first pass's values. */
void
checkRun(Ledger &ledger, const Job &j, const RunResult &r,
         const testing::AlgoCapture &oracle,
         std::map<std::string, Reference> &refs, double &verify_s)
{
    ++ledger.attempted;
    const auto t0 = Clock::now();
    const std::vector<std::string> diff =
        testing::compareCaptures(oracle, r.capture);
    verify_s += since(t0);
    if (!diff.empty()) {
        ledger.fail(jobName(j) + ": result differs from the oracle: " +
                    diff.front());
        return;
    }
    const std::string key = jobName(j);
    auto it = refs.find(key);
    if (it == refs.end()) {
        refs.emplace(key, Reference{r.cycles, r.stats});
    } else if (it->second.cycles != r.cycles ||
               !sameStats(it->second.stats, r.stats)) {
        ledger.broken(key + ": simulated values differ between passes");
    }
}

/** Simulated totals of one pass, per machine. */
struct MachineTotals
{
    Cycles cycles = 0;
    StatsReport stats;
};

struct PassSim
{
    std::map<std::string, MachineTotals> per_machine;
    /** Cycles per (dataset, algorithm) and machine, for the speedup. */
    std::map<std::string, std::map<std::string, Cycles>> by_pair;
    Cycles total_cycles = 0;

    void
    add(const Job &j, Cycles cycles, const StatsReport &stats)
    {
        MachineTotals &t = per_machine[j.machine];
        t.cycles += cycles;
        t.stats.accumulate(stats);
        by_pair[oracleKey(j)][j.machine] = cycles;
        total_cycles += cycles;
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Geomean of baseline/omega cycles over pairs that ran both. */
double
omegaSpeedup(const PassSim &p)
{
    double log_sum = 0.0;
    int n = 0;
    for (const auto &[pair, cycles] : p.by_pair) {
        auto b = cycles.find("baseline");
        auto o = cycles.find("omega");
        if (b == cycles.end() || o == cycles.end() || o->second == 0)
            continue;
        log_sum += std::log(static_cast<double>(b->second) /
                            static_cast<double>(o->second));
        ++n;
    }
    return n > 0 ? std::exp(log_sum / n) : 0.0;
}

void
simulatedMetrics(const PassSim &p, std::map<std::string, double> &out)
{
    for (const std::string &m : kAllMachines) {
        auto it = p.per_machine.find(m);
        const MachineTotals t = it != p.per_machine.end() ? it->second
                                                         : MachineTotals{};
        const StatsReport &s = t.stats;
        const double core = static_cast<double>(
            s.compute_cycles + s.mem_stall_cycles + s.atomic_stall_cycles +
            s.sync_stall_cycles);
        out[m + ".cycles"] = static_cast<double>(t.cycles);
        out[m + ".core.mem_stall_frac"] = ratio(s.mem_stall_cycles, core);
        out[m + ".core.atomic_stall_frac"] =
            ratio(s.atomic_stall_cycles, core);
        out[m + ".core.sync_stall_frac"] = ratio(s.sync_stall_cycles, core);
        out[m + ".l1.hit_rate"] = ratio(s.l1_hits, s.l1_accesses);
        out[m + ".llc.hit_rate"] = ratio(s.l2_hits, s.l2_accesses);
        out[m + ".coherence.invalidations"] =
            static_cast<double>(s.invalidations);
        out[m + ".xbar.bytes"] = static_cast<double>(s.onchip_bytes);
        out[m + ".dram.bytes"] = static_cast<double>(s.dramBytes());
        out[m + ".dram.queue_cycles"] =
            static_cast<double>(s.dram_queue_cycles);
        if (!isOmegaMachine(m))
            continue;
        out[m + ".sp.accesses"] = static_cast<double>(s.sp_accesses);
        out[m + ".sp.remote_frac"] = ratio(s.sp_remote, s.sp_accesses);
        out[m + ".pisc.ops"] = static_cast<double>(s.pisc_ops);
        out[m + ".pisc.busy_cycles"] =
            static_cast<double>(s.pisc_busy_cycles);
        out[m + ".svb.hit_rate"] =
            ratio(s.svb_hits, s.svb_hits + s.svb_misses);
        out[m + ".atomics.offloaded_frac"] =
            ratio(s.atomics_offloaded, s.atomics_total);
    }
    out["model.omega_speedup"] = omegaSpeedup(p);
}

// ---------------------------------------------------------------------
// Result document
// ---------------------------------------------------------------------

/** One run as recorded in a workload's result document. */
struct DocRun
{
    std::string key;
    Job job;
    Cycles cycles = 0;
    StatsReport stats;
    std::string stat_tree;
    IntervalRecorder intervals{kIntervalCycles};
};

std::string
renderDocument(const std::string &workload, std::uint64_t seed,
               const std::vector<DocRun> &runs)
{
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/true);
    w.beginObject();
    w.field("workload", workload);
    w.field("seed", seed);
    w.field("interval_cycles", kIntervalCycles);
    w.key("runs").beginArray();
    for (const DocRun &r : runs) {
        w.beginObject();
        w.field("dataset", r.job.dataset);
        w.field("instance", r.job.instance);
        w.field("algorithm", algorithmName(r.job.algo));
        w.field("machine", r.job.machine);
        w.field("cycles", r.cycles);
        w.key("stats");
        r.stats.writeJson(w);
        if (!r.stat_tree.empty())
            w.key("stat_tree").rawValue(r.stat_tree);
        w.key("intervals");
        r.intervals.writeJson(w);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
    return os.str();
}

/** Write @p text to @p path; returns the host seconds it took. */
double
writeDocument(const std::string &path, const std::string &text)
{
    const auto t0 = Clock::now();
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
    os.close();
    if (!os)
        throw std::runtime_error("cannot write " + path);
    return since(t0);
}

// ---------------------------------------------------------------------
// Plain workloads (pagerank-powerlaw, traversal-road)
// ---------------------------------------------------------------------

struct Context
{
    const Workload &workload;
    std::uint64_t seed;
    bool trace;
    std::string work_dir;
    SetupResult setup;
    std::map<std::string, testing::AlgoCapture> oracles;
    double oracle_s = 0.0;
    Ledger ledger;
    std::map<std::string, Reference> refs;
    HostProbe probe;
};

struct PassResult
{
    double sim_s = 0.0;
    double wall_s = 0.0;
    double verify_s = 0.0;
    double doc_write_s = 0.0;
    std::uint64_t doc_bytes = 0;
    std::uint64_t arcs = 0;
    std::vector<double> run_s;
    /** run_s over the host slowdown the probe read around each run. */
    std::vector<double> scaled_run_s;
    /** Mean host slowdown over the pass, and host seconds in the probe. */
    double slowdown = 1.0;
    double probe_s = 0.0;
    BoundaryTimes boundary;
    PassSim sim;
    /** Per-run deterministic replay totals, for traced/untraced match. */
    std::vector<ScriptReplayStats> replay;
};

PassResult
plainPass(Context &ctx, bool traced)
{
    PassResult p;
    const auto t0 = Clock::now();
    const HostProbe::Mark mark = ctx.probe.mark();
    std::vector<DocRun> doc;
    for (const Job &j : ctx.workload.jobs) {
        const Dataset &d = ctx.setup.datasets.at(graphKey(j));
        RunResult r;
        try {
            r = simulate(j, d, traced);
        } catch (const std::exception &e) {
            ++ctx.ledger.attempted;
            ctx.ledger.fail(jobName(j) + ": " + e.what());
            continue;
        }
        checkRun(ctx.ledger, j, r, ctx.oracles.at(oracleKey(j)), ctx.refs,
                 p.verify_s);
        if (traced) {
            const double self = r.sim_s - r.boundary.machineSeconds();
            // engine.self_s + replay + event + barrier == simulate time
            // holds by construction; what can fail is a negative self
            // time, i.e. overlapping (nested) boundary spans.
            if (self < -1e-6 * r.sim_s)
                ctx.ledger.broken(jobName(j) + ": boundary time exceeds "
                                               "the run's wall time");
            p.boundary.accumulate(r.boundary);
        }
        p.sim_s += r.sim_s;
        p.run_s.push_back(r.sim_s);
        p.scaled_run_s.push_back(r.sim_s / ctx.probe.slowdown());
        p.arcs += d.graph.numArcs();
        p.sim.add(j, r.cycles, r.stats);
        p.replay.push_back(r.replay);
        DocRun dr;
        dr.job = j;
        dr.cycles = r.cycles;
        dr.stats = r.stats;
        doc.push_back(std::move(dr));
    }
    const std::string text =
        renderDocument(ctx.workload.name, ctx.seed, doc);
    p.doc_bytes = text.size();
    p.doc_write_s =
        writeDocument(ctx.work_dir + "/" + ctx.workload.name + ".json", text);
    p.wall_s = since(t0);
    p.slowdown = ctx.probe.slowdownSince(mark);
    p.probe_s = ctx.probe.secondsSince(mark);
    return p;
}

// ---------------------------------------------------------------------
// checkpoint-resume
// ---------------------------------------------------------------------

struct CheckpointCounters
{
    std::uint64_t saves = 0;
    std::uint64_t bytes = 0;
    std::vector<double> save_s;
    std::vector<double> restore_s;
};

std::uint64_t
fileSize(const std::string &path)
{
    std::error_code ec;
    const auto n = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(n);
}

std::string
runKey(const Context &ctx, const Job &j)
{
    return jobName(j) + "|seed=" + std::to_string(ctx.seed);
}

void
encodeJournal(SnapshotWriter &w, const DocRun &r)
{
    w.putString(r.key);
    w.putU64(r.cycles);
    r.stats.save(w);
    w.putString(r.stat_tree);
    r.intervals.save(w);
}

DocRun
decodeJournal(const std::vector<std::uint8_t> &record, const Job &j)
{
    SnapshotReader rd(record);
    DocRun r;
    r.key = rd.getString();
    r.job = j;
    r.cycles = rd.getU64();
    r.stats.restore(rd);
    r.stat_tree = rd.getString();
    r.intervals.restore(rd);
    if (rd.remaining() != 0)
        throw SnapshotStateError("journal record has trailing bytes");
    return r;
}

/**
 * One checkpointed run: every completed iteration is saved through the
 * coordinator (the test_stop hook is the per-iteration cadence, so each
 * save can be timed); with @p stop_at the run is interrupted at that
 * iteration and CheckpointInterrupt propagates.
 *
 * @return the run's document entry; @p result gets the simulated run.
 */
DocRun
checkpointedRun(Context &ctx, const Job &j, CheckpointCoordinator &coord,
                std::optional<std::uint64_t> stop_at,
                CheckpointCounters &cc, RunResult &result)
{
    const Dataset &d = ctx.setup.datasets.at(graphKey(j));
    std::unique_ptr<MemorySystem> m = makeMachine(j, d.spec);
    DocRun run;
    run.key = runKey(ctx, j);
    run.job = j;
    m->attachIntervalRecorder(&run.intervals);

    coord.beginRun(run.key);
    coord.registerSection(
        "intervals", [&run](SnapshotWriter &w) { run.intervals.save(w); },
        [&run](SnapshotReader &r) { run.intervals.restore(r); });
    const std::string &path = coord.savePath();
    std::uint64_t saved = 0;
    coord.test_stop = [&](std::uint64_t it) {
        result.iterations = it;
        if (saved++ > 0)
            cc.bytes += fileSize(path); // the previous iteration's save
        ++cc.saves;
        if (stop_at && it == *stop_at)
            return true; // the coordinator saves, then interrupts
        const auto t0 = Clock::now();
        coord.saveNow(it);
        cc.save_s.push_back(since(t0));
        return false;
    };

    EngineOptions opts;
    opts.checkpoint = &coord;
    try {
        const auto t0 = Clock::now();
        result.capture = testing::captureAlgorithm(j.algo, d.graph, m.get(),
                                                   opts);
        result.sim_s = since(t0);
    } catch (...) {
        if (saved > 0)
            cc.bytes += fileSize(path);
        coord.test_stop = nullptr;
        throw;
    }
    if (saved > 0)
        cc.bytes += fileSize(path);
    coord.test_stop = nullptr;
    m->recordFinalSample();
    result.cycles = m->cycles();
    result.stats = m->report();
    run.cycles = result.cycles;
    run.stats = result.stats;
    if (const StatGroup *tree = m->statTree()) {
        std::ostringstream os;
        JsonWriter w(os, /*pretty=*/false);
        tree->writeJson(w);
        run.stat_tree = os.str();
    }
    m->attachIntervalRecorder(nullptr);
    return run;
}

struct CheckpointPass
{
    PassResult pass;
    CheckpointCounters cc;
};

CheckpointPass
checkpointPass(Context &ctx)
{
    CheckpointPass out;
    PassResult &p = out.pass;
    CheckpointCounters &cc = out.cc;
    const auto t_pass = Clock::now();
    const HostProbe::Mark mark = ctx.probe.mark();
    const std::string snap = ctx.work_dir + "/checkpoint.snap";
    const std::string journal = snap + ".journal";
    const std::vector<Job> &jobs = ctx.workload.jobs;

    auto verifyRun = [&](const Job &j, const RunResult &r) {
        checkRun(ctx.ledger, j, r, ctx.oracles.at(oracleKey(j)), ctx.refs,
                 p.verify_s);
    };
    auto journalRun = [&](const DocRun &r) {
        SnapshotWriter w;
        encodeJournal(w, r);
        appendJournalRecord(journal, w.bytes());
    };
    auto writeDoc = [&](const std::vector<DocRun> &runs,
                        const std::string &name) {
        const std::string text =
            renderDocument(ctx.workload.name, ctx.seed, runs);
        p.doc_write_s += writeDocument(ctx.work_dir + "/" + name, text);
        p.doc_bytes += text.size();
        return text;
    };

    // 1. The uninterrupted checkpointed sweep: the reference document.
    std::vector<DocRun> reference;
    std::vector<std::uint64_t> iterations(jobs.size(), 0);
    {
        std::filesystem::remove(journal);
        CheckpointCoordinator coord;
        coord.configureSave(snap, /*every=*/0);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            RunResult r;
            DocRun run;
            try {
                run = checkpointedRun(ctx, jobs[i], coord, std::nullopt, cc,
                                      r);
            } catch (const std::exception &e) {
                ++ctx.ledger.attempted;
                ctx.ledger.fail(jobName(jobs[i]) + ": " + e.what());
                continue;
            }
            verifyRun(jobs[i], r);
            journalRun(run);
            iterations[i] = r.iterations;
            p.sim_s += r.sim_s;
            p.run_s.push_back(r.sim_s);
            p.scaled_run_s.push_back(r.sim_s / ctx.probe.slowdown());
            p.arcs +=
                ctx.setup.datasets.at(graphKey(jobs[i])).graph.numArcs();
            p.sim.add(jobs[i], r.cycles, r.stats);
            reference.push_back(std::move(run));
        }
    }
    const std::string doc_a = writeDoc(reference, "uninterrupted.json");

    // 2. The same sweep, interrupted halfway through its middle run.
    const std::size_t stop_run = jobs.size() / 2;
    const std::uint64_t stop_it = std::max<std::uint64_t>(
        1, iterations[stop_run] / 2);
    std::filesystem::remove(journal);
    {
        CheckpointCoordinator coord;
        coord.configureSave(snap, 0);
        for (std::size_t i = 0; i <= stop_run; ++i) {
            RunResult r;
            try {
                const DocRun run = checkpointedRun(
                    ctx, jobs[i], coord,
                    i == stop_run ? std::optional(stop_it) : std::nullopt,
                    cc, r);
                verifyRun(jobs[i], r);
                journalRun(run);
                if (i == stop_run)
                    ctx.ledger.broken(jobName(jobs[i]) +
                                      ": the interrupt never fired");
            } catch (const CheckpointInterrupt &) {
                if (i != stop_run)
                    ctx.ledger.broken("unexpected interrupt");
            } catch (const std::exception &e) {
                ++ctx.ledger.attempted;
                ctx.ledger.fail(jobName(jobs[i]) + ": " + e.what());
            }
        }
    }

    // 3. Resume: journaled runs are decoded, the interrupted one is
    //    restored from its snapshot, the rest simulate afresh.
    std::vector<DocRun> resumed;
    {
        CheckpointCoordinator coord;
        coord.configureSave(snap, 0);
        const auto t0 = Clock::now();
        coord.setResumePayload(readSnapshotFile(snap));
        std::map<std::string, std::vector<std::uint8_t>> journaled;
        for (auto &rec : readJournalRecords(journal)) {
            SnapshotReader r(rec);
            journaled.emplace(r.getString(), std::move(rec));
        }
        cc.restore_s.push_back(since(t0));
        for (const Job &j : jobs) {
            auto it = journaled.find(runKey(ctx, j));
            if (it != journaled.end()) {
                resumed.push_back(decodeJournal(it->second, j));
                continue;
            }
            RunResult r;
            try {
                DocRun run = checkpointedRun(ctx, j, coord, std::nullopt,
                                             cc, r);
                verifyRun(j, r);
                journalRun(run);
                resumed.push_back(std::move(run));
            } catch (const std::exception &e) {
                ++ctx.ledger.attempted;
                ctx.ledger.fail(jobName(j) + ": " + e.what());
            }
        }
        if (coord.resumePending())
            ctx.ledger.broken("the resume snapshot was never consumed");
    }
    const std::string doc_b = writeDoc(resumed, "resumed.json");
    ++ctx.ledger.attempted;
    if (doc_a != doc_b)
        ctx.ledger.fail("resumed document differs from the uninterrupted "
                        "one");
    p.wall_s = since(t_pass);
    p.slowdown = ctx.probe.slowdownSince(mark);
    p.probe_s = ctx.probe.secondsSince(mark);
    return out;
}

// ---------------------------------------------------------------------
// Host fingerprint and output
// ---------------------------------------------------------------------

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

void
printFingerprint(std::ostream &os)
{
    struct utsname u{};
    uname(&u);
    os << "host: nproc=" << std::thread::hardware_concurrency()
       << " cpu=\"" << cpuModel() << "\" kernel=" << u.release
       << " compiler=\"" << __VERSION__ << "\" build=" << PERFBENCH_BUILD_TYPE
       << " lto=" << (PERFBENCH_LTO ? "on" : "off") << "\n";
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
printMetric(std::ostream &os, const std::string &name, double value,
            const std::string &unit, const std::string &note)
{
    os << "  " << name << " = " << value << " " << unit;
    if (!note.empty())
        os << "  (" << note << ")";
    os << "\n";
}

void
printResult(const Ledger &ledger, const std::vector<MetricDef> &defs,
            const std::map<std::string, double> &values)
{
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/false);
    w.beginObject();
    w.field("correct", ledger.correct);
    w.field("attempted", ledger.attempted);
    w.field("failed", ledger.failed);
    w.key("metrics").beginObject();
    for (const MetricDef &d : defs) {
        w.key(d.name).beginObject();
        w.field("value", values.at(d.name));
        w.field("unit", d.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::cout << os.str() << std::endl;
}

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "omega_perfbench: " << msg << "\n"
              << "usage: omega_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>]\n"
              << "       omega_perfbench --describe\n";
    std::exit(2);
}

void
describe()
{
    JsonWriter w(std::cout, /*pretty=*/true);
    w.beginObject();
    w.key("workloads").beginArray();
    for (const Workload &wl : workloads()) {
        w.beginObject();
        w.field("name", wl.name);
        w.field("why", wl.why);
        w.endObject();
    }
    w.endArray();
    for (const auto &[key, defs] :
         {std::pair{"end_to_end", &endToEndMetrics()},
          std::pair{"per_layer", &perLayerMetrics()}}) {
        w.key(key).beginArray();
        for (const MetricDef &d : *defs) {
            w.beginObject();
            w.field("name", d.name);
            w.field("unit", d.unit);
            w.field("better", d.better);
            w.endObject();
        }
        w.endArray();
    }
    w.endObject();
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name, work_dir = ".";
    std::optional<std::uint64_t> seed;
    double seconds = -1.0;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--describe") {
            describe();
            return 0;
        }
        if (i + 1 >= argc)
            usage(arg + " needs an operand");
        const std::string val = argv[++i];
        try {
            if (arg == "--workload")
                workload_name = val;
            else if (arg == "--seed")
                seed = std::stoull(val);
            else if (arg == "--seconds")
                seconds = std::stod(val);
            else if (arg == "--trace")
                trace = std::stoi(val);
            else if (arg == "--work-dir")
                work_dir = val;
            else
                usage("unknown argument " + arg);
        } catch (const std::logic_error &) {
            usage("bad operand for " + arg + ": " + val);
        }
    }
    const Workload *wl = findWorkload(workload_name);
    if (wl == nullptr)
        usage("unknown workload '" + workload_name + "'");
    if (!seed || seconds <= 0.0 || (trace != 0 && trace != 1))
        usage("--seed, --seconds > 0 and --trace 0|1 are required");
    std::filesystem::create_directories(work_dir);

    std::cout << "workload " << wl->name << " seed " << *seed
              << (trace ? " (traced)" : "") << ": " << wl->why << "\n";
    printFingerprint(std::cout);

    Context ctx{*wl, *seed, trace == 1, work_dir, {}, {}, 0.0, {}, {}, {}};
    ctx.setup = setUp(*wl, *seed, ctx.probe);
    {
        const auto t0 = Clock::now();
        for (const Job &j : wl->jobs) {
            const std::string key = oracleKey(j);
            if (ctx.oracles.count(key) == 0)
                ctx.oracles.emplace(
                    key, testing::captureAlgorithm(
                             j.algo, ctx.setup.datasets.at(graphKey(j)).graph,
                             nullptr));
        }
        ctx.oracle_s = since(t0);
    }
    std::uint64_t graph_arcs = 0;
    for (const auto &[name, d] : ctx.setup.datasets)
        graph_arcs += d.graph.numArcs();

    // Measurement window: whole passes until --seconds have elapsed, at
    // least three (traced mode: alternating untraced/traced pairs).
    std::vector<PassResult> untraced, traced;
    std::vector<CheckpointCounters> ckpt;
    const auto window = Clock::now();
    while (true) {
        if (wl->checkpoint) {
            CheckpointPass cp = checkpointPass(ctx);
            untraced.push_back(std::move(cp.pass));
            ckpt.push_back(std::move(cp.cc));
        } else {
            untraced.push_back(plainPass(ctx, false));
            if (ctx.trace)
                traced.push_back(plainPass(ctx, true));
        }
        if (since(window) >= seconds && untraced.size() >= 3)
            break;
    }

    // Deterministic values must match between traced and untraced.
    for (const PassResult &t : traced) {
        if (t.sim.total_cycles != untraced.front().sim.total_cycles)
            ctx.ledger.broken("traced pass cycles differ from untraced");
        if (t.replay.size() != untraced.front().replay.size())
            ctx.ledger.broken("traced pass ran a different job count");
        for (std::size_t i = 0; i < t.replay.size(); ++i)
            if (!sameReplay(t.replay[i], untraced.front().replay[i]))
                ctx.ledger.broken("traced pass replay totals differ");
        if (t.boundary.ops != traced.front().boundary.ops ||
            t.boundary.calls() != traced.front().boundary.calls())
            ctx.ledger.broken("traced passes differ in machine calls/ops");
    }

    auto collect = [](const std::vector<PassResult> &v, auto field) {
        std::vector<std::decay_t<decltype(field(v.front()))>> out;
        for (const PassResult &p : v)
            out.push_back(field(p));
        return out;
    };
    const std::vector<double> wall_s =
        collect(untraced, [](const PassResult &p) { return p.wall_s; });
    const std::vector<double> rate = collect(untraced, [](const auto &p) {
        return static_cast<double>(p.arcs) / p.sim_s / 1e6;
    });
    std::vector<double> run_s;
    for (const PassResult &p : untraced)
        run_s.insert(run_s.end(), p.run_s.begin(), p.run_s.end());
    const double job_s = sumOfMedians(
        collect(untraced, [](const PassResult &p) { return p.run_s; }));
    const double scaled_job_s = sumOfMedians(
        collect(untraced, [](const PassResult &p) { return p.scaled_run_s; }));
    // Verification and document time of a pass (wall minus simulate and
    // probe time), raw and over the pass's mean host slowdown.
    const std::vector<double> overhead_s =
        collect(untraced, [](const PassResult &p) {
            return p.wall_s - p.sim_s - p.probe_s;
        });
    const std::vector<double> scaled_overhead_s =
        collect(untraced, [](const PassResult &p) {
            return (p.wall_s - p.sim_s - p.probe_s) / p.slowdown;
        });
    std::vector<double> slowdown;
    for (double r : ctx.probe.readings())
        slowdown.push_back(r / HostProbe::kQuietSeconds);

    std::map<std::string, double> values;
    const std::vector<MetricDef> *defs = nullptr;
    std::cout << "passes: " << untraced.size() << " untraced, "
              << traced.size() << " traced; " << ctx.ledger.attempted
              << " checks attempted, " << ctx.ledger.failed << " failed"
              << " (failed_frac "
              << ratio(ctx.ledger.failed, ctx.ledger.attempted) << ")\n";
    std::cout << "per-pass Medges/s:";
    for (double r : rate)
        std::cout << " " << r;
    std::cout << "\n";
    std::cout << "per-run simulate time: median " << median(run_s)
              << " s (" << describeSamples(run_s) << ")\n";
    std::cout << "host slowdown (probe reading / quiet reading "
              << HostProbe::kQuietSeconds << " s): median "
              << median(slowdown) << " (" << describeSamples(slowdown)
              << ")\n";
    if (!ctx.trace) {
        const double arcs = static_cast<double>(untraced.front().arcs);
        defs = &endToEndMetrics();
        values["sim_medges_per_s"] = arcs / scaled_job_s / 1e6;
        values["wall_s"] = scaled_job_s + median(scaled_overhead_s);
        values["setup_s"] = sumOfMedians(ctx.setup.scaled_setup_s);
        values["peak_rss_mb"] = peakRssMb();
        values["sim_cycles"] =
            static_cast<double>(untraced.front().sim.total_cycles);
        std::cout << "end-to-end (host times in quiet-host seconds: each "
                     "over the slowdown the probe read around it; medians "
                     "over passes):\n";
        printMetric(std::cout, "sim_medges_per_s",
                    values["sim_medges_per_s"], "Medges/s",
                    "arcs / sum of per-job medians over " +
                        std::to_string(untraced.size()) +
                        " passes; unscaled " +
                        std::to_string(arcs / job_s / 1e6) +
                        "; per-run times " + describeSamples(run_s));
        printMetric(std::cout, "wall_s", values["wall_s"], "s",
                    "per-job medians + median verify/document time; "
                    "unscaled " +
                        std::to_string(job_s + median(overhead_s)) +
                        "; per-pass wall times " + describeSamples(wall_s));
        printMetric(std::cout, "setup_s", values["setup_s"], "s",
                    "per-graph medians; unscaled " +
                        std::to_string(sumOfMedians(ctx.setup.setup_s)) +
                        "; per-set-up totals " +
                        describeSamples(rowSums(ctx.setup.setup_s)));
        printMetric(std::cout, "peak_rss_mb", values["peak_rss_mb"], "MB",
                    "getrusage");
        printMetric(std::cout, "sim_cycles", values["sim_cycles"],
                    "cycles", "deterministic");
    } else {
        defs = &perLayerMetrics();
        values["graph.generate_s"] = sumOfMedians(ctx.setup.generate_s);
        values["graph.reorder_s"] = sumOfMedians(ctx.setup.reorder_s);
        values["graph.arcs"] = static_cast<double>(graph_arcs);
        std::vector<double> self, self_frac, replay, event, barrier, nsop,
            overhead;
        for (std::size_t i = 0; i < traced.size(); ++i) {
            const PassResult &t = traced[i];
            const double s = t.sim_s - t.boundary.machineSeconds();
            self.push_back(s);
            self_frac.push_back(ratio(s, t.sim_s));
            replay.push_back(t.boundary.replay_s);
            event.push_back(t.boundary.event_s);
            barrier.push_back(t.boundary.barrier_s);
            nsop.push_back(ratio((t.boundary.replay_s + t.boundary.event_s) *
                                     1e9,
                                 static_cast<double>(t.boundary.ops)));
            overhead.push_back(t.sim_s / untraced[i].sim_s - 1.0);
        }
        const BoundaryTimes b =
            traced.empty() ? BoundaryTimes{} : traced.front().boundary;
        values["engine.self_s"] = median(self);
        values["engine.self_frac"] = median(self_frac);
        values["machine.replay_s"] = median(replay);
        values["machine.ns_per_op"] = median(nsop);
        values["machine.event_s"] = median(event);
        values["machine.calls"] = static_cast<double>(b.calls());
        values["machine.ops_per_call"] =
            ratio(static_cast<double>(b.ops), static_cast<double>(b.calls()));
        values["machine.barrier_s"] = median(barrier);
        values["machine.barriers"] = static_cast<double>(b.barriers);
        values["machine.ops"] = static_cast<double>(b.ops);
        simulatedMetrics(untraced.front().sim, values);
        std::vector<double> saves, bytes, save_s, restore_s;
        for (const CheckpointCounters &c : ckpt) {
            saves.push_back(static_cast<double>(c.saves));
            bytes.push_back(static_cast<double>(c.bytes));
            save_s.insert(save_s.end(), c.save_s.begin(), c.save_s.end());
            restore_s.insert(restore_s.end(), c.restore_s.begin(),
                             c.restore_s.end());
        }
        values["checkpoint.saves"] = median(saves);
        values["checkpoint.bytes"] = median(bytes);
        values["checkpoint.save_s"] = median(save_s);
        values["checkpoint.restore_s"] = median(restore_s);
        values["doc.bytes"] = static_cast<double>(untraced.front().doc_bytes);
        values["doc.write_s"] = median(
            collect(untraced, [](const auto &p) { return p.doc_write_s; }));
        values["verify_s"] =
            ctx.oracle_s +
            median(collect(untraced,
                           [](const auto &p) { return p.verify_s; }));
        values["trace.overhead_frac"] = median(overhead);

        const std::map<std::string, const std::vector<double> *> samples{
            {"engine.self_s", &self},
            {"engine.self_frac", &self_frac},
            {"machine.replay_s", &replay},
            {"machine.ns_per_op", &nsop},
            {"machine.event_s", &event},
            {"machine.barrier_s", &barrier},
            {"checkpoint.save_s", &save_s},
            {"checkpoint.restore_s", &restore_s},
            {"trace.overhead_frac", &overhead},
        };
        std::cout << "per-layer (host times: medians over traced passes; "
                     "graph.* over set-ups; counts from the first pass):\n";
        for (const MetricDef &d : perLayerMetrics()) {
            auto it = samples.find(d.name);
            printMetric(std::cout, d.name, values.at(d.name), d.unit,
                        it == samples.end() ? ""
                                            : describeSamples(*it->second));
        }
        std::cout << "model.omega_speedup " << values["model.omega_speedup"]
                  << "x (paper: 2.8x PageRank, 2x overall; stand-in "
                     "datasets, model not validated against hardware)\n";
    }
    for (const std::string &p : ctx.ledger.problems)
        std::cout << "CHECK FAILED: " << p << "\n";
    printResult(ctx.ledger, *defs, values);
    return 0;
}
