/**
 * @file
 * Checkpoint coordination: deterministic save/restore of a whole run.
 *
 * A run's state tree — machine, engine progress, the algorithm's
 * functional arrays and loop scalars, the interval recorder — registers
 * itself as named *sections* on a CheckpointCoordinator at run start.
 * Checkpoints are taken only at engine iteration boundaries, where the
 * machine is quiescent by construction: every core has drained through
 * the barrier, the engine's op buffer is empty (it is flushed after
 * every parallelFor item) and completed busy-table entries have
 * retired. At such a
 * point the registered sections are the *complete* simulation state, so
 * restoring them into a freshly constructed run and simply re-entering
 * the algorithm loop reproduces the uninterrupted run bit for bit —
 * there is no replay or fast-forward phase whose event order could
 * diverge.
 *
 * Resume protocol (the algorithm side is three calls):
 *
 *   coord->beginRun(key);          // harness, before the run
 *   ...sections register in deterministic code order...
 *   coord->maybeRestore();         // algorithm, after init, before loop
 *   ...loop; Engine::finishIteration() drives onIterationEnd()...
 *
 * maybeRestore() arms the coordinator: algorithms that never call it
 * (no checkpoint wiring) never produce snapshots either, so a snapshot
 * can only ever be restored by code that registers the exact section
 * sequence that wrote it — mismatches throw SnapshotStateError.
 *
 * SIGINT/SIGTERM are latched into a sig_atomic_t flag by the handler the
 * bench harness installs; the coordinator checks the flag at the next
 * iteration boundary, flushes a final checkpoint and throws
 * CheckpointInterrupt, which the harness turns into a partial --json
 * document with "status": "interrupted".
 */

#ifndef OMEGA_SIM_CHECKPOINT_HH
#define OMEGA_SIM_CHECKPOINT_HH

#include <csignal>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/snapshot.hh"

namespace omega {

/**
 * Thrown after the final checkpoint has been flushed in response to a
 * latched signal (or a test stop hook): the run cannot continue, but
 * its partial results are consistent as of iteration().
 */
class CheckpointInterrupt : public std::runtime_error
{
  public:
    CheckpointInterrupt(std::string path, std::uint64_t iteration,
                        int signal)
        : std::runtime_error(
              "interrupted at iteration " + std::to_string(iteration) +
              (path.empty() ? std::string()
                            : ", checkpoint flushed to " + path)),
          path_(std::move(path)), iteration_(iteration), signal_(signal)
    {
    }

    const std::string &path() const { return path_; }
    std::uint64_t iteration() const { return iteration_; }
    /** The latched signal number; 0 for a test-hook stop. */
    int signal() const { return signal_; }

  private:
    std::string path_;
    std::uint64_t iteration_;
    int signal_;
};

/** Latch @p signal for the coordinator (async-signal-safe). */
void requestCheckpointInterrupt(int signal);
/** The latched signal number, or 0. */
int pendingCheckpointSignal();
/** Clear the latch (new session / test isolation). */
void clearCheckpointSignal();

/** Orchestrates section registration, cadence, save and restore. */
class CheckpointCoordinator
{
  public:
    using SaveFn = std::function<void(SnapshotWriter &)>;
    using RestoreFn = std::function<void(SnapshotReader &)>;

    /** Enable saving to @p path every @p every completed iterations
     *  (0 = only on a latched signal / explicit saveNow). */
    void
    configureSave(std::string path, std::uint64_t every)
    {
        save_path_ = std::move(path);
        every_ = every;
    }

    /** Hand over a verified resume payload (readSnapshotFile output). */
    void setResumePayload(std::vector<std::uint8_t> payload);

    bool savingEnabled() const { return !save_path_.empty(); }
    const std::string &savePath() const { return save_path_; }

    /** True while a resume payload is waiting for its run. */
    bool resumePending() const { return resume_pending_; }
    /** The pending resume payload's run key (empty when none). */
    const std::string &resumeRunKey() const { return resume_key_; }
    /** Drop the pending resume if it targets @p run_key (the run was
     *  served from the sweep journal and will not execute). */
    void dropResumeFor(const std::string &run_key);

    /** Start a new run: clears sections, disarms, sets the run key. */
    void beginRun(std::string run_key);

    /** Register one named section; order is the serialization order and
     *  must be deterministic across sessions (it is: registration
     *  follows the run's construction code path). */
    void registerSection(std::string name, SaveFn save,
                         RestoreFn restore);

    /**
     * Called by the algorithm once every section is registered and all
     * initialization (including its machine events) has run. Arms the
     * coordinator; if the pending resume payload targets this run,
     * restores every section from it and returns true. Throws
     * SnapshotStateError on any section mismatch.
     */
    bool maybeRestore();

    /** Iteration of the restored snapshot (valid after a true
     *  maybeRestore()). */
    std::uint64_t restoredIteration() const { return restored_iteration_; }

    /**
     * Engine hook, called after each completed iteration (machine
     * quiescent). Saves on the configured cadence; on a latched signal
     * or a firing test_stop hook, flushes a final checkpoint and throws
     * CheckpointInterrupt.
     */
    void onIterationEnd(std::uint64_t iteration);

    /** Serialize every registered section to the configured path. */
    void saveNow(std::uint64_t iteration);

    /** Serialize the registered sections into @p w (shared by saveNow
     *  and the post-mortem path in the harness). */
    void serializeTo(SnapshotWriter &w, std::uint64_t iteration,
                     bool resumable) const;

    bool armed() const { return armed_; }

    /** Test hook: return true at iteration N to force a checkpoint +
     *  CheckpointInterrupt (exercises interrupt-at-arbitrary-iteration
     *  without signals). */
    std::function<bool(std::uint64_t)> test_stop;

  private:
    struct Section
    {
        std::string name;
        SaveFn save;
        RestoreFn restore;
    };

    std::string save_path_;
    std::uint64_t every_ = 0;

    std::vector<std::uint8_t> resume_payload_;
    std::string resume_key_;
    std::uint64_t resume_iteration_ = 0;
    bool resume_pending_ = false;

    std::string run_key_;
    std::vector<Section> sections_;
    bool armed_ = false;
    std::uint64_t restored_iteration_ = 0;
};

} // namespace omega

#endif // OMEGA_SIM_CHECKPOINT_HH
