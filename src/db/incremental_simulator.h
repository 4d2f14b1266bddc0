#ifndef GRANULOCK_DB_INCREMENTAL_SIMULATOR_H_
#define GRANULOCK_DB_INCREMENTAL_SIMULATOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/closed_system_kernel.h"
#include "core/fault.h"
#include "core/metrics.h"
#include "db/contention_policy.h"
#include "lockmgr/wait_queue_table.h"
#include "lockmgr/waits_for.h"
#include "model/config.h"
#include "obs/hooks.h"
#include "sim/trace.h"
#include "util/random.h"
#include "util/status.h"
#include "workload/workload.h"

namespace granulock::db {

/// The closed shared-nothing system under **incremental (claim-as-needed)
/// two-phase locking** — the alternative the paper explicitly chose NOT to
/// model, citing Ries & Stonebraker's finding that it "did not affect the
/// conclusions of the study" (§2, footnote 1). This engine exists to
/// re-verify that claim within this reproduction
/// (`bench_ablation_claim_policy`).
///
/// Protocol differences from the conservative engines:
///  * a transaction acquires its locks one at a time, interleaved with
///    processing: lock granule k (paying one lock's cost), then process
///    its `NU/LU` entities (fork–join across the transaction's nodes),
///    then lock granule k+1, ...;
///  * a conflicting request joins a per-granule FIFO wait queue while the
///    transaction KEEPS its earlier locks — so deadlock is possible;
///  * contention resolution is pluggable (`Options::contention`): the
///    default policy searches for a waits-for cycle on every wait and
///    aborts the *requester* — bit-identical to the engine's historical
///    hard-coded behavior — while the alternatives pick other victims or
///    avoid the cycle search entirely (wound-wait, wait-die, wait-depth;
///    see db/contention_policy.h). A victim releases its locks and
///    restarts from its first granule (same parameters), paying all
///    costs again, unless the restart governor sacrifices it. Aborts are
///    reported in `SimulationMetrics::deadlock_aborts`, split into
///    `txn_restarts` + `txn_sacrificed`.
///
/// Granule acquisition order is a random shuffle of the transaction's
/// granule set — sorted acquisition would make deadlock impossible and
/// silently turn this into ordered locking.
class IncrementalSimulator {
 public:
  struct Options {
    /// Probability that a transaction is read-only and takes S locks.
    double read_fraction = 0.0;
    /// Mean of the exponential backoff a deadlock victim sleeps before
    /// restarting. Without it, high-contention random-access workloads
    /// livelock (victims restart instantly, re-form the same cycle and
    /// abort again). Must be > 0.
    double restart_delay = 10.0;
    /// Contention resolution: victim policy, restart governor, admission
    /// controller. The defaults (detect-requester policy, factor-1
    /// uncapped governor, admission disabled) are bit-identical to the
    /// engine's historical hard-coded behavior.
    ContentionOptions contention;
    /// Optional lifecycle tracer (not owned; must outlive the run).
    /// Incremental runs additionally record `aborted` events for deadlock
    /// victims.
    sim::TraceRecorder* trace = nullptr;
    /// Optional observability sinks (not owned; must outlive the run).
    /// Attaching any of them never changes simulated results. Under this
    /// engine `phase_lock_wait` covers lock-cost service, wait-queue
    /// time, and deadlock abort/backoff; `phase_pending_wait` is 0 (no
    /// pending queue).
    obs::Hooks obs;
    /// Optional per-cell watchdog (not owned; must outlive the run),
    /// polled from observer events exactly as in
    /// `core::GranularitySimulator::Options::watchdog`.
    const fault::CellWatchdog* watchdog = nullptr;
  };

  IncrementalSimulator(model::SystemConfig cfg, workload::WorkloadSpec spec,
                       uint64_t seed, Options options);
  IncrementalSimulator(model::SystemConfig cfg, workload::WorkloadSpec spec,
                       uint64_t seed);
  ~IncrementalSimulator();

  IncrementalSimulator(const IncrementalSimulator&) = delete;
  IncrementalSimulator& operator=(const IncrementalSimulator&) = delete;

  /// Validates, runs to `cfg.tmax`, returns the metrics. Call once.
  Result<core::SimulationMetrics> Run();

  static Result<core::SimulationMetrics> RunOnce(
      const model::SystemConfig& cfg, const workload::WorkloadSpec& spec,
      uint64_t seed, Options options);
  static Result<core::SimulationMetrics> RunOnce(
      const model::SystemConfig& cfg, const workload::WorkloadSpec& spec,
      uint64_t seed);

 private:
  friend struct AuditTestPeer;  // invariants_test corrupts state through it

  struct Txn;
  class PolicyDirectory;

  /// Deep audit (runs at quiescent points when
  /// `sim::invariants::DeepAuditEnabled()`): every live transaction is
  /// running, waiting, backing off after an abort, or parked by the
  /// admission controller; the wait count matches the lock table; the
  /// table's own invariants hold; no doomed transaction is queued; and
  /// the waits-for graph rebuilt from the table is acyclic (every cycle
  /// is broken by a victim abort the moment its closing edge appears —
  /// by construction under the timestamp/wait-depth policies).
  void CheckConsistency() const;

  void StartTransaction(Txn* txn);
  void RequestNextLock(Txn* txn);
  /// Charges one lock's request/set/release cost, then calls
  /// `OnLockCostPaid`.
  void PayLockCost(Txn* txn);
  void PayLockCpuCost(Txn* txn);
  void OnLockCostPaid(Txn* txn);
  void DoStageWork(Txn* txn);
  /// The current stage's fork-join has joined.
  void OnStageDone(Txn* txn);
  void Complete(Txn* txn);
  /// Runs the contention policy after `txn` queued on `granule`: aborts
  /// waiting victims, dooms running ones, re-asks while the requester
  /// stays queued, and records the profiler wait when it does.
  void ResolveConflict(Txn* txn, int64_t granule);
  /// Aborts `txn` (a queued waiter when `waiting`, else a doomed running
  /// transaction at a safe point): releases its locks, then either
  /// schedules a governed backoff restart or sacrifices it.
  void AbortTxn(Txn* txn, bool waiting);
  /// Terminal abort: the transaction is destroyed and replaced by a
  /// fresh one so the closed system stays closed.
  void SacrificeTxn(Txn* txn);
  void HandleGrants(const std::vector<lockmgr::TxnId>& granted);
  /// Starts `txn` immediately, or parks it in the admission queue when
  /// the controller is enabled (FIFO drain via ReleaseAdmitted).
  void AdmitOrHold(Txn* txn);
  void ReleaseAdmitted();
  /// Transactions occupying an MPL slot: running + waiting + in backoff.
  int64_t AdmittedCount() const;
  /// Periodic admission-controller evaluation (a regular event — it
  /// changes admission decisions by design; never scheduled when the
  /// controller is disabled).
  void AdmissionTick();

  /// Creates a transaction and admits (or parks) it.
  void Arrive();
  /// Draws a fresh transaction: parameters, lock mode, acquisition order.
  Txn* CreateTransaction();
  void DestroyTransaction(Txn* txn);
  void UpdateQueueStats();
  /// Contention-profiler sample: waits-for edges rebuilt from the wait
  /// queues, and lock-table occupancy.
  double ContentionSample(core::ClosedSystemKernel::Edges* edges) const;

  model::SystemConfig cfg_;
  workload::WorkloadSpec spec_;
  Options options_;
  core::ClosedSystemKernel kernel_;
  core::TxnPool<Txn> txns_;
  Rng rng_;

  std::unique_ptr<lockmgr::WaitQueueLockTable> table_;
  lockmgr::WaitsForGraph waits_for_;
  std::unordered_map<lockmgr::TxnId, Txn*> txn_by_id_;
  int64_t waiting_count_ = 0;
  int64_t running_count_ = 0;
  /// Deadlock victims sleeping out their restart backoff (they hold no
  /// locks and sit in no queue — only this counter accounts for them).
  int64_t in_backoff_ = 0;

  // Contention resolution (built in Run(); see db/contention_policy.h).
  std::unique_ptr<ContentionPolicy> policy_;
  std::optional<RestartGovernor> governor_;
  std::optional<AdmissionController> admission_;
  /// Created-but-not-yet-started transactions parked by the admission
  /// controller, FIFO. They hold no locks and occupy no MPL slot.
  std::deque<Txn*> admission_queue_;
  int64_t admission_held_ = 0;
  /// Not a kernel instrument: only this engine aborts transactions.
  obs::Counter* ctr_deadlock_aborts_ = nullptr;

  /// The run's seed, kept as the policy_victim_flip fault-injection key.
  uint64_t seed_ = 0;
};

}  // namespace granulock::db

#endif  // GRANULOCK_DB_INCREMENTAL_SIMULATOR_H_
