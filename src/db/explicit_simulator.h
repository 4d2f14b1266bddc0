#ifndef GRANULOCK_DB_EXPLICIT_SIMULATOR_H_
#define GRANULOCK_DB_EXPLICIT_SIMULATOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>

#include "core/closed_system_kernel.h"
#include "core/fault.h"
#include "core/metrics.h"
#include "db/granule_selector.h"
#include "lockmgr/hierarchical.h"
#include "lockmgr/lock_table.h"
#include "model/config.h"
#include "obs/hooks.h"
#include "sim/trace.h"
#include "util/random.h"
#include "util/status.h"
#include "workload/workload.h"

namespace granulock::db {

/// The same closed shared-nothing system as `core::GranularitySimulator`,
/// but with an **explicit lock table** instead of the Ries–Stonebraker
/// probabilistic conflict model: every transaction locks a concrete set of
/// granules (drawn by `SelectGranules`), conflicts are detected against
/// real holders, and lock cost is charged per lock actually set.
///
/// Two purposes:
///  1. Cross-validation — the paper *approximates* conflicts; this engine
///     measures them. `bench_ablation_conflict_model` overlays the two.
///  2. Extension — the hierarchical strategy implements the paper's
///     closing recommendation (file-level locks for large transactions,
///     block-level for small ones, as in the Gamma machine) and lets
///     `bench_ablation_mgl` quantify it on the mixed workload.
class ExplicitSimulator {
 public:
  /// How transactions translate their granule set into lock requests.
  enum class LockingStrategy {
    /// Exclusive (or shared, see `read_fraction`) locks on each granule in
    /// a flat lock table — the paper's protocol, made explicit.
    kFlat,
    /// Multiple-granularity locking: transactions touching at least
    /// `coarse_threshold` entities take one database-level lock; smaller
    /// ones take intention locks plus granule locks.
    kHierarchical,
  };

  struct Options {
    LockingStrategy strategy = LockingStrategy::kFlat;
    /// kHierarchical only: entity-count threshold at which a transaction
    /// locks the whole database instead of individual granules. 0 disables
    /// coarse locking (everyone locks granules).
    int64_t coarse_threshold = 0;
    /// kHierarchical only: number of files the granules are divided into
    /// (>= 1). Fine-grained transactions take intention locks on the
    /// files they touch; with > 1 file a coarse reader/writer conflicts
    /// only at the root.
    int64_t num_files = 1;
    /// kHierarchical only: per-file lock escalation threshold passed to
    /// the hierarchical manager (0 disables escalation).
    int64_t escalation_threshold = 0;
    /// Probability that a transaction is read-only and takes S locks
    /// (default 0: all transactions update, matching the paper).
    double read_fraction = 0.0;
    /// Process one lock request at a time (see DESIGN.md §4.2).
    bool serialize_lock_manager = true;
    /// Optional lifecycle tracer (not owned; must outlive the run).
    sim::TraceRecorder* trace = nullptr;
    /// Optional observability sinks (not owned; must outlive the run).
    /// Attaching any of them never changes simulated results.
    obs::Hooks obs;
    /// Optional per-cell watchdog (not owned; must outlive the run),
    /// polled from observer events exactly as in
    /// `core::GranularitySimulator::Options::watchdog`.
    const fault::CellWatchdog* watchdog = nullptr;
  };

  ExplicitSimulator(model::SystemConfig cfg, workload::WorkloadSpec spec,
                    uint64_t seed, Options options);
  ExplicitSimulator(model::SystemConfig cfg, workload::WorkloadSpec spec,
                    uint64_t seed);
  ~ExplicitSimulator();

  ExplicitSimulator(const ExplicitSimulator&) = delete;
  ExplicitSimulator& operator=(const ExplicitSimulator&) = delete;

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

  /// Deep audit (runs at quiescent points when
  /// `sim::invariants::DeepAuditEnabled()`): closed-system conservation,
  /// blocked-list accounting, depth-one waits-for (conservative locking
  /// cannot chain waiters), every node server's own `CheckConsistency`,
  /// and the active lock table's own `CheckConsistency` — every active
  /// transaction holds locks, nobody else does.
  void CheckConsistency() const;

  void Arrive();
  void PumpLockManager();
  void BeginLockRequest(Txn* txn);
  void StartLockIoPhase(Txn* txn);
  void StartLockCpuPhase(Txn* txn);
  void FinishLockRequest(Txn* txn);
  void Grant(Txn* txn);
  void Complete(Txn* txn);

  /// Draws a fresh transaction: parameters, lock mode and granule set.
  Txn* CreateTransaction();
  void EnqueuePending(Txn* txn);
  void UpdateQueueStats();
  /// Contention-profiler sample: waits-for edges and lock-table occupancy.
  double ContentionSample(core::ClosedSystemKernel::Edges* edges) const;

  /// Contention attribution for a refused acquisition, in the profiler's
  /// key space (granule g -> g, file f -> FileObjectKey(f), root ->
  /// kRootObjectKey).
  struct DenialInfo {
    int64_t key = 0;
    lockmgr::LockMode requested = lockmgr::LockMode::kX;
    lockmgr::LockMode held = lockmgr::LockMode::kX;
  };

  /// Attempts the acquisition against whichever lock manager is active;
  /// returns the blocking transaction id or nullopt. When refused and
  /// `denial` is non-null, it is filled with the colliding object/modes.
  std::optional<lockmgr::TxnId> TryAcquire(Txn* txn, DenialInfo* denial);
  void ReleaseLocks(Txn* txn);

  model::SystemConfig cfg_;
  workload::WorkloadSpec spec_;
  Options options_;
  core::ClosedSystemKernel kernel_;
  core::TxnPool<Txn> txns_;
  Rng rng_;

  std::unique_ptr<lockmgr::LockTable> flat_table_;
  std::unique_ptr<lockmgr::HierarchicalLockManager> hier_table_;

  std::deque<Txn*> pending_;
  std::unordered_map<lockmgr::TxnId, Txn*> active_;
  int64_t blocked_count_ = 0;
  int outstanding_lock_requests_ = 0;
};

}  // namespace granulock::db

#endif  // GRANULOCK_DB_EXPLICIT_SIMULATOR_H_
