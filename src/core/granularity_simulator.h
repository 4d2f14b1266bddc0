#ifndef GRANULOCK_CORE_GRANULARITY_SIMULATOR_H_
#define GRANULOCK_CORE_GRANULARITY_SIMULATOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/closed_system_kernel.h"
#include "core/fault.h"
#include "core/metrics.h"
#include "model/config.h"
#include "model/conflict.h"
#include "obs/hooks.h"
#include "sim/trace.h"
#include "util/arena.h"
#include "util/random.h"
#include "util/status.h"
#include "workload/workload.h"

namespace granulock::core {

/// The paper's simulation model (§2, Figure 1): a closed system of
/// `ntrans` transactions cycling through a shared-nothing multiprocessor.
///
/// Life of a transaction:
///  1. It sits in the FIFO *pending* queue. When it reaches the head and
///     the lock manager is free, its lock request is processed: the
///     request/set/release work (`LU*liotime` of I/O and `LU*lcputime` of
///     CPU) is shared equally by all processors and served at preemptive
///     priority over transaction work. The cost is paid whether or not the
///     locks are granted.
///  2. Conflicts are decided by the probabilistic Ries–Stonebraker model
///     over the currently active transactions. A blocked transaction waits
///     in the *blocked* queue until its blocker completes, then re-enters
///     the pending queue (and pays the lock cost again).
///  3. A granted transaction splits into `PU` sub-transactions on distinct
///     nodes (all nodes under horizontal partitioning), each performing
///     `NU/PU` entities' worth of I/O then CPU in its node's FCFS queues.
///  4. When the last sub-transaction finishes, the transaction completes,
///     releases its locks and its blocked transactions, and is replaced by
///     a fresh transaction with new random parameters.
///
/// Deadlock is impossible (conservative locking: all locks are requested
/// up front).
class GranularitySimulator {
 public:
  /// Policies that the paper leaves implicit, exposed for ablation.
  struct Options {
    /// If true (default, and the modelling assumption documented in
    /// DESIGN.md), only one lock request is processed at a time; if false
    /// the lock manager pipelines requests from the pending queue.
    bool serialize_lock_manager = true;
    /// If true (default), transactions released from the blocked queue are
    /// appended to the pending queue in FIFO order; if false they are
    /// prepended (retry-immediately policy).
    bool requeue_blocked_at_tail = true;
    /// Transaction-level admission control (the remedy §3.7 of the paper
    /// points to for heavy load): a pending transaction's lock request is
    /// dispatched only while fewer than this many transactions hold locks.
    /// 0 (default) disables the limit, reproducing the paper's model.
    int64_t max_active = 0;
    /// Adaptive transaction-level scheduling (the paper's reference [4]
    /// direction): when true, the multiprogramming cap adjusts itself
    /// every `adaptation_interval` time units — multiplicative decrease
    /// when the observed denial rate exceeds `target_denial_rate`,
    /// additive increase when it falls well below. Overrides `max_active`.
    bool adaptive_admission = false;
    /// Adaptation period in time units (> 0 when adaptive).
    double adaptation_interval = 100.0;
    /// Denial rate the adaptive controller steers toward (in (0, 1)).
    double target_denial_rate = 0.3;
    /// Optional lifecycle tracer (not owned; must outlive the run).
    /// Records created / lock_requested / lock_granted / lock_denied /
    /// completed events without affecting simulation behaviour.
    sim::TraceRecorder* trace = nullptr;
    /// Optional observability sinks (not owned; must outlive the run).
    /// Attaching any of them never changes simulated results: the same
    /// seed yields bit-identical `SimulationMetrics` either way.
    obs::Hooks obs;
    /// Optional per-cell watchdog (not owned; must outlive the run). The
    /// engine polls it from a repeating *observer* event — excluded from
    /// the executed-event count, so arming a watchdog never changes
    /// simulated results — and the poll throws to cancel the run at a
    /// deterministic simulated-time boundary. Null disables polling.
    const fault::CellWatchdog* watchdog = nullptr;
    /// Optional arena backing per-transaction scratch vectors (not owned;
    /// must outlive the engine and must not be `Reset` while it lives).
    /// Replication drivers pass a per-worker arena and reset it wholesale
    /// between cells; null makes the engine use a private arena. Either
    /// way results are bit-identical — the arena only changes where
    /// scratch memory lives.
    util::Arena* arena = nullptr;
  };

  /// Builds a simulator for (`cfg`, `spec`); `seed` fully determines the
  /// run. Construction is cheap; call `Run()` once to execute.
  GranularitySimulator(model::SystemConfig cfg, workload::WorkloadSpec spec,
                       uint64_t seed, Options options);
  GranularitySimulator(model::SystemConfig cfg, workload::WorkloadSpec spec,
                       uint64_t seed);
  ~GranularitySimulator();

  GranularitySimulator(const GranularitySimulator&) = delete;
  GranularitySimulator& operator=(const GranularitySimulator&) = delete;

  /// Validates the configuration, executes the simulation to `cfg.tmax`,
  /// and returns the collected metrics. May be called once.
  Result<SimulationMetrics> Run();

  /// Convenience: construct-and-run in one call.
  static Result<SimulationMetrics> RunOnce(const model::SystemConfig& cfg,
                                           const workload::WorkloadSpec& spec,
                                           uint64_t seed, Options options);
  static Result<SimulationMetrics> RunOnce(const model::SystemConfig& cfg,
                                           const workload::WorkloadSpec& spec,
                                           uint64_t seed);

 private:
  friend struct AuditTestPeer;  // invariants_test corrupts state through it

  struct Txn;

  /// Closed-system conservation audit (runs at quiescent points when
  /// `sim::invariants::DeepAuditEnabled()`): every live transaction is in
  /// exactly one of pending / lock-processing / blocked / active, the
  /// blocked count matches the blockers' lists, and each active
  /// transaction has sub-transactions outstanding.
  void CheckConsistency() const;

  // --- lifecycle stages (see class comment) ---
  void Arrive();
  void PumpLockManager();
  void BeginLockRequest(Txn* txn);
  void StartLockIoPhase(Txn* txn);
  void StartLockCpuPhase(Txn* txn);
  void FinishLockRequest(Txn* txn);
  void Grant(Txn* txn);
  void Complete(Txn* txn);

  void EnqueuePending(Txn* txn, bool at_tail);
  void UpdateQueueStats();
  /// Contention-profiler sample: waits-for edges plus the occupancy
  /// estimated from the locks the active transactions nominally hold.
  double ContentionSample(ClosedSystemKernel::Edges* edges) const;
  /// Adaptive admission: periodically retune the MPL cap from the denial
  /// rate observed in the last window.
  void AdaptAdmissionCap();
  int64_t EffectiveCap() const;

  model::SystemConfig cfg_;
  workload::WorkloadSpec spec_;
  Options options_;
  ClosedSystemKernel kernel_;
  /// `options_.arena` or the private fallback; backs Txn scratch vectors.
  util::Arena* arena_ = nullptr;
  std::unique_ptr<util::Arena> owned_arena_;
  TxnPool<Txn> txns_;
  Rng rng_;
  /// Profiler-private stream for imputed granule attribution (the
  /// probabilistic conflict model has no real lock table). Never draws
  /// from `rng_`, so profiling cannot perturb the simulation.
  Rng contention_rng_;
  model::ConflictModel conflict_;

  std::deque<Txn*> pending_;
  std::vector<Txn*> active_;  // holding locks, running sub-transactions
  /// Exact sum of `params.lu` over `active_` (maintained at grant /
  /// complete, audited in CheckConsistency). Lets the conflict draw skip
  /// the partial-sum scan entirely whenever the scaled variate exceeds the
  /// total — the common case at low contention — without changing any
  /// outcome: integer partial sums below 2^53 are exact in a double, so
  /// "variate > total" is precisely the old loop's fall-through condition.
  int64_t active_lu_total_ = 0;
  int64_t blocked_count_ = 0;
  int outstanding_lock_requests_ = 0;

  // Adaptive admission controller state.
  int64_t adaptive_cap_ = 0;
  int64_t window_requests_ = 0;
  int64_t window_denials_ = 0;
};

}  // namespace granulock::core

#endif  // GRANULOCK_CORE_GRANULARITY_SIMULATOR_H_
