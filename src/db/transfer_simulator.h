#ifndef GRANULOCK_DB_TRANSFER_SIMULATOR_H_
#define GRANULOCK_DB_TRANSFER_SIMULATOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/closed_system_kernel.h"
#include "core/metrics.h"
#include "lockmgr/lock_table.h"
#include "model/config.h"
#include "obs/contention.h"
#include "storage/record_store.h"
#include "util/random.h"
#include "util/status.h"

namespace granulock::db {

/// The paper's motivating example, made executable: a closed system of
/// **funds-transfer transactions** against real account records
/// (`storage::RecordStore`), under the simulated shared-nothing timing
/// model. Each transfer debits one random account and credits another:
/// read both balances, compute, write both back — with real I/O/CPU delays
/// between the reads and the writes, so incorrect concurrency control
/// produces genuine *lost updates* ("it might lead to the lost update
/// problem in a funds transfer transaction", §1).
///
/// Two concurrency-control modes:
///  * kConservativeLocking — the paper's protocol over a real lock table
///    at the configured granularity (`cfg.ltot`); execution is
///    serializable, so the total balance is conserved;
///  * kNoLocking — transactions run unprotected; concurrent transfers
///    overwrite each other's balances and the invariant breaks. This mode
///    exists to demonstrate *why* the locking whose granularity the paper
///    tunes is needed at all.
///
/// Beyond correctness, the engine reports the usual timing metrics, so the
/// granularity trade-off can be studied on a realistic OLTP workload
/// (2-record transactions ~ the debit-credit benchmark the paper cites).
class TransferSimulator {
 public:
  enum class ConcurrencyControl {
    kConservativeLocking,
    kNoLocking,
  };

  struct Options {
    ConcurrencyControl concurrency_control =
        ConcurrencyControl::kConservativeLocking;
    /// Every account starts with this balance.
    int64_t initial_balance = 1000;
    /// Probability that a transfer debits account 0 (a hot spot); 0 picks
    /// both accounts uniformly.
    double hot_fraction = 0.0;
    /// Zipf skew for account selection (0 = uniform, up to ~0.99 for the
    /// YCSB-style hot-key distribution). Composes with `hot_fraction`.
    double zipf_theta = 0.0;
    /// Optional contention profiler (not owned; must outlive the run).
    /// Attaching it never changes simulated results. Only meaningful
    /// under kConservativeLocking (kNoLocking never blocks).
    obs::ContentionProfiler* contention = nullptr;
  };

  /// The run outcome: timing metrics plus the data-integrity verdict.
  struct Report {
    core::SimulationMetrics metrics;
    /// Sum of balances before / after the run.
    int64_t initial_total = 0;
    int64_t final_total = 0;
    /// Net delta intended by the writes that were applied (non-zero only
    /// for transfers cut off mid-write by tmax; every completed transfer
    /// nets to zero).
    int64_t in_flight_imbalance = 0;
    /// True iff money was conserved, i.e.
    /// `final_total == initial_total + in_flight_imbalance`. Lost updates
    /// (writes based on stale reads) break this identity; partial
    /// transfers at the simulation horizon do not.
    bool conserved = false;
    /// Writes applied to the store.
    int64_t writes_applied = 0;
  };

  TransferSimulator(model::SystemConfig cfg, uint64_t seed, Options options);
  TransferSimulator(model::SystemConfig cfg, uint64_t seed);
  ~TransferSimulator();

  TransferSimulator(const TransferSimulator&) = delete;
  TransferSimulator& operator=(const TransferSimulator&) = delete;

  /// Validates, runs to `cfg.tmax`, returns the report. Call once.
  /// `cfg.maxtransize` is ignored (every transfer touches 2 records).
  Result<Report> Run();

  static Result<Report> RunOnce(const model::SystemConfig& cfg,
                                uint64_t seed, Options options);
  static Result<Report> RunOnce(const model::SystemConfig& cfg,
                                uint64_t seed);

 private:
  friend struct AuditTestPeer;  // invariants_test corrupts state through it

  struct Txn;

  /// Deep audit (runs at quiescent points when
  /// `sim::invariants::DeepAuditEnabled()`): closed-system conservation
  /// over pending / lock-processing / blocked / active, blocked-list
  /// accounting, and — under conservative locking — the lock table's own
  /// invariants with exactly the active transactions holding locks.
  void CheckConsistency() const;

  void Arrive();
  void PumpLockManager();
  void BeginLockRequest(Txn* txn);
  void StartLockCpuPhase(Txn* txn, double cpu_share);
  void FinishLockRequest(Txn* txn);
  void StartReads(Txn* txn);
  void OnReadsDone(Txn* txn);
  void StartWrites(Txn* txn);
  void Complete(Txn* txn);

  Txn* CreateTransaction();
  void UpdateQueueStats();
  /// Contention-profiler sample: waits-for edges and lock-table occupancy.
  double ContentionSample(core::ClosedSystemKernel::Edges* edges) const;
  int64_t GranuleOfAccount(int64_t account) const;

  model::SystemConfig cfg_;
  Options options_;
  core::ClosedSystemKernel kernel_;
  core::TxnPool<Txn> txns_;
  Rng rng_;

  std::unique_ptr<storage::RecordStore> store_;
  std::unique_ptr<ZipfGenerator> zipf_;
  std::unique_ptr<lockmgr::LockTable> table_;

  std::deque<Txn*> pending_;
  std::unordered_map<lockmgr::TxnId, Txn*> active_;
  int64_t blocked_count_ = 0;
  int outstanding_lock_requests_ = 0;
  /// Net intended delta of applied writes (see Report::in_flight_imbalance).
  int64_t net_applied_ = 0;
};

}  // namespace granulock::db

#endif  // GRANULOCK_DB_TRANSFER_SIMULATOR_H_
