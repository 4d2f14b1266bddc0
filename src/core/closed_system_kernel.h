#ifndef GRANULOCK_CORE_CLOSED_SYSTEM_KERNEL_H_
#define GRANULOCK_CORE_CLOSED_SYSTEM_KERNEL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/fault.h"
#include "core/metrics.h"
#include "model/config.h"
#include "obs/hooks.h"
#include "sim/server_pool.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/trace.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/status.h"
#include "util/wall_clock.h"
#include "workload/workload.h"

namespace granulock::core {

/// The part of a transaction the kernel reads and writes: identity, drawn
/// parameters, and the always-on phase accounting. An engine's `Txn`
/// derives from it and adds its own fields. Plain data: no virtual
/// members, so a `Txn*` costs nothing extra on the event path.
///
/// The five phase values sum to the response time exactly: the pending
/// and lock intervals tile [arrival, first stage start] and the gaps
/// between stages, and each stage's io/cpu/sync sub-spans tile [stage
/// start, stage join] on every node, so their mean over `pu` nodes does
/// too.
struct TxnCore {
  uint64_t id = 0;
  workload::TransactionParams params;
  double arrival_time = 0.0;  // first entry into the system
  /// Sub-transactions of the current fork-join stage still running.
  int64_t subtxns_remaining = 0;
  double pending_since = 0.0;  // entered the pending queue (current stint)
  double lock_since = 0.0;     // started lock processing (current stint)
  double stage_start = 0.0;    // current stage granted, sub-txns fanned out
  double pending_wait = 0.0;   // accumulated over all pending stints
  double lock_wait = 0.0;      // accumulated over all lock attempts
  double io_span_sum = 0.0;    // sum over sub-txns of [stage start, io done]
  double cpu_span_sum = 0.0;   // sum over sub-txns of [io done, cpu done]
  double cpu_done_sum = 0.0;   // current stage's cpu-done timestamps
  /// (node, cpu-done) per sub-transaction of the current stage; filled
  /// only when a SpanRecorder is attached, to emit the sync spans.
  std::vector<std::pair<int32_t, double>> sub_cpu_done;

  /// Returns the fields above to their fresh state, keeping the vectors'
  /// capacity (`params` is overwritten by the next draw).
  void Reset();
};

/// The live transactions of one run plus a free list of recycled ones. A
/// closed system churns through one short-lived `Txn` per completion;
/// recycling keeps that off the heap. `Txn` needs a `Reset()` that
/// returns it to its freshly-constructed state minus allocations.
template <typename Txn>
class TxnPool {
 public:
  /// A recycled transaction, or a new one built from `args`.
  template <typename... Args>
  Txn* Acquire(Args&&... args) {
    std::unique_ptr<Txn> owned;
    if (!free_.empty()) {
      owned = std::move(free_.back());
      free_.pop_back();
    } else {
      owned = std::make_unique<Txn>(std::forward<Args>(args)...);
    }
    live_.push_back(std::move(owned));
    return live_.back().get();
  }

  /// Resets `txn` and returns it to the free list.
  void Release(Txn* txn) {
    auto it = live_.begin();
    while (it != live_.end() && it->get() != txn) ++it;
    GRANULOCK_CHECK(it != live_.end());
    // Swap-erase: the order of ownership storage is irrelevant.
    (*it)->Reset();
    free_.push_back(std::move(*it));
    *it = std::move(live_.back());
    live_.pop_back();
  }

  /// Transactions acquired and not yet released.
  size_t live() const { return live_.size(); }

  void Reserve(size_t n) {
    live_.reserve(n);
    free_.reserve(n);
  }

 private:
  std::vector<std::unique_ptr<Txn>> live_;
  std::vector<std::unique_ptr<Txn>> free_;
};

/// Everything one measurement window collects. Reset at the end of the
/// warmup interval.
struct MeasurementWindow {
  double start = 0.0;  // tmax - start is the measured time
  int64_t totcom = 0;
  int64_t lock_requests = 0;
  int64_t lock_denials = 0;  // waits, under claim-as-needed locking
  int64_t deadlock_aborts = 0;
  int64_t txn_restarts = 0;
  int64_t txn_sacrificed = 0;
  sim::RunningStat response;
  sim::QuantileEstimator response_quantiles;
  sim::RunningStat phase_pending;
  sim::RunningStat phase_lock;
  sim::RunningStat phase_io;
  sim::RunningStat phase_cpu;
  sim::RunningStat phase_sync;
  // Time-weighted queue lengths; `admission_held` stays 0 unless an
  // admission controller parks transactions.
  sim::TimeWeightedStat active;
  sim::TimeWeightedStat blocked;
  sim::TimeWeightedStat pending;
  sim::TimeWeightedStat admission_held;
};

/// The closed system every engine simulates (§2, Figure 1): `ntrans`
/// terminals, one CPU and one disk pool of `npros` nodes, fork-join
/// sub-transactions, and a measurement window. An engine holds one by
/// value (a conservative engine also holds a `ConservativeLocking`
/// lifecycle beside it) and keeps only what makes it different: its `Txn`
/// extras, its conflict decision and profiler attribution, the amounts it
/// charges for locks, its grant body, its completion accounting and
/// replacement arrival, and its extra audits.
///
/// The kernel owns the simulator and the server pools, the run-once guard
/// and wall timer, the measurement window and the `SimulationMetrics`
/// assembly, the obs plumbing (registry instruments, sampler rows,
/// contention ticks, run-profile gauges) and the watchdog poll chain.
/// Callbacks into the engine are member-function template arguments, so
/// the event path has no virtual call and no `std::function`.
///
/// A run goes: `Begin` (validation), the engine's own set-up, `Open<>`
/// (pools, obs, window, warmup), any engine ticks, then `RunToHorizon<>`
/// (initial arrivals, watchdog, the run, the metrics). Start-up events are
/// scheduled in that order, which fixes the tie order of same-time events.
class ClosedSystemKernel {
 public:
  using Edges = std::vector<std::pair<uint64_t, uint64_t>>;

  /// `cfg` must outlive the kernel; the sinks, tracer and watchdog are
  /// optional and not owned (see the engines' `Options`).
  ClosedSystemKernel(const model::SystemConfig& cfg, obs::Hooks obs,
                     sim::TraceRecorder* trace,
                     const fault::CellWatchdog* watchdog);

  ClosedSystemKernel(const ClosedSystemKernel&) = delete;
  ClosedSystemKernel& operator=(const ClosedSystemKernel&) = delete;

  /// Fails on a second run; starts the wall timer; validates the config
  /// and, when given, `spec` (and builds the transaction factory for it).
  Status Begin(const workload::WorkloadSpec* spec);

  /// Builds the server pools, the registry instruments and the sampler
  /// and contention observer chains, starts the window, and schedules the
  /// warmup reset. `kSample` is the engine's `double (Owner::*)(Edges*)
  /// const`: it appends the waits-for edges and returns the lock-table
  /// occupancy. `imputed` marks an engine without a real lock table.
  template <auto kSample, typename Owner>
  void Open(Owner* owner, bool imputed) {
    OpenPoolsAndSampler();
    if (obs_.contention != nullptr) {
      obs_.contention->BeginRun(cfg_.ltot, imputed);
      const double iv = obs_.contention->options().sample_interval;
      if (iv > 0.0 && iv <= cfg_.tmax) {
        sim_.ScheduleObserverAt(
            iv, [this, owner] { ContentionTick<kSample>(owner); });
      }
    }
    OpenWindow();
  }

  /// Schedules the initial arrivals ("transactions arrive one time unit
  /// apart"), each calling the engine's `kArrive`, then the watchdog;
  /// runs to `cfg.tmax` and returns the metrics.
  template <auto kArrive, typename Owner>
  SimulationMetrics RunToHorizon(Owner* owner) {
    for (int64_t i = 0; i < cfg_.ntrans; ++i) {
      sim_.ScheduleAt(static_cast<double>(i), [owner] { (owner->*kArrive)(); });
    }
    return Finish();
  }

  sim::Simulator& sim() { return sim_; }
  double Now() const { return sim_.Now(); }
  sim::ServerPool& cpu() { return *cpu_; }
  sim::ServerPool& io() { return *io_; }
  const sim::ServerPool& cpu() const { return *cpu_; }
  const sim::ServerPool& io() const { return *io_; }
  MeasurementWindow& window() { return window_; }

  /// Draws a fresh transaction into `txn`: id, parameters, arrival now.
  void InitTxn(TxnCore* txn, Rng& rng);
  uint64_t NextTxnId() { return next_txn_id_++; }

  /// Records a lifecycle trace event when a tracer is attached.
  void Trace(uint64_t txn, sim::TraceEventType type, int64_t detail) {
    if (trace_ != nullptr) trace_->Record(sim_.Now(), txn, type, detail);
  }

  /// The current queue lengths (time-weighted; the sampler reads them).
  void SetQueueLengths(double active, double blocked, double pending) {
    const double now = sim_.Now();
    window_.active.Update(now, active);
    window_.blocked.Update(now, blocked);
    window_.pending.Update(now, pending);
  }

  /// A lock request starts: counts it and traces it with `detail`.
  void CountLockRequest(uint64_t txn, int64_t detail);
  /// The pending stint of `txn` ends and its lock processing starts.
  void ClosePendingWait(TxnCore* txn);
  /// A lock request is refused (or queued): counts and traces it.
  void CountDenial(uint64_t txn, int64_t detail);
  /// `txn` leaves a blocked stint: the wait counts as lock wait.
  void Unblock(TxnCore* txn);

  /// `txn`'s locks for the next stage are granted: closes its lock wait
  /// and starts the stage.
  void BeginStage(TxnCore* txn);
  /// Fork-join: one sub-transaction per node of `txn->params.nodes`, each
  /// `io_share` of disk then `cpu_share` of CPU at transaction priority.
  /// When the last one finishes, the stage's sync spans are emitted and
  /// the engine's `kJoin(txn)` runs.
  template <auto kJoin, typename Owner, typename Txn>
  void ForkJoin(Owner* owner, Txn* txn, double io_share, double cpu_share) {
    txn->subtxns_remaining = txn->params.pu;
    for (int32_t node : txn->params.nodes) {
      io_->Submit(node, io_share, [this, owner, txn, node, cpu_share] {
        const double io_done = OnIoDone(txn, node);
        cpu_->Submit(node, cpu_share, [this, owner, txn, node, io_done] {
          if (OnCpuDone(txn, node, io_done)) (owner->*kJoin)(txn);
        });
      });
    }
  }

  /// The lock-cost phase of conservative locking: `io_share` on every
  /// disk, then `cpu_share` on every CPU, each served as one shared lock
  /// epoch at preemptive priority (a zero share is skipped). Then the
  /// engine's `kDone(txn)` runs.
  template <auto kDone, typename Owner, typename Txn>
  void ChargeLockCost(Owner* owner, Txn* txn, double io_share,
                      double cpu_share) {
    if (io_share <= 0.0) {
      ChargeLockCpu<kDone>(owner, txn, cpu_share);
      return;
    }
    io_->SubmitShared(io_share, [this, owner, txn, cpu_share] {
      ChargeLockCpu<kDone>(owner, txn, cpu_share);
    });
  }

  /// Completion accounting for a single-stage transaction: sync wait is
  /// the mean gap between its sub-transactions' cpu-done and now.
  void RecordCompletion(const TxnCore& txn);
  /// Completion accounting with the engine's own sync wait.
  void RecordCompletion(const TxnCore& txn, double sync_wait);
  /// The bare minimum: one completion with this response time.
  void CountCompletion(double response);

  /// Audits both pools (see `sim::ServerPool::CheckConsistency`).
  void CheckConsistency() const;

 private:
  void OpenPoolsAndSampler();
  void OpenWindow();
  SimulationMetrics Finish();
  void BeginMeasurement();
  void SampleTick();
  void ScheduleWatchdogPoll();
  void PublishRunProfile(double wall_seconds);
  double OnIoDone(TxnCore* txn, int32_t node);
  /// Returns true when `txn`'s stage has joined.
  bool OnCpuDone(TxnCore* txn, int32_t node, double io_done);
  /// Pushes one contention sample; returns whether to schedule the next.
  bool PushContentionSample(double occupancy, Edges edges);

  template <auto kDone, typename Owner, typename Txn>
  void ChargeLockCpu(Owner* owner, Txn* txn, double cpu_share) {
    if (cpu_share <= 0.0) {
      (owner->*kDone)(txn);
      return;
    }
    cpu_->SubmitShared(cpu_share, [owner, txn] { (owner->*kDone)(txn); });
  }

  template <auto kSample, typename Owner>
  void ContentionTick(Owner* owner) {
    Edges edges;
    const double occupancy = (owner->*kSample)(&edges);
    if (PushContentionSample(occupancy, std::move(edges))) {
      sim_.ScheduleObserverAfter(
          obs_.contention->options().sample_interval,
          [this, owner] { ContentionTick<kSample>(owner); });
    }
  }

  const model::SystemConfig& cfg_;
  obs::Hooks obs_;
  sim::TraceRecorder* trace_;
  const fault::CellWatchdog* watchdog_;
  bool ran_ = false;
  WallTimer wall_timer_;
  /// Built in `Begin` (needs a validated spec); amortizes lock-demand and
  /// node-set work across every transaction the run creates.
  std::optional<workload::TransactionFactory> txn_factory_;
  uint64_t next_txn_id_ = 1;

  sim::Simulator sim_;
  std::optional<sim::ServerPool> cpu_;
  std::optional<sim::ServerPool> io_;
  MeasurementWindow window_;

  // Cached registry instruments (null unless a registry is attached).
  obs::Counter* ctr_txn_created_ = nullptr;
  obs::Counter* ctr_lock_requests_ = nullptr;
  obs::Counter* ctr_lock_denials_ = nullptr;
  obs::Counter* ctr_lock_grants_ = nullptr;
  obs::Counter* ctr_subtxns_done_ = nullptr;
  obs::Counter* ctr_txn_completed_ = nullptr;
  obs::Histogram* hist_response_ = nullptr;

  // Sampler baselines for per-interval deltas (utilization, throughput).
  std::vector<double> sample_cpu_busy_;
  std::vector<double> sample_io_busy_;
  int64_t sample_totcom_ = 0;
  double sample_time_ = 0.0;
};

}  // namespace granulock::core

#endif  // GRANULOCK_CORE_CLOSED_SYSTEM_KERNEL_H_
