#include "core/granularity_simulator.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "sim/invariants.h"
#include "util/logging.h"

namespace granulock::core {

using sim::TraceEventType;

/// One live transaction; `blocked` lists the transactions it is currently
/// blocking. Its scratch vector draws from the run's arena: it grows to
/// steady-state capacity once and is reclaimed wholesale when the
/// replication's arena resets, so pooled reuse never touches the heap.
struct GranularitySimulator::Txn : TxnCore {
  explicit Txn(util::Arena* arena)
      : blocked(util::ArenaAllocator<Txn*>(arena)) {}

  std::vector<Txn*, util::ArenaAllocator<Txn*>> blocked;

  void Reset() {
    TxnCore::Reset();
    blocked.clear();
  }
};

GranularitySimulator::GranularitySimulator(model::SystemConfig cfg,
                                           workload::WorkloadSpec spec,
                                           uint64_t seed, Options options)
    : cfg_(std::move(cfg)),
      spec_(std::move(spec)),
      options_(options),
      kernel_(cfg_, options_.obs, options_.trace, options_.watchdog),
      rng_(seed),
      contention_rng_(seed ^ 0x5deece66d1ce4e5dull),
      conflict_(std::max<int64_t>(1, cfg_.ltot)) {}

GranularitySimulator::GranularitySimulator(model::SystemConfig cfg,
                                           workload::WorkloadSpec spec,
                                           uint64_t seed)
    : GranularitySimulator(std::move(cfg), std::move(spec), seed, Options{}) {}

GranularitySimulator::~GranularitySimulator() = default;

Result<SimulationMetrics> GranularitySimulator::RunOnce(
    const model::SystemConfig& cfg, const workload::WorkloadSpec& spec,
    uint64_t seed, Options options) {
  GranularitySimulator simulator(cfg, spec, seed, options);
  return simulator.Run();
}

Result<SimulationMetrics> GranularitySimulator::RunOnce(
    const model::SystemConfig& cfg, const workload::WorkloadSpec& spec,
    uint64_t seed) {
  return RunOnce(cfg, spec, seed, Options{});
}

Result<SimulationMetrics> GranularitySimulator::Run() {
  GRANULOCK_RETURN_NOT_OK(kernel_.Begin(&spec_));
  if (options_.arena != nullptr) {
    arena_ = options_.arena;
  } else {
    owned_arena_ = std::make_unique<util::Arena>();
    arena_ = owned_arena_.get();
  }
  if (options_.max_active < 0) {
    return Status::InvalidArgument("max_active must be >= 0");
  }
  if (options_.adaptive_admission) {
    if (options_.adaptation_interval <= 0.0) {
      return Status::InvalidArgument("adaptation_interval must be positive");
    }
    if (options_.target_denial_rate <= 0.0 ||
        options_.target_denial_rate >= 1.0) {
      return Status::InvalidArgument("target_denial_rate must be in (0,1)");
    }
    adaptive_cap_ = cfg_.ntrans;  // start permissive, tighten on evidence
    kernel_.sim().ScheduleAt(options_.adaptation_interval,
                             [this] { AdaptAdmissionCap(); });
  }

  const size_t ntrans = static_cast<size_t>(cfg_.ntrans);
  active_.reserve(ntrans);
  txns_.Reserve(ntrans + 1);
  kernel_.Open<&GranularitySimulator::ContentionSample>(this,
                                                        /*imputed=*/true);
  return kernel_.RunToHorizon<&GranularitySimulator::Arrive>(this);
}

double GranularitySimulator::ContentionSample(
    ClosedSystemKernel::Edges* edges) const {
  for (const Txn* holder : active_) {
    for (const Txn* waiter : holder->blocked) {
      edges->emplace_back(waiter->id, holder->id);
    }
  }
  // The probabilistic engine has no lock table; occupancy is estimated
  // from the locks the active transactions nominally hold.
  return cfg_.ltot > 0 ? std::min(1.0, static_cast<double>(active_lu_total_) /
                                           static_cast<double>(cfg_.ltot))
                       : 0.0;
}

void GranularitySimulator::Arrive() {
  Txn* txn = txns_.Acquire(arena_);
  kernel_.InitTxn(txn, rng_);
  EnqueuePending(txn, /*at_tail=*/true);
  PumpLockManager();
}

void GranularitySimulator::EnqueuePending(Txn* txn, bool at_tail) {
  txn->pending_since = kernel_.Now();
  if (at_tail) {
    pending_.push_back(txn);
  } else {
    pending_.push_front(txn);
  }
  UpdateQueueStats();
}

void GranularitySimulator::UpdateQueueStats() {
  kernel_.SetQueueLengths(static_cast<double>(active_.size()),
                          static_cast<double>(blocked_count_),
                          static_cast<double>(pending_.size()));
}

int64_t GranularitySimulator::EffectiveCap() const {
  if (options_.adaptive_admission) return adaptive_cap_;
  return options_.max_active;
}

void GranularitySimulator::AdaptAdmissionCap() {
  // AIMD on the multiprogramming level: denials waste lock-processing
  // capacity (the cost is charged whether or not the locks are granted),
  // so a high denial rate means too many transactions are competing.
  const MeasurementWindow& w = kernel_.window();
  const int64_t requests = w.lock_requests - window_requests_;
  const int64_t denials = w.lock_denials - window_denials_;
  window_requests_ = w.lock_requests;
  window_denials_ = w.lock_denials;
  if (requests > 0) {
    const double rate =
        static_cast<double>(denials) / static_cast<double>(requests);
    if (rate > options_.target_denial_rate) {
      adaptive_cap_ = std::max<int64_t>(1, (adaptive_cap_ * 3) / 4);
    } else if (rate < 0.5 * options_.target_denial_rate) {
      adaptive_cap_ = std::min(cfg_.ntrans, adaptive_cap_ + 1);
      PumpLockManager();  // the looser cap may admit immediately
    }
  }
  if (kernel_.Now() + options_.adaptation_interval <= cfg_.tmax) {
    kernel_.sim().ScheduleAfter(options_.adaptation_interval,
                                [this] { AdaptAdmissionCap(); });
  }
}

void GranularitySimulator::PumpLockManager() {
  const int64_t cap = EffectiveCap();
  while (!pending_.empty() &&
         (!options_.serialize_lock_manager ||
          outstanding_lock_requests_ == 0) &&
         (cap == 0 ||
          static_cast<int64_t>(active_.size()) + outstanding_lock_requests_ <
              cap)) {
    Txn* txn = pending_.front();
    pending_.pop_front();
    UpdateQueueStats();
    BeginLockRequest(txn);
  }
  if (sim::invariants::DeepAuditEnabled()) CheckConsistency();
}

void GranularitySimulator::CheckConsistency() const {
  GRANULOCK_AUDIT_CHECK_GE(outstanding_lock_requests_, 0);
  GRANULOCK_AUDIT_CHECK_GE(blocked_count_, 0);
  // Closed system: every live transaction is pending, paying lock cost,
  // blocked behind an active transaction, or active — nowhere else.
  GRANULOCK_AUDIT_CHECK_EQ(
      txns_.live(),
      pending_.size() + static_cast<size_t>(outstanding_lock_requests_) +
          static_cast<size_t>(blocked_count_) + active_.size())
      << "live=" << txns_.live() << " pending=" << pending_.size()
      << " in_lock=" << outstanding_lock_requests_
      << " blocked=" << blocked_count_ << " active=" << active_.size();
  // The blocked count is exactly the sum of the blockers' lists, and
  // only active (lock-holding) transactions may block others.
  size_t blocked_from_lists = 0;
  int64_t lu_total = 0;
  for (const Txn* txn : active_) {
    blocked_from_lists += txn->blocked.size();
    lu_total += txn->params.lu;
    GRANULOCK_AUDIT_CHECK_GT(txn->subtxns_remaining, 0)
        << "active txn " << txn->id << " has no sub-transactions left";
    GRANULOCK_AUDIT_CHECK_LE(txn->subtxns_remaining, txn->params.pu)
        << "active txn " << txn->id;
    // Conservative locking: only lock holders block others, so the
    // waits-for relation has depth one and is trivially acyclic.
    for (const Txn* waiter : txn->blocked) {
      GRANULOCK_AUDIT_CHECK(waiter->blocked.empty())
          << "blocked txn " << waiter->id
          << " blocks others: waits-for chain under conservative locking";
    }
  }
  GRANULOCK_AUDIT_CHECK_EQ(static_cast<size_t>(blocked_count_),
                           blocked_from_lists);
  // The incrementally maintained conflict-scan total never drifts from
  // the ground truth it summarizes.
  GRANULOCK_AUDIT_CHECK_EQ(active_lu_total_, lu_total)
      << "active_lu_total_ drifted from the sum over active_";
  kernel_.CheckConsistency();
}

void GranularitySimulator::BeginLockRequest(Txn* txn) {
  ++outstanding_lock_requests_;
  kernel_.ClosePendingWait(txn);
  kernel_.CountLockRequest(txn->id, txn->params.lu);
  StartLockIoPhase(txn);
}

void GranularitySimulator::StartLockIoPhase(Txn* txn) {
  // Lock-table I/O: the work is shared equally by all nodes' disks and
  // served at preemptive priority, as one lock epoch of the disk pool.
  const double per_node =
      txn->params.lock_io_demand / static_cast<double>(cfg_.npros);
  if (per_node <= 0.0) {
    StartLockCpuPhase(txn);
    return;
  }
  kernel_.io().SubmitShared(per_node, [this, txn] { StartLockCpuPhase(txn); });
}

void GranularitySimulator::StartLockCpuPhase(Txn* txn) {
  const double per_node =
      txn->params.lock_cpu_demand / static_cast<double>(cfg_.npros);
  if (per_node <= 0.0) {
    FinishLockRequest(txn);
    return;
  }
  kernel_.cpu().SubmitShared(per_node, [this, txn] { FinishLockRequest(txn); });
}

void GranularitySimulator::FinishLockRequest(Txn* txn) {
  --outstanding_lock_requests_;
  GRANULOCK_DCHECK_GE(outstanding_lock_requests_, 0)
      << "lock request for txn " << txn->id
      << " finished more often than it began";
  // Conflict draw over the active transactions' lock counts, equivalent to
  // `conflict_.DrawBlocker` on a vector of their `lu` values but without
  // materializing that vector: the running `active_lu_total_` decides the
  // common no-conflict case with a single comparison. The early-out is
  // exact (not a shortcut) while the total stays below 2^53, where every
  // partial sum the scan would form is an exactly-represented integer; a
  // larger total falls back to the scan so the outcome is still
  // bit-identical to the reference loop.
  int blocker = -1;
  if (!active_.empty()) {
    const double scaled = conflict_.DrawScaledVariate(rng_);
    if (active_lu_total_ >= (int64_t{1} << 53) ||
        scaled <= static_cast<double>(active_lu_total_)) {
      double cum = 0.0;
      for (size_t j = 0; j < active_.size(); ++j) {
        cum += static_cast<double>(active_[j]->params.lu);
        if (scaled <= cum) {
          blocker = static_cast<int>(j);
          break;
        }
      }
    }
  }
  if (blocker >= 0) {
    Txn* blocking = active_[static_cast<size_t>(blocker)];
    kernel_.CountDenial(txn->id, static_cast<int64_t>(blocking->id));
    blocking->blocked.push_back(txn);
    ++blocked_count_;
    if (obs::ContentionProfiler* prof = options_.obs.contention) {
      // Granule attribution is imputed (the Ries–Stonebraker model names
      // no granule): drawn uniformly from a profiler-private stream.
      // Conservative X-only locking: depth is always 1.
      const int64_t granule =
          cfg_.ltot > 1 ? contention_rng_.UniformInt(0, cfg_.ltot - 1) : 0;
      prof->OnBlock(txn->id, granule, lockmgr::LockMode::kX,
                    lockmgr::LockMode::kX, /*chain_depth=*/1, kernel_.Now());
    }
    UpdateQueueStats();
  } else {
    kernel_.Trace(txn->id, TraceEventType::kLockGranted, txn->params.lu);
    Grant(txn);
  }
  PumpLockManager();
}

void GranularitySimulator::Grant(Txn* txn) {
  active_.push_back(txn);
  active_lu_total_ += txn->params.lu;
  kernel_.BeginStage(txn);
  if (options_.obs.contention != nullptr) {
    // Aggregate only: the imputed engine cannot attribute grants to real
    // granules, so per-granule grant counts stay 0 here.
    options_.obs.contention->OnGrantTotal(txn->params.lu);
  }
  UpdateQueueStats();
  const double pu = static_cast<double>(txn->params.pu);
  kernel_.ForkJoin<&GranularitySimulator::Complete>(
      this, txn, txn->params.io_demand / pu, txn->params.cpu_demand / pu);
}

void GranularitySimulator::Complete(Txn* txn) {
  auto it = std::find(active_.begin(), active_.end(), txn);
  GRANULOCK_CHECK(it != active_.end());
  active_.erase(it);
  active_lu_total_ -= txn->params.lu;
  kernel_.RecordCompletion(*txn);
  kernel_.Trace(txn->id, TraceEventType::kCompleted,
                static_cast<int64_t>(txn->blocked.size()));

  // Release the transactions this one was blocking. Their blocked stint
  // counts as lock wait (they are still paying for the denied request).
  blocked_count_ -= static_cast<int64_t>(txn->blocked.size());
  for (Txn* released : txn->blocked) {
    kernel_.Unblock(released);
    EnqueuePending(released, options_.requeue_blocked_at_tail);
  }
  txn->blocked.clear();

  // Closed system: a fresh transaction replaces the completed one, after
  // the terminal's think time (0 in the paper's model).
  if (cfg_.think_time > 0.0) {
    kernel_.sim().ScheduleAfter(rng_.Exponential(cfg_.think_time),
                                [this] { Arrive(); });
  } else {
    Txn* fresh = txns_.Acquire(arena_);
    kernel_.InitTxn(fresh, rng_);
    EnqueuePending(fresh, /*at_tail=*/true);
  }

  txns_.Release(txn);
  UpdateQueueStats();
  PumpLockManager();
}

}  // namespace granulock::core
