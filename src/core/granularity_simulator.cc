#include "core/granularity_simulator.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "sim/invariants.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/wall_clock.h"

namespace granulock::core {

using sim::ServiceClass;

/// One live transaction. `params` is drawn once at creation; `blocked`
/// lists the transactions this one is currently blocking.
struct GranularitySimulator::Txn {
  /// Scratch vectors draw from the run's arena: they grow to steady-state
  /// capacity once and are reclaimed wholesale when the replication's
  /// arena resets, so pooled reuse never touches the heap.
  explicit Txn(util::Arena* arena)
      : blocked(util::ArenaAllocator<Txn*>(arena)),
        sub_cpu_done(
            util::ArenaAllocator<std::pair<int32_t, double>>(arena)) {}

  uint64_t id = 0;
  workload::TransactionParams params;
  double arrival_time = 0.0;  // first entry into the pending queue
  int64_t subtxns_remaining = 0;
  std::vector<Txn*, util::ArenaAllocator<Txn*>> blocked;

  // Phase accounting (always on). The five per-txn phase values sum to
  // the response time exactly: pending/lock intervals tile [arrival,
  // grant], and each sub-transaction's io/cpu/sync spans tile [grant,
  // completion], so their mean over `pu` sub-transactions does too.
  double pending_since = 0.0;  // entered the pending queue (current stint)
  double lock_since = 0.0;     // left pending / started lock processing
  double grant_time = 0.0;     // locks granted, sub-transactions fanned out
  double pending_wait = 0.0;   // accumulated over all pending stints
  double lock_wait = 0.0;      // accumulated over all lock attempts
  double io_span_sum = 0.0;    // sum over sub-txns of [grant, io done]
  double cpu_span_sum = 0.0;   // sum over sub-txns of [io done, cpu done]
  double cpu_done_sum = 0.0;   // sum of cpu-done timestamps (for sync)
  // (node, cpu-done) per sub-transaction; filled only when a SpanRecorder
  // is attached, to emit the sync spans at completion.
  std::vector<std::pair<int32_t, double>,
              util::ArenaAllocator<std::pair<int32_t, double>>>
      sub_cpu_done;

  /// Returns the transaction to its freshly-constructed state while keeping
  /// the vectors' capacity — pooled reuse must behave exactly like a new
  /// `Txn` minus the allocations.
  void Reset() {
    id = 0;
    arrival_time = 0.0;
    subtxns_remaining = 0;
    blocked.clear();
    pending_since = 0.0;
    lock_since = 0.0;
    grant_time = 0.0;
    pending_wait = 0.0;
    lock_wait = 0.0;
    io_span_sum = 0.0;
    cpu_span_sum = 0.0;
    cpu_done_sum = 0.0;
    sub_cpu_done.clear();
  }
};

GranularitySimulator::GranularitySimulator(model::SystemConfig cfg,
                                           workload::WorkloadSpec spec,
                                           uint64_t seed, Options options)
    : cfg_(std::move(cfg)),
      spec_(std::move(spec)),
      options_(options),
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
  if (ran_) {
    return Status::FailedPrecondition("Run() may only be called once");
  }
  ran_ = true;
  const WallTimer wall_timer;
  GRANULOCK_RETURN_NOT_OK(cfg_.Validate());
  GRANULOCK_RETURN_NOT_OK(spec_.Validate(cfg_));
  if (options_.arena != nullptr) {
    arena_ = options_.arena;
  } else {
    owned_arena_ = std::make_unique<util::Arena>();
    arena_ = owned_arena_.get();
  }
  txn_factory_.emplace(cfg_, spec_);
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
    sim_.ScheduleAt(options_.adaptation_interval,
                    [this] { AdaptAdmissionCap(); });
  }

  const size_t ntrans = static_cast<size_t>(cfg_.ntrans);
  active_.reserve(ntrans);
  live_txns_.reserve(ntrans + 1);
  txn_pool_.reserve(ntrans + 1);
  cpu_.emplace(&sim_, "cpu", cfg_.npros);
  io_.emplace(&sim_, "io", cfg_.npros);

  SetUpObservability();

  active_stat_.Start(0.0, 0.0);
  blocked_stat_.Start(0.0, 0.0);
  pending_stat_.Start(0.0, 0.0);
  window_start_ = cfg_.warmup;
  if (cfg_.warmup > 0.0) {
    sim_.ScheduleAt(cfg_.warmup, [this] { BeginMeasurement(); });
  }

  InjectInitialTransactions();
  if (options_.watchdog != nullptr && options_.watchdog->active()) {
    ScheduleWatchdogPoll();
  }
  sim_.RunUntil(cfg_.tmax);

  SimulationMetrics m;
  m.measured_time = cfg_.tmax - window_start_;
  m.totcpus_sum = cpu_->TotalBusyTimeSum();
  m.totios_sum = io_->TotalBusyTimeSum();
  m.lockcpus_sum = cpu_->LockBusyTimeSum();
  m.lockios_sum = io_->LockBusyTimeSum();
  m.totcpus = cpu_->busy_union().AnyBusyTime(cfg_.tmax);
  m.lockcpus = cpu_->busy_union().LockBusyTime(cfg_.tmax);
  m.totios = io_->busy_union().AnyBusyTime(cfg_.tmax);
  m.lockios = io_->busy_union().LockBusyTime(cfg_.tmax);
  const double npros = static_cast<double>(cfg_.npros);
  m.usefulcpus = (m.totcpus - m.lockcpus) / npros;
  m.usefulios = (m.totios - m.lockios) / npros;
  m.totcom = totcom_;
  m.throughput =
      m.measured_time > 0.0 ? static_cast<double>(totcom_) / m.measured_time
                            : 0.0;
  m.response_time = response_.Mean();
  m.response_time_stddev = response_.StdDev();
  m.response_p50 = response_quantiles_.Quantile(0.50);
  m.response_p95 = response_quantiles_.Quantile(0.95);
  m.response_p99 = response_quantiles_.Quantile(0.99);
  m.lock_requests = lock_requests_;
  m.lock_denials = lock_denials_;
  m.denial_rate = lock_requests_ > 0 ? static_cast<double>(lock_denials_) /
                                           static_cast<double>(lock_requests_)
                                     : 0.0;
  m.avg_active = active_stat_.Average(cfg_.tmax);
  m.avg_blocked = blocked_stat_.Average(cfg_.tmax);
  m.avg_pending = pending_stat_.Average(cfg_.tmax);
  m.cpu_utilization =
      m.measured_time > 0.0 ? m.totcpus_sum / (npros * m.measured_time)
                            : 0.0;
  m.io_utilization =
      m.measured_time > 0.0 ? m.totios_sum / (npros * m.measured_time) : 0.0;
  m.events_executed = sim_.ExecutedEvents();
  m.phase_pending_wait = phase_pending_.Mean();
  m.phase_lock_wait = phase_lock_.Mean();
  m.phase_io_service = phase_io_.Mean();
  m.phase_cpu_service = phase_cpu_.Mean();
  m.phase_sync_wait = phase_sync_.Mean();

  const double wall_seconds = wall_timer.Seconds();
  PublishRunProfile(wall_seconds);
  return m;
}

void GranularitySimulator::SetUpObservability() {
  if (options_.obs.registry != nullptr) {
    auto* reg = options_.obs.registry;
    ctr_txn_created_ = reg->GetCounter("engine.txn_created");
    ctr_lock_requests_ = reg->GetCounter("engine.lock_requests");
    ctr_lock_denials_ = reg->GetCounter("engine.lock_denials");
    ctr_lock_grants_ = reg->GetCounter("engine.lock_grants");
    ctr_subtxns_done_ = reg->GetCounter("engine.subtxns_completed");
    ctr_txn_completed_ = reg->GetCounter("engine.txn_completed");
    hist_response_ = reg->GetHistogram(
        "engine.response_time",
        {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000});
  }
  if (options_.obs.sampler != nullptr) {
    auto* sampler = options_.obs.sampler;
    std::vector<std::string> cols = {"active", "blocked", "pending",
                                     "throughput"};
    for (int64_t n = 0; n < cfg_.npros; ++n) {
      cols.push_back(StrFormat("cpu%lld_util", (long long)n));
    }
    for (int64_t n = 0; n < cfg_.npros; ++n) {
      cols.push_back(StrFormat("disk%lld_util", (long long)n));
    }
    sampler->SetColumns(std::move(cols));
    sample_cpu_busy_.assign(static_cast<size_t>(cfg_.npros), 0.0);
    sample_io_busy_.assign(static_cast<size_t>(cfg_.npros), 0.0);
    const double iv = sampler->interval();
    if (iv > 0.0 && iv <= cfg_.tmax) {
      sim_.ScheduleObserverAt(iv, [this] { SampleTick(); });
    }
  }
  if (options_.obs.contention != nullptr) {
    auto* prof = options_.obs.contention;
    prof->BeginRun(cfg_.ltot, /*imputed=*/true);
    const double iv = prof->options().sample_interval;
    if (iv > 0.0 && iv <= cfg_.tmax) {
      sim_.ScheduleObserverAt(iv, [this] { ContentionTick(); });
    }
  }
}

void GranularitySimulator::ScheduleWatchdogPoll() {
  sim_.ScheduleObserverAfter(options_.watchdog->poll_interval(), [this] {
    options_.watchdog->Poll();  // throws to cancel the cell
    ScheduleWatchdogPoll();
  });
}

void GranularitySimulator::SampleTick() {
  auto* sampler = options_.obs.sampler;
  const double now = sim_.Now();
  const double dt = now - sample_time_;
  std::vector<double> row;
  row.reserve(4 + 2 * static_cast<size_t>(cfg_.npros));
  row.push_back(static_cast<double>(active_.size()));
  row.push_back(static_cast<double>(blocked_count_));
  row.push_back(static_cast<double>(pending_.size()));
  // Interval deltas are clamped at 0: the warmup reset zeroes the
  // underlying totals mid-stream, so the one row straddling the warmup
  // boundary under-reports rather than going negative.
  row.push_back(dt > 0.0 ? std::max(0.0, static_cast<double>(
                                             totcom_ - sample_totcom_)) /
                               dt
                         : 0.0);
  for (int64_t n = 0; n < cfg_.npros; ++n) {
    const size_t i = static_cast<size_t>(n);
    const double busy = cpu_->node(n).TotalBusyTime();
    row.push_back(dt > 0.0
                      ? std::max(0.0, busy - sample_cpu_busy_[i]) / dt
                      : 0.0);
    sample_cpu_busy_[i] = busy;
  }
  for (int64_t n = 0; n < cfg_.npros; ++n) {
    const size_t i = static_cast<size_t>(n);
    const double busy = io_->node(n).TotalBusyTime();
    row.push_back(dt > 0.0 ? std::max(0.0, busy - sample_io_busy_[i]) / dt
                           : 0.0);
    sample_io_busy_[i] = busy;
  }
  sample_totcom_ = totcom_;
  sample_time_ = now;
  sampler->Push(now, std::move(row));
  const double iv = sampler->interval();
  if (now + iv <= cfg_.tmax) {
    sim_.ScheduleObserverAfter(iv, [this] { SampleTick(); });
  }
}

void GranularitySimulator::ContentionTick() {
  auto* prof = options_.obs.contention;
  const double now = sim_.Now();
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (const Txn* holder : active_) {
    for (const Txn* waiter : holder->blocked) {
      edges.emplace_back(waiter->id, holder->id);
    }
  }
  const double ntrans = static_cast<double>(cfg_.ntrans);
  const double blocked_fraction =
      ntrans > 0.0 ? static_cast<double>(blocked_count_) / ntrans : 0.0;
  // The probabilistic engine has no lock table; occupancy is estimated
  // from the locks the active transactions nominally hold.
  const int64_t locks_held = active_lu_total_;
  const double occupancy =
      cfg_.ltot > 0
          ? std::min(1.0, static_cast<double>(locks_held) /
                              static_cast<double>(cfg_.ltot))
          : 0.0;
  prof->OnSample(now, blocked_fraction, occupancy, std::move(edges));
  const double iv = prof->options().sample_interval;
  if (now + iv <= cfg_.tmax) {
    sim_.ScheduleObserverAfter(iv, [this] { ContentionTick(); });
  }
}

void GranularitySimulator::PublishRunProfile(double wall_seconds) {
  if (options_.obs.registry == nullptr) return;
  auto* reg = options_.obs.registry;
  reg->GetGauge("sim.events_executed")
      ->Set(static_cast<double>(sim_.ExecutedEvents()));
  reg->GetGauge("sim.observer_events")
      ->Set(static_cast<double>(sim_.ExecutedObserverEvents()));
  reg->GetGauge("sim.event_queue_hwm")
      ->Set(static_cast<double>(sim_.MaxPendingEvents()));
  reg->GetGauge("engine.wall_seconds")->Set(wall_seconds);
  reg->GetGauge("engine.events_per_sec")
      ->Set(wall_seconds > 0.0
                ? static_cast<double>(sim_.ExecutedEvents()) / wall_seconds
                : 0.0);
}

void GranularitySimulator::BeginMeasurement() {
  cpu_->ResetStats();
  io_->ResetStats();
  totcom_ = 0;
  lock_requests_ = 0;
  lock_denials_ = 0;
  response_.Reset();
  response_quantiles_.Reset();
  phase_pending_.Reset();
  phase_lock_.Reset();
  phase_io_.Reset();
  phase_cpu_.Reset();
  phase_sync_.Reset();
  sample_totcom_ = 0;
  std::fill(sample_cpu_busy_.begin(), sample_cpu_busy_.end(), 0.0);
  std::fill(sample_io_busy_.begin(), sample_io_busy_.end(), 0.0);
  const double now = sim_.Now();
  active_stat_.ResetWindow(now);
  blocked_stat_.ResetWindow(now);
  pending_stat_.ResetWindow(now);
  window_start_ = now;
}

void GranularitySimulator::InjectInitialTransactions() {
  // "Initially, transactions arrive one time unit apart and they are put on
  // the pending queue."
  for (int64_t i = 0; i < cfg_.ntrans; ++i) {
    const double at = static_cast<double>(i);
    sim_.ScheduleAt(at, [this] {
      Txn* txn = CreateTransaction(sim_.Now());
      EnqueuePending(txn, /*at_tail=*/true);
      PumpLockManager();
    });
  }
}

GranularitySimulator::Txn* GranularitySimulator::CreateTransaction(
    double arrival_time) {
  std::unique_ptr<Txn> owned;
  if (!txn_pool_.empty()) {
    owned = std::move(txn_pool_.back());
    txn_pool_.pop_back();
  } else {
    owned = std::make_unique<Txn>(arena_);
  }
  Txn* txn = owned.get();
  txn->id = next_txn_id_++;
  txn_factory_->Generate(rng_, &txn->params);
  txn->arrival_time = arrival_time;
  if (ctr_txn_created_ != nullptr) ctr_txn_created_->Increment();
  if (options_.trace != nullptr) {
    options_.trace->Record(sim_.Now(), txn->id, sim::TraceEventType::kCreated,
                           txn->params.nu);
  }
  live_txns_.push_back(std::move(owned));
  return txn;
}

void GranularitySimulator::DestroyTransaction(Txn* txn) {
  auto it = std::find_if(
      live_txns_.begin(), live_txns_.end(),
      [txn](const std::unique_ptr<Txn>& p) { return p.get() == txn; });
  GRANULOCK_CHECK(it != live_txns_.end());
  // Swap-erase: order of ownership storage is irrelevant. The transaction
  // object is recycled through the pool (a closed system churns through
  // one short-lived Txn per completion otherwise).
  (*it)->Reset();
  txn_pool_.push_back(std::move(*it));
  *it = std::move(live_txns_.back());
  live_txns_.pop_back();
}

void GranularitySimulator::EnqueuePending(Txn* txn, bool at_tail) {
  txn->pending_since = sim_.Now();
  if (at_tail) {
    pending_.push_back(txn);
  } else {
    pending_.push_front(txn);
  }
  UpdateQueueStats();
}

void GranularitySimulator::UpdateQueueStats() {
  const double now = sim_.Now();
  active_stat_.Update(now, static_cast<double>(active_.size()));
  blocked_stat_.Update(now, static_cast<double>(blocked_count_));
  pending_stat_.Update(now, static_cast<double>(pending_.size()));
}

int64_t GranularitySimulator::EffectiveCap() const {
  if (options_.adaptive_admission) return adaptive_cap_;
  return options_.max_active;
}

void GranularitySimulator::AdaptAdmissionCap() {
  // AIMD on the multiprogramming level: denials waste lock-processing
  // capacity (the cost is charged whether or not the locks are granted),
  // so a high denial rate means too many transactions are competing.
  const int64_t requests = lock_requests_ - window_requests_;
  const int64_t denials = lock_denials_ - window_denials_;
  window_requests_ = lock_requests_;
  window_denials_ = lock_denials_;
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
  if (sim_.Now() + options_.adaptation_interval <= cfg_.tmax) {
    sim_.ScheduleAfter(options_.adaptation_interval,
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
      live_txns_.size(),
      pending_.size() + static_cast<size_t>(outstanding_lock_requests_) +
          static_cast<size_t>(blocked_count_) + active_.size())
      << "live=" << live_txns_.size() << " pending=" << pending_.size()
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
  cpu_->CheckConsistency();
  io_->CheckConsistency();
}

void GranularitySimulator::BeginLockRequest(Txn* txn) {
  ++outstanding_lock_requests_;
  ++lock_requests_;
  const double now = sim_.Now();
  txn->pending_wait += now - txn->pending_since;
  txn->lock_since = now;
  if (options_.obs.spans != nullptr) {
    options_.obs.spans->Record(txn->id, obs::Phase::kPendingWait,
                               obs::kLifecycleTrack, txn->pending_since,
                               now);
  }
  if (ctr_lock_requests_ != nullptr) ctr_lock_requests_->Increment();
  if (options_.trace != nullptr) {
    options_.trace->Record(sim_.Now(), txn->id,
                           sim::TraceEventType::kLockRequested,
                           txn->params.lu);
  }
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
  io_->SubmitShared(per_node, [this, txn] { StartLockCpuPhase(txn); });
}

void GranularitySimulator::StartLockCpuPhase(Txn* txn) {
  const double per_node =
      txn->params.lock_cpu_demand / static_cast<double>(cfg_.npros);
  if (per_node <= 0.0) {
    FinishLockRequest(txn);
    return;
  }
  cpu_->SubmitShared(per_node, [this, txn] { FinishLockRequest(txn); });
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
    ++lock_denials_;
    if (ctr_lock_denials_ != nullptr) ctr_lock_denials_->Increment();
    Txn* blocking = active_[static_cast<size_t>(blocker)];
    if (options_.trace != nullptr) {
      options_.trace->Record(sim_.Now(), txn->id,
                             sim::TraceEventType::kLockDenied,
                             static_cast<int64_t>(blocking->id));
    }
    blocking->blocked.push_back(txn);
    ++blocked_count_;
    if (options_.obs.contention != nullptr) {
      // Granule attribution is imputed (the Ries–Stonebraker model names
      // no granule): drawn uniformly from a profiler-private stream.
      // Conservative X-only locking: depth is always 1.
      const int64_t granule =
          cfg_.ltot > 1 ? contention_rng_.UniformInt(0, cfg_.ltot - 1) : 0;
      options_.obs.contention->OnBlock(txn->id, granule, lockmgr::LockMode::kX,
                                       lockmgr::LockMode::kX,
                                       /*chain_depth=*/1, sim_.Now());
    }
    UpdateQueueStats();
  } else {
    if (options_.trace != nullptr) {
      options_.trace->Record(sim_.Now(), txn->id,
                             sim::TraceEventType::kLockGranted,
                             txn->params.lu);
    }
    Grant(txn);
  }
  PumpLockManager();
}

void GranularitySimulator::Grant(Txn* txn) {
  active_.push_back(txn);
  active_lu_total_ += txn->params.lu;
  txn->subtxns_remaining = txn->params.pu;
  const double now = sim_.Now();
  txn->lock_wait += now - txn->lock_since;
  txn->grant_time = now;
  if (options_.obs.spans != nullptr) {
    options_.obs.spans->Record(txn->id, obs::Phase::kLockWait,
                               obs::kLifecycleTrack, txn->lock_since, now);
  }
  if (ctr_lock_grants_ != nullptr) ctr_lock_grants_->Increment();
  if (options_.obs.contention != nullptr) {
    // Aggregate only: the imputed engine cannot attribute grants to real
    // granules, so per-granule grant counts stay 0 here.
    options_.obs.contention->OnGrantTotal(txn->params.lu);
  }
  UpdateQueueStats();
  for (int32_t node : txn->params.nodes) {
    StartSubTransaction(txn, node);
  }
}

void GranularitySimulator::StartSubTransaction(Txn* txn, int32_t node) {
  const double pu = static_cast<double>(txn->params.pu);
  const double io_share = txn->params.io_demand / pu;
  const double cpu_share = txn->params.cpu_demand / pu;
  sim::PriorityServer* io_server = &io_->node(node);
  sim::PriorityServer* cpu_server = &cpu_->node(node);
  io_server->Submit(
      ServiceClass::kTransaction, io_share,
      [this, txn, node, cpu_server, cpu_share] {
        const double io_done = sim_.Now();
        txn->io_span_sum += io_done - txn->grant_time;
        if (options_.obs.spans != nullptr) {
          options_.obs.spans->Record(txn->id, obs::Phase::kIoService, node,
                                     txn->grant_time, io_done);
        }
        cpu_server->Submit(ServiceClass::kTransaction, cpu_share,
                           [this, txn, node, io_done] {
                             const double cpu_done = sim_.Now();
                             txn->cpu_span_sum += cpu_done - io_done;
                             txn->cpu_done_sum += cpu_done;
                             if (options_.obs.spans != nullptr) {
                               options_.obs.spans->Record(
                                   txn->id, obs::Phase::kCpuService, node,
                                   io_done, cpu_done);
                               txn->sub_cpu_done.emplace_back(node,
                                                              cpu_done);
                             }
                             OnSubTransactionDone(txn);
                           });
      });
}

void GranularitySimulator::OnSubTransactionDone(Txn* txn) {
  GRANULOCK_CHECK_GT(txn->subtxns_remaining, 0);
  if (ctr_subtxns_done_ != nullptr) ctr_subtxns_done_->Increment();
  if (--txn->subtxns_remaining == 0) {
    Complete(txn);
  }
}

void GranularitySimulator::Complete(Txn* txn) {
  auto it = std::find(active_.begin(), active_.end(), txn);
  GRANULOCK_CHECK(it != active_.end());
  active_.erase(it);
  active_lu_total_ -= txn->params.lu;

  const double now = sim_.Now();
  const double response = now - txn->arrival_time;
  ++totcom_;
  response_.Add(response);
  response_quantiles_.Add(response);
  const double pu = static_cast<double>(txn->params.pu);
  phase_pending_.Add(txn->pending_wait);
  phase_lock_.Add(txn->lock_wait);
  phase_io_.Add(txn->io_span_sum / pu);
  phase_cpu_.Add(txn->cpu_span_sum / pu);
  phase_sync_.Add(now - txn->cpu_done_sum / pu);
  if (ctr_txn_completed_ != nullptr) ctr_txn_completed_->Increment();
  if (hist_response_ != nullptr) hist_response_->Observe(response);
  if (options_.obs.spans != nullptr) {
    for (const auto& [node, cpu_done] : txn->sub_cpu_done) {
      options_.obs.spans->Record(txn->id, obs::Phase::kSyncWait, node,
                                 cpu_done, now);
    }
    options_.obs.spans->TxnComplete(txn->id, txn->arrival_time, now,
                                    txn->params.pu);
  }
  if (options_.trace != nullptr) {
    options_.trace->Record(sim_.Now(), txn->id,
                           sim::TraceEventType::kCompleted,
                           static_cast<int64_t>(txn->blocked.size()));
  }

  // Release the transactions this one was blocking. Their blocked stint
  // counts as lock wait (they are still paying for the denied request).
  blocked_count_ -= static_cast<int64_t>(txn->blocked.size());
  for (Txn* released : txn->blocked) {
    released->lock_wait += now - released->lock_since;
    if (options_.obs.spans != nullptr) {
      options_.obs.spans->Record(released->id, obs::Phase::kLockWait,
                                 obs::kLifecycleTrack, released->lock_since,
                                 now);
    }
    if (options_.obs.contention != nullptr) {
      options_.obs.contention->OnUnblock(released->id, now);
    }
    EnqueuePending(released, options_.requeue_blocked_at_tail);
  }
  txn->blocked.clear();

  // Closed system: a fresh transaction replaces the completed one, after
  // the terminal's think time (0 in the paper's model).
  if (cfg_.think_time > 0.0) {
    sim_.ScheduleAfter(rng_.Exponential(cfg_.think_time), [this] {
      Txn* fresh = CreateTransaction(sim_.Now());
      EnqueuePending(fresh, /*at_tail=*/true);
      PumpLockManager();
    });
  } else {
    Txn* fresh = CreateTransaction(sim_.Now());
    EnqueuePending(fresh, /*at_tail=*/true);
  }

  DestroyTransaction(txn);
  UpdateQueueStats();
  PumpLockManager();
}

}  // namespace granulock::core
