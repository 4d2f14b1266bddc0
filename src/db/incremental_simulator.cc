#include "db/incremental_simulator.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "db/granule_selector.h"
#include "sim/invariants.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/wall_clock.h"

namespace granulock::db {

using lockmgr::LockMode;
using lockmgr::WaitQueueLockTable;
using sim::ServiceClass;

/// One live transaction under claim-as-needed locking. The granule list is
/// acquired in (shuffled) order; `next_lock` indexes the stage being
/// worked on.
struct IncrementalSimulator::Txn {
  lockmgr::TxnId id = 0;
  workload::TransactionParams params;
  double arrival_time = 0.0;
  LockMode mode = LockMode::kX;
  std::vector<int64_t> granules;  // acquisition order (shuffled)
  size_t next_lock = 0;
  int64_t substages_remaining = 0;
  int64_t restarts = 0;
  /// Wounded by a contention policy while running: aborts at its next
  /// safe point (lock cost paid / stage join) instead of proceeding.
  bool doomed = false;
  /// Time spent parked in the admission queue before starting (0 when
  /// admission control is disabled).
  double admitted_wait = 0.0;

  // Phase accounting (always on). There is no pending queue, so
  // `phase_lock_wait` absorbs everything between stages: lock-cost
  // service, wait-queue time, and deadlock abort/backoff. Each stage's
  // fork-join io/cpu/sync sub-spans tile [stage grant, stage end], and
  // re-run stages after an abort occupy fresh wall-clock, so the per-txn
  // identity lock + io/pu + cpu/pu + sync/pu = response still holds.
  double lock_since = 0.0;   // entered lock acquisition (current stint)
  double stage_start = 0.0;  // current stage's lock granted, work began
  double lock_wait = 0.0;
  double io_span_sum = 0.0;
  double cpu_span_sum = 0.0;
  double sync_span_sum = 0.0;
  double stage_cpu_done_sum = 0.0;  // current stage only
  // (node, cpu-done) of the current stage; spans-attached runs only.
  std::vector<std::pair<int32_t, double>> sub_cpu_done;

  /// Returns the transaction to its freshly-constructed state while
  /// keeping the vectors' capacity — pooled reuse must behave exactly
  /// like a new `Txn` minus the allocations.
  void Reset() {
    id = 0;
    arrival_time = 0.0;
    mode = LockMode::kX;
    granules.clear();
    next_lock = 0;
    substages_remaining = 0;
    restarts = 0;
    doomed = false;
    admitted_wait = 0.0;
    lock_since = 0.0;
    stage_start = 0.0;
    lock_wait = 0.0;
    io_span_sum = 0.0;
    cpu_span_sum = 0.0;
    sync_span_sum = 0.0;
    stage_cpu_done_sum = 0.0;
    sub_cpu_done.clear();
  }
};

IncrementalSimulator::IncrementalSimulator(model::SystemConfig cfg,
                                           workload::WorkloadSpec spec,
                                           uint64_t seed, Options options)
    : cfg_(std::move(cfg)),
      spec_(std::move(spec)),
      options_(options),
      rng_(seed),
      seed_(seed) {}

IncrementalSimulator::IncrementalSimulator(model::SystemConfig cfg,
                                           workload::WorkloadSpec spec,
                                           uint64_t seed)
    : IncrementalSimulator(std::move(cfg), std::move(spec), seed, Options{}) {}

IncrementalSimulator::~IncrementalSimulator() = default;

/// The read-only per-transaction view handed to contention policies.
class IncrementalSimulator::PolicyDirectory final : public TxnDirectory {
 public:
  explicit PolicyDirectory(const IncrementalSimulator* self) : self_(self) {}
  int64_t RestartsOf(lockmgr::TxnId txn) const override {
    auto it = self_->txn_by_id_.find(txn);
    return it == self_->txn_by_id_.end() ? 0 : it->second->restarts;
  }
  bool IsDoomed(lockmgr::TxnId txn) const override {
    auto it = self_->txn_by_id_.find(txn);
    return it != self_->txn_by_id_.end() && it->second->doomed;
  }

 private:
  const IncrementalSimulator* self_;
};

Result<core::SimulationMetrics> IncrementalSimulator::RunOnce(
    const model::SystemConfig& cfg, const workload::WorkloadSpec& spec,
    uint64_t seed, Options options) {
  IncrementalSimulator simulator(cfg, spec, seed, options);
  return simulator.Run();
}

Result<core::SimulationMetrics> IncrementalSimulator::RunOnce(
    const model::SystemConfig& cfg, const workload::WorkloadSpec& spec,
    uint64_t seed) {
  return RunOnce(cfg, spec, seed, Options{});
}

Result<core::SimulationMetrics> IncrementalSimulator::Run() {
  if (ran_) {
    return Status::FailedPrecondition("Run() may only be called once");
  }
  ran_ = true;
  const WallTimer wall_timer;
  GRANULOCK_RETURN_NOT_OK(cfg_.Validate());
  GRANULOCK_RETURN_NOT_OK(spec_.Validate(cfg_));
  txn_factory_.emplace(cfg_, spec_);
  if (options_.read_fraction < 0.0 || options_.read_fraction > 1.0) {
    return Status::InvalidArgument("read_fraction must be in [0, 1]");
  }
  if (options_.restart_delay <= 0.0) {
    return Status::InvalidArgument("restart_delay must be positive");
  }
  GRANULOCK_RETURN_NOT_OK(ValidateContentionOptions(
      options_.contention.governor, options_.contention.admission));
  policy_ = MakeContentionPolicy(options_.contention.policy);
  governor_.emplace(options_.restart_delay, options_.contention.governor);

  table_ = std::make_unique<WaitQueueLockTable>(cfg_.ltot);
  cpu_.emplace(&sim_, "cpu", cfg_.npros);
  io_.emplace(&sim_, "io", cfg_.npros);

  SetUpObservability();

  active_stat_.Start(0.0, 0.0);
  blocked_stat_.Start(0.0, 0.0);
  window_start_ = cfg_.warmup;
  if (cfg_.warmup > 0.0) {
    sim_.ScheduleAt(cfg_.warmup, [this] { BeginMeasurement(); });
  }
  if (options_.contention.admission.enabled) {
    // A *regular* event chain: the controller changes which transactions
    // run and when, by design. With admission disabled no controller
    // exists and no event is ever scheduled, so the run is bit-identical
    // to one built before the controller did.
    admission_.emplace(options_.contention.admission, cfg_.ntrans);
    admission_stat_.Start(0.0, 0.0);
    const double iv = options_.contention.admission.interval;
    if (iv <= cfg_.tmax) {
      sim_.ScheduleAt(iv, [this] { AdmissionTick(); });
    }
  }

  for (int64_t i = 0; i < cfg_.ntrans; ++i) {
    sim_.ScheduleAt(static_cast<double>(i), [this] {
      AdmitOrHold(CreateTransaction(sim_.Now()));
    });
  }
  sim_.RunUntil(cfg_.tmax);

  core::SimulationMetrics m;
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
  m.lock_denials = lock_waits_;
  m.denial_rate = lock_requests_ > 0 ? static_cast<double>(lock_waits_) /
                                           static_cast<double>(lock_requests_)
                                     : 0.0;
  m.avg_active = active_stat_.Average(cfg_.tmax);
  m.avg_blocked = blocked_stat_.Average(cfg_.tmax);
  // Admission parking is the claim-as-needed analogue of the conservative
  // engines' pending queue; without the controller there is none.
  m.avg_pending = admission_ ? admission_stat_.Average(cfg_.tmax) : 0.0;
  m.cpu_utilization =
      m.measured_time > 0.0 ? m.totcpus_sum / (npros * m.measured_time)
                            : 0.0;
  m.io_utilization =
      m.measured_time > 0.0 ? m.totios_sum / (npros * m.measured_time) : 0.0;
  m.deadlock_aborts = deadlock_aborts_;
  m.txn_restarts = txn_restarts_;
  m.txn_sacrificed = txn_sacrificed_;
  m.avg_admission_held = admission_ ? admission_stat_.Average(cfg_.tmax) : 0.0;
  m.events_executed = sim_.ExecutedEvents();
  // Mean over completed txns; exactly 0.0 with admission disabled (every
  // Add is 0.0, and Welford keeps a mean of identical values exact).
  m.phase_pending_wait = phase_pending_.Mean();
  m.phase_lock_wait = phase_lock_.Mean();
  m.phase_io_service = phase_io_.Mean();
  m.phase_cpu_service = phase_cpu_.Mean();
  m.phase_sync_wait = phase_sync_.Mean();

  const double wall_seconds = wall_timer.Seconds();
  PublishRunProfile(wall_seconds);
  return m;
}

void IncrementalSimulator::SetUpObservability() {
  if (options_.obs.registry != nullptr) {
    auto* reg = options_.obs.registry;
    ctr_txn_created_ = reg->GetCounter("engine.txn_created");
    ctr_lock_requests_ = reg->GetCounter("engine.lock_requests");
    ctr_lock_denials_ = reg->GetCounter("engine.lock_denials");
    ctr_lock_grants_ = reg->GetCounter("engine.lock_grants");
    ctr_subtxns_done_ = reg->GetCounter("engine.subtxns_completed");
    ctr_txn_completed_ = reg->GetCounter("engine.txn_completed");
    ctr_deadlock_aborts_ = reg->GetCounter("engine.deadlock_aborts");
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
  if (auto* prof = options_.obs.contention) {
    prof->BeginRun(cfg_.ltot, /*imputed=*/false);
    const double iv = prof->options().sample_interval;
    if (iv > 0.0 && iv <= cfg_.tmax) {
      sim_.ScheduleObserverAt(iv, [this] { ContentionTick(); });
    }
  }
}

void IncrementalSimulator::ContentionTick() {
  auto* prof = options_.obs.contention;
  const double now = sim_.Now();
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (const auto& [waiter, granule] : table_->WaitingRequests()) {
    for (lockmgr::TxnId holder : table_->Holders(granule)) {
      if (holder != waiter) edges.emplace_back(waiter, holder);
    }
  }
  const double ntrans = static_cast<double>(cfg_.ntrans);
  const double blocked_fraction =
      ntrans > 0.0 ? static_cast<double>(waiting_count_) / ntrans : 0.0;
  const double occupancy =
      cfg_.ltot > 0
          ? std::min(1.0, static_cast<double>(table_->LockedGranules()) /
                              static_cast<double>(cfg_.ltot))
          : 0.0;
  prof->OnSample(now, blocked_fraction, occupancy, std::move(edges),
                 deadlock_aborts_, txn_restarts_, txn_sacrificed_);
  const double iv = prof->options().sample_interval;
  if (now + iv <= cfg_.tmax) {
    sim_.ScheduleObserverAfter(iv, [this] { ContentionTick(); });
  }
}

void IncrementalSimulator::SampleTick() {
  auto* sampler = options_.obs.sampler;
  const double now = sim_.Now();
  const double dt = now - sample_time_;
  std::vector<double> row;
  row.reserve(4 + 2 * static_cast<size_t>(cfg_.npros));
  row.push_back(static_cast<double>(running_count_));
  row.push_back(static_cast<double>(waiting_count_));
  row.push_back(0.0);  // no pending queue
  // Deltas clamp at 0 across the warmup reset (see GranularitySimulator).
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

void IncrementalSimulator::PublishRunProfile(double wall_seconds) {
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

void IncrementalSimulator::BeginMeasurement() {
  cpu_->ResetStats();
  io_->ResetStats();
  totcom_ = 0;
  lock_requests_ = 0;
  lock_waits_ = 0;
  deadlock_aborts_ = 0;
  txn_restarts_ = 0;
  txn_sacrificed_ = 0;
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
  if (admission_) admission_stat_.ResetWindow(now);
  window_start_ = now;
}

IncrementalSimulator::Txn* IncrementalSimulator::CreateTransaction(
    double arrival_time) {
  std::unique_ptr<Txn> owned;
  if (!txn_pool_.empty()) {
    owned = std::move(txn_pool_.back());
    txn_pool_.pop_back();
  } else {
    owned = std::make_unique<Txn>();
  }
  Txn* txn = owned.get();
  txn->id = next_txn_id_++;
  txn_factory_->Generate(rng_, &txn->params);
  txn->arrival_time = arrival_time;
  txn->mode =
      rng_.Bernoulli(options_.read_fraction) ? LockMode::kS : LockMode::kX;
  txn->granules = SelectGranules(spec_.placement, cfg_.dbsize, cfg_.ltot,
                                 txn->params.nu, rng_);
  // Claim-as-needed acquires each lock when the data is first touched, so
  // the acquisition order follows the ACCESS order:
  //  * best placement models a sequential scan — scan order. The selected
  //    run may wrap past the last granule; rotate the sorted set so it
  //    starts after the wrap gap (wrapped ranges are the only way two
  //    scans can deadlock).
  //  * random/worst placement model random access — a random order, which
  //    is what makes hold-and-wait cycles (deadlocks) common there.
  if (spec_.placement == model::Placement::kBest) {
    for (size_t i = 0; i + 1 < txn->granules.size(); ++i) {
      if (txn->granules[i + 1] - txn->granules[i] > 1) {
        std::rotate(txn->granules.begin(), txn->granules.begin() + i + 1,
                    txn->granules.end());
        break;
      }
    }
  } else {
    rng_.Shuffle(txn->granules);
  }
  if (ctr_txn_created_ != nullptr) ctr_txn_created_->Increment();
  if (options_.trace != nullptr) {
    options_.trace->Record(sim_.Now(), txn->id, sim::TraceEventType::kCreated,
                           txn->params.nu);
  }
  txn_by_id_.emplace(txn->id, txn);
  live_txns_.push_back(std::move(owned));
  return txn;
}

void IncrementalSimulator::DestroyTransaction(Txn* txn) {
  txn_by_id_.erase(txn->id);
  auto it = std::find_if(
      live_txns_.begin(), live_txns_.end(),
      [txn](const std::unique_ptr<Txn>& p) { return p.get() == txn; });
  GRANULOCK_CHECK(it != live_txns_.end());
  // Recycle through the pool: restarts and completions otherwise churn
  // one short-lived Txn (two vectors deep) per event.
  (*it)->Reset();
  txn_pool_.push_back(std::move(*it));
  *it = std::move(live_txns_.back());
  live_txns_.pop_back();
}

void IncrementalSimulator::UpdateQueueStats() {
  const double now = sim_.Now();
  active_stat_.Update(now, static_cast<double>(running_count_));
  blocked_stat_.Update(now, static_cast<double>(waiting_count_));
}

void IncrementalSimulator::StartTransaction(Txn* txn) {
  txn->next_lock = 0;
  txn->lock_since = sim_.Now();
  ++running_count_;
  UpdateQueueStats();
  RequestNextLock(txn);
}

void IncrementalSimulator::RequestNextLock(Txn* txn) {
  GRANULOCK_CHECK_LT(txn->next_lock, txn->granules.size());
  ++lock_requests_;
  if (ctr_lock_requests_ != nullptr) ctr_lock_requests_->Increment();
  if (options_.trace != nullptr) {
    options_.trace->Record(sim_.Now(), txn->id,
                           sim::TraceEventType::kLockRequested,
                           txn->granules[txn->next_lock]);
  }
  PayLockCost(txn);
}

void IncrementalSimulator::PayLockCost(Txn* txn) {
  // One lock's request/set/release cost, shared by all processors at
  // preemptive priority (same sharing rule as the conservative engines,
  // scaled to a single lock): a disk-pool lock epoch, then a CPU-pool one.
  const double io_share = cfg_.liotime / static_cast<double>(cfg_.npros);
  if (io_share <= 0.0) {
    PayLockCpuCost(txn);
    return;
  }
  io_->SubmitShared(io_share, [this, txn] { PayLockCpuCost(txn); });
}

void IncrementalSimulator::PayLockCpuCost(Txn* txn) {
  const double cpu_share = cfg_.lcputime / static_cast<double>(cfg_.npros);
  if (cpu_share <= 0.0) {
    OnLockCostPaid(txn);
    return;
  }
  cpu_->SubmitShared(cpu_share, [this, txn] { OnLockCostPaid(txn); });
}

void IncrementalSimulator::OnLockCostPaid(Txn* txn) {
  if (txn->doomed) {
    // Wounded while paying the lock cost: abort here, before touching the
    // table again (a doomed transaction must never queue).
    AbortTxn(txn, /*waiting=*/false);
    if (sim::invariants::DeepAuditEnabled()) CheckConsistency();
    return;
  }
  const int64_t granule = txn->granules[txn->next_lock];
  const WaitQueueLockTable::AcquireResult result =
      table_->Acquire(txn->id, granule, txn->mode);
  if (result == WaitQueueLockTable::AcquireResult::kGranted) {
    if (options_.trace != nullptr) {
      options_.trace->Record(sim_.Now(), txn->id,
                             sim::TraceEventType::kLockGranted, granule);
    }
    if (auto* prof = options_.obs.contention) prof->OnGrant(granule);
    DoStageWork(txn);
    return;
  }
  // Queued: the transaction now waits while holding its earlier locks.
  ++lock_waits_;
  if (ctr_lock_denials_ != nullptr) ctr_lock_denials_->Increment();
  if (options_.trace != nullptr) {
    options_.trace->Record(sim_.Now(), txn->id,
                           sim::TraceEventType::kLockDenied, granule);
  }
  --running_count_;
  ++waiting_count_;
  UpdateQueueStats();
  ResolveConflict(txn, granule);
  if (sim::invariants::DeepAuditEnabled()) CheckConsistency();
}

void IncrementalSimulator::ResolveConflict(Txn* txn, int64_t granule) {
  const ConflictRequest req{txn->id, granule, txn->mode};
  const PolicyDirectory dir(this);
  bool requester_gone = false;
  // Re-ask while the requester stays queued: aborting one victim can
  // expose a new conflict shape (e.g. the next holder in a cycle). Each
  // round either aborts/dooms at least one victim or stops, so the loop
  // terminates. Under the default detect policy the first round returns
  // either nothing (no cycle) or the requester — a single iteration,
  // bit-identical to the engine's historical hard-coded check.
  while (!requester_gone && table_->IsQueued(txn->id)) {
    ConflictDecision decision = policy_->OnBlock(req, *table_, dir);
    MaybeInjectVictimFlip(seed_, &decision.victims);
    if (decision.victims.empty()) break;
    bool progressed = false;
    for (lockmgr::TxnId victim_id : decision.victims) {
      auto it = txn_by_id_.find(victim_id);
      if (it == txn_by_id_.end()) {
        // Policies may only name live transactions (holders or waiters);
        // anything else is a policy bug — or an injected fault, which the
        // cell-retry harness must contain, so fail loudly rather than
        // corrupt state.
        throw std::runtime_error(StrFormat(
            "contention policy '%s' chose victim txn %llu which does not "
            "exist",
            ContentionPolicyName(policy_->kind()),
            (unsigned long long)victim_id));
      }
      Txn* victim = it->second;
      if (victim->doomed) continue;
      const bool is_requester = victim == txn;
      if (table_->IsQueued(victim->id)) {
        progressed = true;
        AbortTxn(victim, /*waiting=*/true);
        if (is_requester) {
          requester_gone = true;
          break;
        }
      } else if (!is_requester) {
        // A running holder cannot be yanked mid-service: doom it so it
        // aborts at its next safe point (lock cost paid / stage join).
        progressed = true;
        victim->doomed = true;
      }
      // is_requester && !queued: a victim abort above already unblocked
      // the requester mid-round; nothing left to do.
    }
    if (!progressed) break;
  }
  if (!requester_gone && table_->IsQueued(txn->id)) {
    if (auto* prof = options_.obs.contention) {
      // A genuine wait (not a victim abort): attribute it to the granule,
      // with the strongest mode held by the other holders (Supremum is
      // order-insensitive, so the unordered holder scan is safe) and the
      // length of the waits-for chain rebuilt from the table's queues
      // (holder sets shift as grants move, so stored edges would go
      // stale).
      waits_for_ = BuildWaitsForGraph(*table_);
      LockMode held = LockMode::kNL;
      for (lockmgr::TxnId holder : table_->Holders(granule)) {
        if (holder != txn->id) {
          held = Supremum(held, table_->HeldMode(holder, granule));
        }
      }
      prof->OnBlock(txn->id, granule, txn->mode, held,
                    waits_for_.ChainDepthFrom(txn->id), sim_.Now());
    }
  }
}

void IncrementalSimulator::CheckConsistency() const {
  GRANULOCK_AUDIT_CHECK_GE(running_count_, 0);
  GRANULOCK_AUDIT_CHECK_GE(waiting_count_, 0);
  GRANULOCK_AUDIT_CHECK_GE(in_backoff_, 0);
  GRANULOCK_AUDIT_CHECK_GE(admission_held_, 0);
  // Closed system: every live transaction is running, queued on a lock,
  // sleeping out a deadlock backoff, or parked by the admission
  // controller. Sacrificed transactions were replaced one-for-one, so
  // the identity survives terminal aborts.
  GRANULOCK_AUDIT_CHECK_EQ(
      live_txns_.size(),
      static_cast<size_t>(running_count_ + waiting_count_ + in_backoff_ +
                          admission_held_))
      << "live=" << live_txns_.size() << " running=" << running_count_
      << " waiting=" << waiting_count_ << " backoff=" << in_backoff_
      << " admission_held=" << admission_held_;
  GRANULOCK_AUDIT_CHECK_EQ(admission_queue_.size(),
                           static_cast<size_t>(admission_held_));
  GRANULOCK_AUDIT_CHECK_EQ(txn_by_id_.size(), live_txns_.size());
  GRANULOCK_AUDIT_CHECK_EQ(waiting_count_, table_->WaitingCount());
  table_->CheckConsistency();
  cpu_->CheckConsistency();
  io_->CheckConsistency();
  // A doomed transaction aborts at its next safe point and never queues;
  // a queued doomed transaction would deadlock against its own abort.
  for (const auto& [waiter, granule] : table_->WaitingRequests()) {
    auto it = txn_by_id_.find(waiter);
    GRANULOCK_AUDIT_CHECK(it != txn_by_id_.end())
        << "queued txn " << waiter << " is not live";
    GRANULOCK_AUDIT_CHECK(it == txn_by_id_.end() || !it->second->doomed)
        << "doomed txn " << waiter << " is queued on granule " << granule;
  }
  // Acyclicity: every cycle is detected and broken (victim abort) at the
  // instant its closing edge would appear, so between events the
  // waits-for graph rebuilt from the table has no cycle.
  lockmgr::WaitsForGraph graph;
  const auto waiting = table_->WaitingRequests();
  for (const auto& [waiter, granule] : waiting) {
    for (lockmgr::TxnId holder : table_->Holders(granule)) {
      graph.AddWait(waiter, holder);
    }
  }
  for (const auto& [waiter, granule] : waiting) {
    GRANULOCK_AUDIT_CHECK(graph.FindCycleFrom(waiter).empty())
        << "undetected deadlock cycle through txn " << waiter
        << " waiting on granule " << granule;
  }
}

void IncrementalSimulator::AbortTxn(Txn* txn, bool waiting) {
  ++deadlock_aborts_;
  ++txn->restarts;
  if (ctr_deadlock_aborts_ != nullptr) ctr_deadlock_aborts_->Increment();
  if (options_.trace != nullptr) {
    options_.trace->Record(sim_.Now(), txn->id,
                           sim::TraceEventType::kAborted, txn->restarts);
  }
  if (waiting) {
    --waiting_count_;
  } else {
    --running_count_;  // doomed victim aborting at a safe point
  }
  const bool sacrifice = governor_->ShouldSacrifice(txn->restarts);
  if (!sacrifice) ++in_backoff_;
  if (auto* prof = options_.obs.contention) {
    // Close any open wait (no-op for the usual instant-abort victim, whose
    // wait was never recorded as a genuine block).
    prof->OnUnblock(txn->id, sim_.Now());
  }
  txn->doomed = false;
  const std::vector<lockmgr::TxnId> granted = table_->Abort(txn->id);
  UpdateQueueStats();
  HandleGrants(granted);
  if (sacrifice) {
    SacrificeTxn(txn);
    return;
  }
  ++txn_restarts_;
  // Restart from the first granule with the same parameters (all lock
  // costs are paid again) after a randomized backoff — restarting
  // immediately would re-form the same cycle under heavy contention and
  // livelock the system. The governor grows the mean with each restart
  // of the same transaction (and caps it) when configured; the factor-1
  // default collapses to the historical fixed-mean draw.
  sim_.ScheduleAfter(governor_->BackoffDelay(txn->restarts, rng_),
                     [this, txn] {
                       --in_backoff_;
                       ++running_count_;
                       txn->next_lock = 0;
                       UpdateQueueStats();
                       RequestNextLock(txn);
                       if (sim::invariants::DeepAuditEnabled()) {
                         CheckConsistency();
                       }
                     });
}

void IncrementalSimulator::SacrificeTxn(Txn* txn) {
  // Terminal abort: the restart budget is spent. Replace the victim with
  // a fresh transaction (same create-then-destroy order as Complete) so
  // the closed system stays closed.
  ++txn_sacrificed_;
  if (options_.trace != nullptr) {
    options_.trace->Record(sim_.Now(), txn->id,
                           sim::TraceEventType::kCompleted,
                           /*detail=*/-1);  // -1 marks a sacrifice
  }
  Txn* fresh = CreateTransaction(sim_.Now());
  DestroyTransaction(txn);
  AdmitOrHold(fresh);
}

void IncrementalSimulator::AdmitOrHold(Txn* txn) {
  if (!admission_) {
    StartTransaction(txn);
    return;
  }
  admission_queue_.push_back(txn);
  ++admission_held_;
  admission_stat_.Update(sim_.Now(), static_cast<double>(admission_held_));
  ReleaseAdmitted();
}

void IncrementalSimulator::ReleaseAdmitted() {
  if (!admission_) return;
  while (!admission_queue_.empty() &&
         AdmittedCount() < admission_->target()) {
    Txn* txn = admission_queue_.front();
    admission_queue_.pop_front();
    --admission_held_;
    admission_stat_.Update(sim_.Now(), static_cast<double>(admission_held_));
    txn->admitted_wait = sim_.Now() - txn->arrival_time;
    StartTransaction(txn);
  }
}

int64_t IncrementalSimulator::AdmittedCount() const {
  return running_count_ + waiting_count_ + in_backoff_;
}

void IncrementalSimulator::AdmissionTick() {
  // "Blocked" = contention-induced dead time: queued on a lock OR sleeping
  // out a restart backoff. Counting only lock waiters misses the dominant
  // thrashing mode of this engine, where deadlock victims spend the
  // collapse parked in backoff rather than in wait queues.
  const int64_t admitted = AdmittedCount();
  const double blocked_fraction =
      admitted > 0 ? static_cast<double>(waiting_count_ + in_backoff_) /
                         static_cast<double>(admitted)
                   : 0.0;
  admission_->Evaluate(blocked_fraction);
  // Raising the target admits parked work immediately; lowering it only
  // stops future admissions (running transactions are never preempted).
  ReleaseAdmitted();
  const double iv = options_.contention.admission.interval;
  if (sim_.Now() + iv <= cfg_.tmax) {
    sim_.ScheduleAfter(iv, [this] { AdmissionTick(); });
  }
  if (sim::invariants::DeepAuditEnabled()) CheckConsistency();
}

void IncrementalSimulator::HandleGrants(
    const std::vector<lockmgr::TxnId>& granted) {
  for (lockmgr::TxnId id : granted) {
    auto it = txn_by_id_.find(id);
    GRANULOCK_CHECK(it != txn_by_id_.end());
    Txn* waiter = it->second;
    --waiting_count_;
    ++running_count_;
    if (auto* prof = options_.obs.contention) {
      prof->OnUnblock(waiter->id, sim_.Now());
      prof->OnGrant(waiter->granules[waiter->next_lock]);
    }
    UpdateQueueStats();
    DoStageWork(waiter);
  }
}

void IncrementalSimulator::DoStageWork(Txn* txn) {
  // Process this granule's share of the transaction's entities: the
  // entities are spread over the transaction's nodes (horizontal
  // partitioning spreads every granule across all disks), so each stage
  // fork-joins across the same node set.
  const double now = sim_.Now();
  txn->lock_wait += now - txn->lock_since;
  txn->stage_start = now;
  txn->stage_cpu_done_sum = 0.0;
  if (options_.obs.spans != nullptr) {
    options_.obs.spans->Record(txn->id, obs::Phase::kLockWait,
                               obs::kLifecycleTrack, txn->lock_since, now);
  }
  if (ctr_lock_grants_ != nullptr) ctr_lock_grants_->Increment();
  const double stages = static_cast<double>(txn->granules.size());
  const double pu = static_cast<double>(txn->params.pu);
  const double io_share = txn->params.io_demand / (stages * pu);
  const double cpu_share = txn->params.cpu_demand / (stages * pu);
  txn->substages_remaining = txn->params.pu;
  for (int32_t node : txn->params.nodes) {
    sim::PriorityServer* io_server = &io_->node(node);
    sim::PriorityServer* cpu_server = &cpu_->node(node);
    io_server->Submit(
        ServiceClass::kTransaction, io_share,
        [this, txn, node, cpu_server, cpu_share] {
          const double io_done = sim_.Now();
          txn->io_span_sum += io_done - txn->stage_start;
          if (options_.obs.spans != nullptr) {
            options_.obs.spans->Record(txn->id, obs::Phase::kIoService,
                                       node, txn->stage_start, io_done);
          }
          cpu_server->Submit(ServiceClass::kTransaction, cpu_share,
                             [this, txn, node, io_done] {
                               const double cpu_done = sim_.Now();
                               txn->cpu_span_sum += cpu_done - io_done;
                               txn->stage_cpu_done_sum += cpu_done;
                               if (options_.obs.spans != nullptr) {
                                 options_.obs.spans->Record(
                                     txn->id, obs::Phase::kCpuService, node,
                                     io_done, cpu_done);
                                 txn->sub_cpu_done.emplace_back(node,
                                                                cpu_done);
                               }
                               OnStageDone(txn);
                             });
        });
  }
}

void IncrementalSimulator::OnStageDone(Txn* txn) {
  GRANULOCK_CHECK_GT(txn->substages_remaining, 0);
  if (ctr_subtxns_done_ != nullptr) ctr_subtxns_done_->Increment();
  if (--txn->substages_remaining > 0) return;
  // Stage fork-join complete: every sub-stage's remaining time until now
  // is synchronization wait (zero for the last one to finish).
  const double now = sim_.Now();
  const double pu = static_cast<double>(txn->params.pu);
  txn->sync_span_sum += pu * now - txn->stage_cpu_done_sum;
  if (options_.obs.spans != nullptr) {
    for (const auto& [node, cpu_done] : txn->sub_cpu_done) {
      options_.obs.spans->Record(txn->id, obs::Phase::kSyncWait, node,
                                 cpu_done, now);
    }
    txn->sub_cpu_done.clear();
  }
  if (txn->doomed) {
    // Wounded while processing this stage: abort at the join, after the
    // sync accounting above, instead of requesting the next lock.
    AbortTxn(txn, /*waiting=*/false);
    if (sim::invariants::DeepAuditEnabled()) CheckConsistency();
    return;
  }
  ++txn->next_lock;
  if (txn->next_lock < txn->granules.size()) {
    txn->lock_since = now;
    RequestNextLock(txn);
    return;
  }
  Complete(txn);
}

void IncrementalSimulator::Complete(Txn* txn) {
  const std::vector<lockmgr::TxnId> granted = table_->ReleaseAll(txn->id);
  --running_count_;
  ++totcom_;
  const double now = sim_.Now();
  const double response = now - txn->arrival_time;
  response_.Add(response);
  response_quantiles_.Add(response);
  const double pu = static_cast<double>(txn->params.pu);
  phase_pending_.Add(txn->admitted_wait);
  phase_lock_.Add(txn->lock_wait);
  phase_io_.Add(txn->io_span_sum / pu);
  phase_cpu_.Add(txn->cpu_span_sum / pu);
  phase_sync_.Add(txn->sync_span_sum / pu);
  if (ctr_txn_completed_ != nullptr) ctr_txn_completed_->Increment();
  if (hist_response_ != nullptr) hist_response_->Observe(response);
  if (options_.obs.spans != nullptr) {
    options_.obs.spans->TxnComplete(txn->id, txn->arrival_time, now,
                                    txn->params.pu);
  }
  if (options_.trace != nullptr) {
    options_.trace->Record(sim_.Now(), txn->id,
                           sim::TraceEventType::kCompleted,
                           static_cast<int64_t>(txn->granules.size()));
  }
  UpdateQueueStats();
  HandleGrants(granted);
  // A completion frees an MPL slot; drain the admission queue into it
  // (no-op when the controller is disabled or nothing is parked).
  ReleaseAdmitted();
  if (cfg_.think_time > 0.0) {
    sim_.ScheduleAfter(rng_.Exponential(cfg_.think_time), [this] {
      AdmitOrHold(CreateTransaction(sim_.Now()));
    });
  } else {
    Txn* fresh = CreateTransaction(sim_.Now());
    DestroyTransaction(txn);
    AdmitOrHold(fresh);
    if (sim::invariants::DeepAuditEnabled()) CheckConsistency();
    return;
  }
  DestroyTransaction(txn);
  if (sim::invariants::DeepAuditEnabled()) CheckConsistency();
}

}  // namespace granulock::db
