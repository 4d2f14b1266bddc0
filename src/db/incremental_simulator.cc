#include "db/incremental_simulator.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "db/granule_selector.h"
#include "sim/invariants.h"
#include "util/logging.h"
#include "util/strings.h"

namespace granulock::db {

using lockmgr::LockMode;
using lockmgr::WaitQueueLockTable;
using sim::ServiceClass;

/// One live transaction under claim-as-needed locking. The granule list is
/// acquired in (shuffled) order; `next_lock` indexes the stage being
/// worked on.
///
/// There is no pending queue: `pending_wait` is the time spent parked in
/// the admission queue before starting (0 when admission control is
/// disabled), and `lock_wait` absorbs everything between stages:
/// lock-cost service, wait-queue time, and deadlock abort/backoff. Re-run
/// stages after an abort occupy fresh wall-clock, so the per-txn identity
/// pending + lock + io/pu + cpu/pu + sync/pu = response still holds.
struct IncrementalSimulator::Txn : core::TxnCore {
  LockMode mode = LockMode::kX;
  std::vector<int64_t> granules;  // acquisition order (shuffled)
  size_t next_lock = 0;
  int64_t restarts = 0;
  /// Wounded by a contention policy while running: aborts at its next
  /// safe point (lock cost paid / stage join) instead of proceeding.
  bool doomed = false;
  double sync_span_sum = 0.0;  // summed over stages

  void Reset() {
    TxnCore::Reset();
    mode = LockMode::kX;
    granules.clear();
    next_lock = 0;
    restarts = 0;
    doomed = false;
    sync_span_sum = 0.0;
  }
};

IncrementalSimulator::IncrementalSimulator(model::SystemConfig cfg,
                                           workload::WorkloadSpec spec,
                                           uint64_t seed, Options options)
    : cfg_(std::move(cfg)),
      spec_(std::move(spec)),
      options_(options),
      kernel_(cfg_, options_.obs, options_.trace, options_.watchdog),
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
  GRANULOCK_RETURN_NOT_OK(kernel_.Begin(&spec_));
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
  if (options_.obs.registry != nullptr) {
    ctr_deadlock_aborts_ =
        options_.obs.registry->GetCounter("engine.deadlock_aborts");
  }
  kernel_.Open<&IncrementalSimulator::ContentionSample>(this,
                                                        /*imputed=*/false);
  if (options_.contention.admission.enabled) {
    // A *regular* event chain: the controller changes which transactions
    // run and when, by design. With admission disabled no controller
    // exists and no event is ever scheduled, so the run is bit-identical
    // to one built before the controller did.
    admission_.emplace(options_.contention.admission, cfg_.ntrans);
    const double iv = options_.contention.admission.interval;
    if (iv <= cfg_.tmax) {
      kernel_.sim().ScheduleAt(iv, [this] { AdmissionTick(); });
    }
  }
  core::SimulationMetrics m =
      kernel_.RunToHorizon<&IncrementalSimulator::Arrive>(this);
  // Admission parking is the claim-as-needed analogue of the conservative
  // engines' pending queue; without the controller there is none.
  m.avg_pending = m.avg_admission_held;
  return m;
}

double IncrementalSimulator::ContentionSample(
    core::ClosedSystemKernel::Edges* edges) const {
  for (const auto& [waiter, granule] : table_->WaitingRequests()) {
    for (lockmgr::TxnId holder : table_->Holders(granule)) {
      if (holder != waiter) edges->emplace_back(waiter, holder);
    }
  }
  return cfg_.ltot > 0
             ? std::min(1.0, static_cast<double>(table_->LockedGranules()) /
                                 static_cast<double>(cfg_.ltot))
             : 0.0;
}

void IncrementalSimulator::Arrive() { AdmitOrHold(CreateTransaction()); }

IncrementalSimulator::Txn* IncrementalSimulator::CreateTransaction() {
  Txn* txn = txns_.Acquire();
  kernel_.InitTxn(txn, rng_);
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
  txn_by_id_.emplace(txn->id, txn);
  return txn;
}

void IncrementalSimulator::DestroyTransaction(Txn* txn) {
  txn_by_id_.erase(txn->id);
  txns_.Release(txn);
}

void IncrementalSimulator::UpdateQueueStats() {
  kernel_.SetQueueLengths(static_cast<double>(running_count_),
                          static_cast<double>(waiting_count_), 0.0);
}

void IncrementalSimulator::StartTransaction(Txn* txn) {
  txn->next_lock = 0;
  txn->lock_since = kernel_.Now();
  ++running_count_;
  UpdateQueueStats();
  RequestNextLock(txn);
}

void IncrementalSimulator::RequestNextLock(Txn* txn) {
  GRANULOCK_CHECK_LT(txn->next_lock, txn->granules.size());
  kernel_.CountLockRequest(txn->id, txn->granules[txn->next_lock]);
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
  kernel_.io().SubmitShared(io_share, [this, txn] { PayLockCpuCost(txn); });
}

void IncrementalSimulator::PayLockCpuCost(Txn* txn) {
  const double cpu_share = cfg_.lcputime / static_cast<double>(cfg_.npros);
  if (cpu_share <= 0.0) {
    OnLockCostPaid(txn);
    return;
  }
  kernel_.cpu().SubmitShared(cpu_share, [this, txn] { OnLockCostPaid(txn); });
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
    kernel_.Trace(txn->id, sim::TraceEventType::kLockGranted, granule);
    if (auto* prof = options_.obs.contention) prof->OnGrant(granule);
    DoStageWork(txn);
    return;
  }
  // Queued: the transaction now waits while holding its earlier locks.
  kernel_.CountDenial(txn->id, granule);
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
                    waits_for_.ChainDepthFrom(txn->id), kernel_.Now());
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
      txns_.live(),
      static_cast<size_t>(running_count_ + waiting_count_ + in_backoff_ +
                          admission_held_))
      << "live=" << txns_.live() << " running=" << running_count_
      << " waiting=" << waiting_count_ << " backoff=" << in_backoff_
      << " admission_held=" << admission_held_;
  GRANULOCK_AUDIT_CHECK_EQ(admission_queue_.size(),
                           static_cast<size_t>(admission_held_));
  GRANULOCK_AUDIT_CHECK_EQ(txn_by_id_.size(), txns_.live());
  GRANULOCK_AUDIT_CHECK_EQ(waiting_count_, table_->WaitingCount());
  table_->CheckConsistency();
  kernel_.CheckConsistency();
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
  ++kernel_.window().deadlock_aborts;
  ++txn->restarts;
  if (ctr_deadlock_aborts_ != nullptr) ctr_deadlock_aborts_->Increment();
  kernel_.Trace(txn->id, sim::TraceEventType::kAborted, txn->restarts);
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
    prof->OnUnblock(txn->id, kernel_.Now());
  }
  txn->doomed = false;
  const std::vector<lockmgr::TxnId> granted = table_->Abort(txn->id);
  UpdateQueueStats();
  HandleGrants(granted);
  if (sacrifice) {
    SacrificeTxn(txn);
    return;
  }
  ++kernel_.window().txn_restarts;
  // Restart from the first granule with the same parameters (all lock
  // costs are paid again) after a randomized backoff — restarting
  // immediately would re-form the same cycle under heavy contention and
  // livelock the system. The governor grows the mean with each restart
  // of the same transaction (and caps it) when configured; the factor-1
  // default collapses to the historical fixed-mean draw.
  kernel_.sim().ScheduleAfter(
      governor_->BackoffDelay(txn->restarts, rng_), [this, txn] {
        --in_backoff_;
        ++running_count_;
        txn->next_lock = 0;
        UpdateQueueStats();
        RequestNextLock(txn);
        if (sim::invariants::DeepAuditEnabled()) CheckConsistency();
      });
}

void IncrementalSimulator::SacrificeTxn(Txn* txn) {
  // Terminal abort: the restart budget is spent. Replace the victim with
  // a fresh transaction (same create-then-destroy order as Complete) so
  // the closed system stays closed.
  ++kernel_.window().txn_sacrificed;
  kernel_.Trace(txn->id, sim::TraceEventType::kCompleted,
                /*detail=*/-1);  // -1 marks a sacrifice
  Txn* fresh = CreateTransaction();
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
  kernel_.window().admission_held.Update(
      kernel_.Now(), static_cast<double>(admission_held_));
  ReleaseAdmitted();
}

void IncrementalSimulator::ReleaseAdmitted() {
  if (!admission_) return;
  while (!admission_queue_.empty() &&
         AdmittedCount() < admission_->target()) {
    Txn* txn = admission_queue_.front();
    admission_queue_.pop_front();
    --admission_held_;
    kernel_.window().admission_held.Update(
        kernel_.Now(), static_cast<double>(admission_held_));
    txn->pending_wait = kernel_.Now() - txn->arrival_time;
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
  if (kernel_.Now() + iv <= cfg_.tmax) {
    kernel_.sim().ScheduleAfter(iv, [this] { AdmissionTick(); });
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
      prof->OnUnblock(waiter->id, kernel_.Now());
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
  kernel_.BeginStage(txn);
  const double stages = static_cast<double>(txn->granules.size());
  const double pu = static_cast<double>(txn->params.pu);
  kernel_.ForkJoin<&IncrementalSimulator::OnStageDone>(
      this, txn, txn->params.io_demand / (stages * pu),
      txn->params.cpu_demand / (stages * pu));
}

void IncrementalSimulator::OnStageDone(Txn* txn) {
  // Every sub-stage's remaining time until the join is synchronization
  // wait (zero for the last one to finish).
  const double now = kernel_.Now();
  const double pu = static_cast<double>(txn->params.pu);
  txn->sync_span_sum += pu * now - txn->cpu_done_sum;
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
  kernel_.RecordCompletion(
      *txn, txn->sync_span_sum / static_cast<double>(txn->params.pu));
  kernel_.Trace(txn->id, sim::TraceEventType::kCompleted,
                static_cast<int64_t>(txn->granules.size()));
  UpdateQueueStats();
  HandleGrants(granted);
  // A completion frees an MPL slot; drain the admission queue into it
  // (no-op when the controller is disabled or nothing is parked).
  ReleaseAdmitted();
  if (cfg_.think_time > 0.0) {
    kernel_.sim().ScheduleAfter(rng_.Exponential(cfg_.think_time),
                                [this] { Arrive(); });
  } else {
    Txn* fresh = CreateTransaction();
    DestroyTransaction(txn);
    AdmitOrHold(fresh);
    if (sim::invariants::DeepAuditEnabled()) CheckConsistency();
    return;
  }
  DestroyTransaction(txn);
  if (sim::invariants::DeepAuditEnabled()) CheckConsistency();
}

}  // namespace granulock::db
