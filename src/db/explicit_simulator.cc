#include "db/explicit_simulator.h"

#include <algorithm>
#include <utility>

#include "sim/invariants.h"
#include "util/logging.h"

namespace granulock::db {

using lockmgr::HierRequest;
using lockmgr::LockMode;
using lockmgr::LockRequest;
using lockmgr::ObjectId;
using sim::ServiceClass;

/// One live transaction with its concrete lock set. The set is drawn once
/// (a transaction's data needs do not change across retries); the lock
/// *cost* is paid on every attempt, as in the paper.
struct ExplicitSimulator::Txn : core::TxnCore {
  // Fan-in for the current lock-processing phase (I/O, then CPU); the two
  // phases never overlap, so one field serves both without allocating.
  int64_t lock_fanin_remaining = 0;
  std::vector<Txn*> blocked;

  /// Granules this transaction locks (kFlat, or kHierarchical fine path).
  std::vector<int64_t> granules;
  /// True if this transaction takes one database-level lock instead.
  bool coarse = false;
  /// S for read-only transactions, X otherwise.
  LockMode mode = LockMode::kX;
  /// Locks actually set per attempt (drives the lock cost).
  double locks_set = 0.0;

  void Reset() {
    TxnCore::Reset();
    lock_fanin_remaining = 0;
    blocked.clear();
    granules.clear();
    coarse = false;
    mode = LockMode::kX;
    locks_set = 0.0;
  }
};

ExplicitSimulator::ExplicitSimulator(model::SystemConfig cfg,
                                     workload::WorkloadSpec spec,
                                     uint64_t seed, Options options)
    : cfg_(std::move(cfg)),
      spec_(std::move(spec)),
      options_(options),
      kernel_(cfg_, options_.obs, options_.trace, options_.watchdog),
      rng_(seed) {}

ExplicitSimulator::ExplicitSimulator(model::SystemConfig cfg,
                                     workload::WorkloadSpec spec,
                                     uint64_t seed)
    : ExplicitSimulator(std::move(cfg), std::move(spec), seed, Options{}) {}

ExplicitSimulator::~ExplicitSimulator() = default;

Result<core::SimulationMetrics> ExplicitSimulator::RunOnce(
    const model::SystemConfig& cfg, const workload::WorkloadSpec& spec,
    uint64_t seed, Options options) {
  ExplicitSimulator simulator(cfg, spec, seed, options);
  return simulator.Run();
}

Result<core::SimulationMetrics> ExplicitSimulator::RunOnce(
    const model::SystemConfig& cfg, const workload::WorkloadSpec& spec,
    uint64_t seed) {
  return RunOnce(cfg, spec, seed, Options{});
}

Result<core::SimulationMetrics> ExplicitSimulator::Run() {
  GRANULOCK_RETURN_NOT_OK(kernel_.Begin(&spec_));
  if (options_.read_fraction < 0.0 || options_.read_fraction > 1.0) {
    return Status::InvalidArgument("read_fraction must be in [0, 1]");
  }
  if (options_.coarse_threshold < 0) {
    return Status::InvalidArgument("coarse_threshold must be >= 0");
  }

  switch (options_.strategy) {
    case LockingStrategy::kFlat:
      flat_table_ = std::make_unique<lockmgr::LockTable>(cfg_.ltot);
      break;
    case LockingStrategy::kHierarchical: {
      if (options_.num_files < 1 || options_.num_files > cfg_.ltot) {
        return Status::InvalidArgument(
            "num_files must be in [1, ltot] for hierarchical locking");
      }
      if (options_.escalation_threshold < 0) {
        return Status::InvalidArgument(
            "escalation_threshold must be >= 0");
      }
      lockmgr::HierarchicalLockManager::Options hier;
      hier.num_granules = cfg_.ltot;
      hier.num_files = options_.num_files;
      hier.escalation_threshold = options_.escalation_threshold;
      hier_table_ =
          std::make_unique<lockmgr::HierarchicalLockManager>(hier);
      break;
    }
  }

  kernel_.Open<&ExplicitSimulator::ContentionSample>(this, /*imputed=*/false);
  return kernel_.RunToHorizon<&ExplicitSimulator::Arrive>(this);
}

double ExplicitSimulator::ContentionSample(
    core::ClosedSystemKernel::Edges* edges) const {
  for (const auto& [id, holder] : active_) {
    for (const Txn* waiter : holder->blocked) {
      edges->emplace_back(waiter->id, id);
    }
  }
  const int64_t locked = flat_table_ != nullptr
                             ? flat_table_->LockedGranules()
                             : hier_table_->LockedGranules();
  return cfg_.ltot > 0 ? std::min(1.0, static_cast<double>(locked) /
                                           static_cast<double>(cfg_.ltot))
                       : 0.0;
}

void ExplicitSimulator::Arrive() {
  EnqueuePending(CreateTransaction());
  PumpLockManager();
}

void ExplicitSimulator::EnqueuePending(Txn* txn) {
  txn->pending_since = kernel_.Now();
  pending_.push_back(txn);
  UpdateQueueStats();
}

ExplicitSimulator::Txn* ExplicitSimulator::CreateTransaction() {
  Txn* txn = txns_.Acquire();
  kernel_.InitTxn(txn, rng_);
  txn->mode =
      rng_.Bernoulli(options_.read_fraction) ? LockMode::kS : LockMode::kX;
  txn->coarse = options_.strategy == LockingStrategy::kHierarchical &&
                options_.coarse_threshold > 0 &&
                txn->params.nu >= options_.coarse_threshold;
  if (txn->coarse) {
    txn->locks_set = 1.0;  // one database-level lock
  } else {
    txn->granules = SelectGranules(spec_.placement, cfg_.dbsize, cfg_.ltot,
                                   txn->params.nu, rng_);
    if (options_.strategy == LockingStrategy::kHierarchical) {
      // Hierarchical transactions pay for every lock actually set:
      // granule locks plus the derived file/root intention locks, after
      // escalation.
      std::vector<lockmgr::HierRequest> requests;
      requests.reserve(txn->granules.size());
      for (int64_t g : txn->granules) {
        requests.push_back(
            lockmgr::HierRequest{lockmgr::ObjectId::Granule(g), txn->mode});
      }
      txn->locks_set =
          static_cast<double>(hier_table_->EffectiveLockSet(requests).size());
    } else {
      txn->locks_set = static_cast<double>(txn->granules.size());
    }
  }
  return txn;
}

void ExplicitSimulator::UpdateQueueStats() {
  kernel_.SetQueueLengths(static_cast<double>(active_.size()),
                          static_cast<double>(blocked_count_),
                          static_cast<double>(pending_.size()));
}

void ExplicitSimulator::PumpLockManager() {
  while (!pending_.empty() &&
         (!options_.serialize_lock_manager ||
          outstanding_lock_requests_ == 0)) {
    Txn* txn = pending_.front();
    pending_.pop_front();
    UpdateQueueStats();
    BeginLockRequest(txn);
  }
  if (sim::invariants::DeepAuditEnabled()) CheckConsistency();
}

void ExplicitSimulator::CheckConsistency() const {
  GRANULOCK_AUDIT_CHECK_GE(outstanding_lock_requests_, 0);
  GRANULOCK_AUDIT_CHECK_GE(blocked_count_, 0);
  GRANULOCK_AUDIT_CHECK_EQ(
      txns_.live(),
      pending_.size() + static_cast<size_t>(outstanding_lock_requests_) +
          static_cast<size_t>(blocked_count_) + active_.size())
      << "live=" << txns_.live() << " pending=" << pending_.size()
      << " in_lock=" << outstanding_lock_requests_
      << " blocked=" << blocked_count_ << " active=" << active_.size();
  size_t blocked_from_lists = 0;
  for (const auto& [id, txn] : active_) {
    GRANULOCK_AUDIT_CHECK_EQ(id, txn->id);
    blocked_from_lists += txn->blocked.size();
    GRANULOCK_AUDIT_CHECK_GT(txn->subtxns_remaining, 0)
        << "active txn " << txn->id << " has no sub-transactions left";
    for (const Txn* waiter : txn->blocked) {
      GRANULOCK_AUDIT_CHECK(waiter->blocked.empty())
          << "blocked txn " << waiter->id
          << " blocks others: waits-for chain under conservative locking";
    }
  }
  GRANULOCK_AUDIT_CHECK_EQ(static_cast<size_t>(blocked_count_),
                           blocked_from_lists);
  // Only active transactions hold locks, and the table itself is sound.
  if (flat_table_ != nullptr) {
    GRANULOCK_AUDIT_CHECK_EQ(
        static_cast<size_t>(flat_table_->ActiveTransactions()),
        active_.size());
    flat_table_->CheckConsistency();
  }
  if (hier_table_ != nullptr) {
    GRANULOCK_AUDIT_CHECK_EQ(hier_table_->Empty(), active_.empty());
    hier_table_->CheckConsistency();
  }
  // Lock phases fan out one kLock job per node (see StartLockIoPhase), so
  // the pools' lock-epoch audit does not apply; each node audits itself.
  for (int64_t n = 0; n < cfg_.npros; ++n) {
    kernel_.cpu().node(n).CheckConsistency();
    kernel_.io().node(n).CheckConsistency();
  }
}

void ExplicitSimulator::BeginLockRequest(Txn* txn) {
  ++outstanding_lock_requests_;
  kernel_.ClosePendingWait(txn);
  kernel_.CountLockRequest(txn->id, static_cast<int64_t>(txn->locks_set));
  StartLockIoPhase(txn);
}

// Each lock phase is fanned out as one kLock job per node, whose last
// completion moves on. It is not a `ServerPool::SubmitShared` lock epoch
// because the per-node completion events are part of this engine's
// pinned `events_executed`.
void ExplicitSimulator::StartLockIoPhase(Txn* txn) {
  const double per_node =
      txn->locks_set * cfg_.liotime / static_cast<double>(cfg_.npros);
  if (per_node <= 0.0) {
    StartLockCpuPhase(txn);
    return;
  }
  txn->lock_fanin_remaining = cfg_.npros;
  for (int64_t n = 0; n < cfg_.npros; ++n) {
    kernel_.io().node(n).Submit(ServiceClass::kLock, per_node, [this, txn] {
      if (--txn->lock_fanin_remaining == 0) StartLockCpuPhase(txn);
    });
  }
}

void ExplicitSimulator::StartLockCpuPhase(Txn* txn) {
  const double per_node =
      txn->locks_set * cfg_.lcputime / static_cast<double>(cfg_.npros);
  if (per_node <= 0.0) {
    FinishLockRequest(txn);
    return;
  }
  txn->lock_fanin_remaining = cfg_.npros;
  for (int64_t n = 0; n < cfg_.npros; ++n) {
    kernel_.cpu().node(n).Submit(ServiceClass::kLock, per_node, [this, txn] {
      if (--txn->lock_fanin_remaining == 0) FinishLockRequest(txn);
    });
  }
}

namespace {

/// Maps a hierarchy object to the profiler's contention key space.
int64_t ContentionKeyOf(const ObjectId& object) {
  switch (object.level) {
    case ObjectId::Level::kGranule:
      return object.index;
    case ObjectId::Level::kFile:
      return obs::FileObjectKey(object.index);
    case ObjectId::Level::kRoot:
      return obs::kRootObjectKey;
  }
  return obs::kRootObjectKey;
}

}  // namespace

std::optional<lockmgr::TxnId> ExplicitSimulator::TryAcquire(
    Txn* txn, DenialInfo* denial) {
  switch (options_.strategy) {
    case LockingStrategy::kFlat: {
      std::vector<LockRequest> requests;
      requests.reserve(txn->granules.size());
      for (int64_t g : txn->granules) {
        requests.push_back(LockRequest{g, txn->mode});
      }
      lockmgr::ConflictInfo conflict;
      const auto blocker = flat_table_->TryAcquireAll(
          txn->id, requests, denial != nullptr ? &conflict : nullptr);
      if (blocker.has_value() && denial != nullptr) {
        *denial = DenialInfo{conflict.granule, conflict.requested,
                             conflict.held};
      }
      return blocker;
    }
    case LockingStrategy::kHierarchical: {
      std::vector<HierRequest> requests;
      if (txn->coarse) {
        requests.push_back(HierRequest{ObjectId::Root(), txn->mode});
      } else {
        requests.reserve(txn->granules.size());
        for (int64_t g : txn->granules) {
          requests.push_back(HierRequest{ObjectId::Granule(g), txn->mode});
        }
      }
      lockmgr::HierConflictInfo conflict;
      const auto blocker = hier_table_->TryAcquireAll(
          txn->id, requests, denial != nullptr ? &conflict : nullptr);
      if (blocker.has_value() && denial != nullptr) {
        *denial = DenialInfo{ContentionKeyOf(conflict.object),
                             conflict.requested, conflict.held};
      }
      return blocker;
    }
  }
  GRANULOCK_LOG(Fatal) << "unknown locking strategy";
  return std::nullopt;
}

void ExplicitSimulator::ReleaseLocks(Txn* txn) {
  switch (options_.strategy) {
    case LockingStrategy::kFlat:
      flat_table_->ReleaseAll(txn->id);
      break;
    case LockingStrategy::kHierarchical:
      hier_table_->ReleaseAll(txn->id);
      break;
  }
}

void ExplicitSimulator::FinishLockRequest(Txn* txn) {
  --outstanding_lock_requests_;
  DenialInfo denial;
  auto* prof = options_.obs.contention;
  const std::optional<lockmgr::TxnId> blocker =
      TryAcquire(txn, prof != nullptr ? &denial : nullptr);
  if (blocker.has_value()) {
    kernel_.CountDenial(txn->id, static_cast<int64_t>(*blocker));
    auto it = active_.find(*blocker);
    GRANULOCK_CHECK(it != active_.end())
        << "blocker " << *blocker << " is not active";
    it->second->blocked.push_back(txn);
    ++blocked_count_;
    if (prof != nullptr) {
      // Conservative locking cannot chain waiters, so the depth is 1.
      prof->OnBlock(txn->id, denial.key, denial.requested, denial.held,
                    /*chain_depth=*/1, kernel_.Now());
    }
    UpdateQueueStats();
  } else {
    kernel_.Trace(txn->id, sim::TraceEventType::kLockGranted,
                  static_cast<int64_t>(txn->locks_set));
    Grant(txn);
  }
  PumpLockManager();
}

void ExplicitSimulator::Grant(Txn* txn) {
  active_.emplace(txn->id, txn);
  kernel_.BeginStage(txn);
  if (auto* prof = options_.obs.contention) {
    if (options_.strategy == LockingStrategy::kHierarchical) {
      if (txn->coarse) {
        prof->OnGrant(obs::kRootObjectKey);
      } else {
        std::vector<HierRequest> requests;
        requests.reserve(txn->granules.size());
        for (int64_t g : txn->granules) {
          requests.push_back(HierRequest{ObjectId::Granule(g), txn->mode});
        }
        for (const HierRequest& req : hier_table_->EffectiveLockSet(requests)) {
          prof->OnGrant(ContentionKeyOf(req.object));
        }
      }
    } else {
      for (int64_t g : txn->granules) prof->OnGrant(g);
    }
  }
  UpdateQueueStats();
  const double pu = static_cast<double>(txn->params.pu);
  kernel_.ForkJoin<&ExplicitSimulator::Complete>(
      this, txn, txn->params.io_demand / pu, txn->params.cpu_demand / pu);
}

void ExplicitSimulator::Complete(Txn* txn) {
  ReleaseLocks(txn);
  auto it = active_.find(txn->id);
  GRANULOCK_CHECK(it != active_.end());
  active_.erase(it);
  kernel_.RecordCompletion(*txn);
  kernel_.Trace(txn->id, sim::TraceEventType::kCompleted,
                static_cast<int64_t>(txn->blocked.size()));

  // The blocked stint counts as lock wait, as in the granularity engine.
  blocked_count_ -= static_cast<int64_t>(txn->blocked.size());
  for (Txn* released : txn->blocked) {
    kernel_.Unblock(released);
    EnqueuePending(released);
  }
  txn->blocked.clear();

  if (cfg_.think_time > 0.0) {
    kernel_.sim().ScheduleAfter(rng_.Exponential(cfg_.think_time),
                                [this] { Arrive(); });
  } else {
    EnqueuePending(CreateTransaction());
  }

  txns_.Release(txn);
  UpdateQueueStats();
  PumpLockManager();
}

}  // namespace granulock::db
