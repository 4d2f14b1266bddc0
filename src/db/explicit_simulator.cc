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

/// One live transaction with its concrete lock set. The set is drawn once
/// (a transaction's data needs do not change across retries); the lock
/// *cost* is paid on every attempt, as in the paper.
struct ExplicitSimulator::Txn : core::ConservativeTxn<Txn> {
  /// Granules this transaction locks (kFlat, or kHierarchical fine path).
  std::vector<int64_t> granules;
  /// True if this transaction takes one database-level lock instead.
  bool coarse = false;
  /// S for read-only transactions, X otherwise.
  LockMode mode = LockMode::kX;
  /// Locks actually set per attempt (drives the lock cost).
  double locks_set = 0.0;

  void Reset() {
    ConservativeTxn::Reset();
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
      locking_(&kernel_),
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
  locking_.AppendWaitsFor(edges);
  const int64_t locked = flat_table_ != nullptr
                             ? flat_table_->LockedGranules()
                             : hier_table_->LockedGranules();
  return cfg_.ltot > 0 ? std::min(1.0, static_cast<double>(locked) /
                                           static_cast<double>(cfg_.ltot))
                       : 0.0;
}

void ExplicitSimulator::Arrive() {
  locking_.Enqueue(CreateTransaction());
  PumpLockManager();
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

void ExplicitSimulator::PumpLockManager() {
  locking_.Pump<&ExplicitSimulator::BeginLockRequest>(
      this, /*serialized=*/true, /*cap=*/0);
  if (sim::invariants::DeepAuditEnabled()) CheckConsistency();
}

void ExplicitSimulator::CheckConsistency() const {
  locking_.CheckConsistency(txns_.live());
  const std::vector<Txn*>& active = locking_.active();
  for (const Txn* txn : active) {
    GRANULOCK_AUDIT_CHECK_GT(txn->subtxns_remaining, 0)
        << "active txn " << txn->id << " has no sub-transactions left";
  }
  // Only active transactions hold locks, and the table itself is sound.
  if (flat_table_ != nullptr) {
    GRANULOCK_AUDIT_CHECK_EQ(
        static_cast<size_t>(flat_table_->ActiveTransactions()),
        active.size());
    flat_table_->CheckConsistency();
  }
  if (hier_table_ != nullptr) {
    GRANULOCK_AUDIT_CHECK_EQ(hier_table_->Empty(), active.empty());
    hier_table_->CheckConsistency();
  }
  kernel_.CheckConsistency();
}

void ExplicitSimulator::BeginLockRequest(Txn* txn) {
  locking_.BeginRequest(txn, static_cast<int64_t>(txn->locks_set));
  StartLockIoPhase(txn);
}

// Each lock phase is a lock epoch that ends with one event per node, as
// one kLock job per node would: the per-node completion events are part
// of this engine's pinned `events_executed`.
void ExplicitSimulator::StartLockIoPhase(Txn* txn) {
  const double per_node =
      txn->locks_set * cfg_.liotime / static_cast<double>(cfg_.npros);
  if (per_node <= 0.0) {
    StartLockCpuPhase(txn);
    return;
  }
  kernel_.io().SubmitShared(
      per_node, [this, txn] { StartLockCpuPhase(txn); },
      sim::EpochEnd::kEventPerNode);
}

void ExplicitSimulator::StartLockCpuPhase(Txn* txn) {
  const double per_node =
      txn->locks_set * cfg_.lcputime / static_cast<double>(cfg_.npros);
  if (per_node <= 0.0) {
    FinishLockRequest(txn);
    return;
  }
  kernel_.cpu().SubmitShared(
      per_node, [this, txn] { FinishLockRequest(txn); },
      sim::EpochEnd::kEventPerNode);
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
  locking_.EndRequest(txn);
  DenialInfo denial;
  auto* prof = options_.obs.contention;
  const std::optional<lockmgr::TxnId> blocker =
      TryAcquire(txn, prof != nullptr ? &denial : nullptr);
  if (blocker.has_value()) {
    locking_.Block(txn, locking_.FindActive(*blocker));
    if (prof != nullptr) {
      // Conservative locking cannot chain waiters, so the depth is 1.
      prof->OnBlock(txn->id, denial.key, denial.requested, denial.held,
                    /*chain_depth=*/1, kernel_.Now());
    }
  } else {
    Grant(txn);
  }
  PumpLockManager();
}

void ExplicitSimulator::Grant(Txn* txn) {
  locking_.Grant(txn, static_cast<int64_t>(txn->locks_set));
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
  const double pu = static_cast<double>(txn->params.pu);
  kernel_.ForkJoin<&ExplicitSimulator::Complete>(
      this, txn, txn->params.io_demand / pu, txn->params.cpu_demand / pu);
}

void ExplicitSimulator::Complete(Txn* txn) {
  ReleaseLocks(txn);
  kernel_.RecordCompletion(*txn);
  kernel_.Trace(txn->id, sim::TraceEventType::kCompleted,
                static_cast<int64_t>(txn->blocked.size()));
  locking_.Retire(txn, /*requeue_at_tail=*/true);

  if (cfg_.think_time > 0.0) {
    kernel_.sim().ScheduleAfter(rng_.Exponential(cfg_.think_time),
                                [this] { Arrive(); });
  } else {
    locking_.Enqueue(CreateTransaction());
  }

  txns_.Release(txn);
  PumpLockManager();
}

}  // namespace granulock::db
