#include "db/transfer_simulator.h"

#include <algorithm>
#include <utility>

#include "db/granule_selector.h"
#include "sim/invariants.h"
#include "util/logging.h"

namespace granulock::db {

using lockmgr::LockMode;
using lockmgr::LockRequest;
using sim::ServiceClass;

/// One in-flight transfer: debit `from`, credit `to` by `amount`. The
/// balances read during the read phase are held in `read_from`/`read_to`
/// until the write phase applies them — the window in which a concurrent
/// unprotected transfer can be lost.
struct TransferSimulator::Txn {
  lockmgr::TxnId id = 0;
  double arrival_time = 0.0;
  int64_t from = 0;
  int64_t to = 0;
  int64_t amount = 0;
  int64_t read_from = 0;
  int64_t read_to = 0;
  int64_t phase_remaining = 0;
  std::vector<Txn*> blocked;

  /// Returns the transaction to its freshly-constructed state while
  /// keeping the vector's capacity — pooled reuse must behave exactly
  /// like a new `Txn` minus the allocations.
  void Reset() {
    id = 0;
    arrival_time = 0.0;
    from = 0;
    to = 0;
    amount = 0;
    read_from = 0;
    read_to = 0;
    phase_remaining = 0;
    blocked.clear();
  }
};

TransferSimulator::TransferSimulator(model::SystemConfig cfg, uint64_t seed,
                                     Options options)
    : cfg_(std::move(cfg)),
      options_(options),
      kernel_(cfg_, obs::Hooks{nullptr, nullptr, nullptr, options_.contention},
              /*trace=*/nullptr, /*watchdog=*/nullptr),
      rng_(seed) {}

TransferSimulator::TransferSimulator(model::SystemConfig cfg, uint64_t seed)
    : TransferSimulator(std::move(cfg), seed, Options{}) {}

TransferSimulator::~TransferSimulator() = default;

Result<TransferSimulator::Report> TransferSimulator::RunOnce(
    const model::SystemConfig& cfg, uint64_t seed, Options options) {
  TransferSimulator simulator(cfg, seed, options);
  return simulator.Run();
}

Result<TransferSimulator::Report> TransferSimulator::RunOnce(
    const model::SystemConfig& cfg, uint64_t seed) {
  return RunOnce(cfg, seed, Options{});
}

int64_t TransferSimulator::GranuleOfAccount(int64_t account) const {
  return GranuleOfEntity(account, cfg_.dbsize, cfg_.ltot);
}

Result<TransferSimulator::Report> TransferSimulator::Run() {
  GRANULOCK_RETURN_NOT_OK(kernel_.Begin(/*spec=*/nullptr));
  if (cfg_.dbsize < 2) {
    return Status::InvalidArgument("transfers need at least two accounts");
  }
  if (options_.hot_fraction < 0.0 || options_.hot_fraction > 1.0) {
    return Status::InvalidArgument("hot_fraction must be in [0, 1]");
  }
  if (options_.zipf_theta < 0.0 || options_.zipf_theta >= 1.0) {
    return Status::InvalidArgument("zipf_theta must be in [0, 1)");
  }
  if (options_.zipf_theta > 0.0) {
    zipf_ = std::make_unique<ZipfGenerator>(cfg_.dbsize, options_.zipf_theta);
  }

  store_ = std::make_unique<storage::RecordStore>(cfg_.dbsize, cfg_.npros,
                                                  options_.initial_balance);
  table_ = std::make_unique<lockmgr::LockTable>(cfg_.ltot);
  const int64_t initial_total = store_->Total();

  kernel_.Open<&TransferSimulator::ContentionSample>(this, /*imputed=*/false);
  Report report;
  report.metrics = kernel_.RunToHorizon<&TransferSimulator::Arrive>(this);
  report.initial_total = initial_total;
  report.final_total = store_->Total();
  report.in_flight_imbalance = net_applied_;
  report.conserved =
      report.final_total == report.initial_total + report.in_flight_imbalance;
  report.writes_applied = store_->write_count();
  return report;
}

void TransferSimulator::Arrive() {
  pending_.push_back(CreateTransaction());
  UpdateQueueStats();
  PumpLockManager();
}

TransferSimulator::Txn* TransferSimulator::CreateTransaction() {
  Txn* txn = txns_.Acquire();
  txn->id = kernel_.NextTxnId();
  txn->arrival_time = kernel_.Now();
  const auto draw_account = [this] {
    return zipf_ ? zipf_->Sample(rng_) : rng_.UniformInt(0, cfg_.dbsize - 1);
  };
  txn->from =
      rng_.Bernoulli(options_.hot_fraction) ? 0 : draw_account();
  do {
    txn->to = draw_account();
  } while (txn->to == txn->from);
  txn->amount = rng_.UniformInt(1, 10);
  return txn;
}

void TransferSimulator::UpdateQueueStats() {
  kernel_.SetQueueLengths(static_cast<double>(active_.size()),
                          static_cast<double>(blocked_count_),
                          static_cast<double>(pending_.size()));
}

void TransferSimulator::PumpLockManager() {
  while (!pending_.empty() && outstanding_lock_requests_ == 0) {
    Txn* txn = pending_.front();
    pending_.pop_front();
    UpdateQueueStats();
    if (options_.concurrency_control == ConcurrencyControl::kNoLocking) {
      // Straight to execution — this is how updates get lost.
      active_.emplace(txn->id, txn);
      UpdateQueueStats();
      StartReads(txn);
      continue;
    }
    BeginLockRequest(txn);
  }
  if (sim::invariants::DeepAuditEnabled()) CheckConsistency();
}

void TransferSimulator::CheckConsistency() const {
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
    for (const Txn* waiter : txn->blocked) {
      GRANULOCK_AUDIT_CHECK(waiter->blocked.empty())
          << "blocked txn " << waiter->id
          << " blocks others: waits-for chain under conservative locking";
    }
  }
  GRANULOCK_AUDIT_CHECK_EQ(static_cast<size_t>(blocked_count_),
                           blocked_from_lists);
  if (options_.concurrency_control ==
      ConcurrencyControl::kConservativeLocking) {
    GRANULOCK_AUDIT_CHECK_EQ(
        static_cast<size_t>(table_->ActiveTransactions()), active_.size());
    table_->CheckConsistency();
  }
  kernel_.CheckConsistency();
}

void TransferSimulator::BeginLockRequest(Txn* txn) {
  ++outstanding_lock_requests_;
  // Lock cost per the paper's model: per-lock I/O then CPU, shared across
  // all nodes at preemptive priority.
  const int64_t granule_a = GranuleOfAccount(txn->from);
  const int64_t granule_b = GranuleOfAccount(txn->to);
  const double locks = granule_a == granule_b ? 1.0 : 2.0;
  kernel_.CountLockRequest(txn->id, static_cast<int64_t>(locks));
  const double npros = static_cast<double>(cfg_.npros);
  const double io_share = locks * cfg_.liotime / npros;
  const double cpu_share = locks * cfg_.lcputime / npros;
  if (io_share <= 0.0) {
    StartLockCpuPhase(txn, cpu_share);
    return;
  }
  kernel_.io().SubmitShared(io_share, [this, txn, cpu_share] {
    StartLockCpuPhase(txn, cpu_share);
  });
}

void TransferSimulator::StartLockCpuPhase(Txn* txn, double cpu_share) {
  if (cpu_share <= 0.0) {
    FinishLockRequest(txn);
    return;
  }
  kernel_.cpu().SubmitShared(cpu_share,
                             [this, txn] { FinishLockRequest(txn); });
}

void TransferSimulator::FinishLockRequest(Txn* txn) {
  --outstanding_lock_requests_;
  const int64_t granule_a = GranuleOfAccount(txn->from);
  const int64_t granule_b = GranuleOfAccount(txn->to);
  std::vector<LockRequest> requests{{granule_a, LockMode::kX},
                                    {granule_b, LockMode::kX}};
  auto* prof = options_.contention;
  lockmgr::ConflictInfo conflict;
  const auto blocker = table_->TryAcquireAll(
      txn->id, requests, prof != nullptr ? &conflict : nullptr);
  if (blocker.has_value()) {
    kernel_.CountDenial(txn->id, static_cast<int64_t>(*blocker));
    auto it = active_.find(*blocker);
    GRANULOCK_CHECK(it != active_.end());
    it->second->blocked.push_back(txn);
    ++blocked_count_;
    if (prof != nullptr) {
      // Conservative locking cannot chain waiters, so the depth is 1.
      prof->OnBlock(txn->id, conflict.granule, conflict.requested,
                    conflict.held, /*chain_depth=*/1, kernel_.Now());
    }
    UpdateQueueStats();
  } else {
    if (prof != nullptr) {
      prof->OnGrant(granule_a);
      if (granule_b != granule_a) prof->OnGrant(granule_b);
    }
    active_.emplace(txn->id, txn);
    UpdateQueueStats();
    StartReads(txn);
  }
  PumpLockManager();
}

double TransferSimulator::ContentionSample(
    core::ClosedSystemKernel::Edges* edges) const {
  for (const auto& [id, holder] : active_) {
    for (const Txn* waiter : holder->blocked) {
      edges->emplace_back(waiter->id, id);
    }
  }
  return cfg_.ltot > 0
             ? std::min(1.0, static_cast<double>(table_->LockedGranules()) /
                                 static_cast<double>(cfg_.ltot))
             : 0.0;
}

void TransferSimulator::StartReads(Txn* txn) {
  txn->phase_remaining = 2;
  const auto read = [this, txn](int64_t account, int64_t* slot) {
    kernel_.io().node(store_->NodeOf(account)).Submit(
        ServiceClass::kTransaction, cfg_.iotime,
        [this, txn, account, slot] {
          // The balance is captured at read-completion time; it can go
          // stale before the write phase applies it.
          *slot = store_->Read(account);
          OnReadsDone(txn);
        });
  };
  read(txn->from, &txn->read_from);
  read(txn->to, &txn->read_to);
}

void TransferSimulator::OnReadsDone(Txn* txn) {
  if (--txn->phase_remaining > 0) return;
  // Compute phase: validate and build the new balances on the debit
  // account's CPU.
  kernel_.cpu().node(store_->NodeOf(txn->from)).Submit(
      ServiceClass::kTransaction, 2.0 * cfg_.cputime,
      [this, txn] { StartWrites(txn); });
}

void TransferSimulator::StartWrites(Txn* txn) {
  const auto write = [this, txn](int64_t account, int64_t value,
                                 int64_t delta) {
    kernel_.io().node(store_->NodeOf(account)).Submit(
        ServiceClass::kTransaction, cfg_.iotime,
        [this, txn, account, value, delta] {
          store_->Write(account, value);
          net_applied_ += delta;
          if (--txn->phase_remaining == 0) Complete(txn);
        });
  };
  // Track the delta each applied write intends, so the integrity check
  // can net out transfers cut off mid-write by the simulation horizon.
  txn->phase_remaining = 2;
  write(txn->from, txn->read_from - txn->amount, -txn->amount);
  write(txn->to, txn->read_to + txn->amount, txn->amount);
}

void TransferSimulator::Complete(Txn* txn) {
  if (options_.concurrency_control ==
      ConcurrencyControl::kConservativeLocking) {
    table_->ReleaseAll(txn->id);
  }
  auto it = active_.find(txn->id);
  GRANULOCK_CHECK(it != active_.end());
  active_.erase(it);

  kernel_.CountCompletion(kernel_.Now() - txn->arrival_time);

  blocked_count_ -= static_cast<int64_t>(txn->blocked.size());
  for (Txn* released : txn->blocked) {
    if (auto* prof = options_.contention) {
      prof->OnUnblock(released->id, kernel_.Now());
    }
    pending_.push_back(released);
  }
  txn->blocked.clear();

  pending_.push_back(CreateTransaction());

  txns_.Release(txn);
  UpdateQueueStats();
  PumpLockManager();
}

}  // namespace granulock::db
