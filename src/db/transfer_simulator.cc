#include "db/transfer_simulator.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "db/granule_selector.h"
#include "sim/invariants.h"
#include "util/logging.h"

namespace granulock::db {

using lockmgr::LockMode;
using lockmgr::LockRequest;

/// One in-flight transfer: debit `from`, credit `to` by `amount`. The
/// balances read during the read phase are held in `read_from`/`read_to`
/// until the write phase applies them — the window in which a concurrent
/// unprotected transfer can be lost. Of the kernel's fields it uses only
/// `id` and `arrival_time`, which it sets itself.
struct TransferSimulator::Txn : core::ConservativeTxn<Txn> {
  int64_t from = 0;
  int64_t to = 0;
  int64_t amount = 0;
  int64_t read_from = 0;
  int64_t read_to = 0;
  int64_t phase_remaining = 0;

  void Reset() {
    ConservativeTxn::Reset();
    from = 0;
    to = 0;
    amount = 0;
    read_from = 0;
    read_to = 0;
    phase_remaining = 0;
  }
};

TransferSimulator::TransferSimulator(model::SystemConfig cfg, uint64_t seed,
                                     Options options)
    : cfg_(std::move(cfg)),
      options_(options),
      kernel_(cfg_, obs::Hooks{nullptr, nullptr, nullptr, options_.contention},
              /*trace=*/nullptr, /*watchdog=*/nullptr),
      locking_(&kernel_),
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
  locking_.Enqueue(CreateTransaction());
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

void TransferSimulator::PumpLockManager() {
  locking_.Pump<&TransferSimulator::Dispatch>(this, /*serialized=*/true,
                                              /*cap=*/0);
  if (sim::invariants::DeepAuditEnabled()) CheckConsistency();
}

void TransferSimulator::CheckConsistency() const {
  locking_.CheckConsistency(txns_.live());
  if (options_.concurrency_control ==
      ConcurrencyControl::kConservativeLocking) {
    GRANULOCK_AUDIT_CHECK_EQ(
        static_cast<size_t>(table_->ActiveTransactions()),
        locking_.active().size());
    table_->CheckConsistency();
  }
  kernel_.CheckConsistency();
}

void TransferSimulator::Dispatch(Txn* txn) {
  if (options_.concurrency_control == ConcurrencyControl::kNoLocking) {
    // Straight to execution — this is how updates get lost.
    locking_.Grant(txn, /*detail=*/0);
    StartReads(txn);
    return;
  }
  // Lock cost per the paper's model: per-lock I/O then CPU, shared across
  // all nodes at preemptive priority.
  const double locks =
      GranuleOfAccount(txn->from) == GranuleOfAccount(txn->to) ? 1.0 : 2.0;
  locking_.BeginRequest(txn, static_cast<int64_t>(locks));
  const double npros = static_cast<double>(cfg_.npros);
  kernel_.ChargeLockCost<&TransferSimulator::FinishLockRequest>(
      this, txn, locks * cfg_.liotime / npros, locks * cfg_.lcputime / npros);
}

void TransferSimulator::FinishLockRequest(Txn* txn) {
  locking_.EndRequest(txn);
  const int64_t granule_a = GranuleOfAccount(txn->from);
  const int64_t granule_b = GranuleOfAccount(txn->to);
  std::vector<LockRequest> requests{{granule_a, LockMode::kX},
                                    {granule_b, LockMode::kX}};
  auto* prof = options_.contention;
  lockmgr::ConflictInfo conflict;
  const auto blocker = table_->TryAcquireAll(
      txn->id, requests, prof != nullptr ? &conflict : nullptr);
  if (blocker.has_value()) {
    locking_.Block(txn, locking_.FindActive(*blocker));
    if (prof != nullptr) {
      // Conservative locking cannot chain waiters, so the depth is 1.
      prof->OnBlock(txn->id, conflict.granule, conflict.requested,
                    conflict.held, /*chain_depth=*/1, kernel_.Now());
    }
  } else {
    if (prof != nullptr) {
      prof->OnGrant(granule_a);
      if (granule_b != granule_a) prof->OnGrant(granule_b);
    }
    locking_.Grant(txn, /*detail=*/0);
    StartReads(txn);
  }
  PumpLockManager();
}

double TransferSimulator::ContentionSample(
    core::ClosedSystemKernel::Edges* edges) const {
  locking_.AppendWaitsFor(edges);
  return cfg_.ltot > 0
             ? std::min(1.0, static_cast<double>(table_->LockedGranules()) /
                                 static_cast<double>(cfg_.ltot))
             : 0.0;
}

void TransferSimulator::StartReads(Txn* txn) {
  txn->phase_remaining = 2;
  const auto read = [this, txn](int64_t account, int64_t* slot) {
    kernel_.io().Submit(store_->NodeOf(account), cfg_.iotime,
                        [this, txn, account, slot] {
                          // The balance is captured at read-completion
                          // time; it can go stale before the write phase
                          // applies it.
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
  kernel_.cpu().Submit(store_->NodeOf(txn->from), 2.0 * cfg_.cputime,
                       [this, txn] { StartWrites(txn); });
}

void TransferSimulator::StartWrites(Txn* txn) {
  const auto write = [this, txn](int64_t account, int64_t value,
                                 int64_t delta) {
    kernel_.io().Submit(store_->NodeOf(account), cfg_.iotime,
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
  kernel_.CountCompletion(kernel_.Now() - txn->arrival_time);
  locking_.Retire(txn, /*requeue_at_tail=*/true);
  locking_.Enqueue(CreateTransaction());

  txns_.Release(txn);
  PumpLockManager();
}

}  // namespace granulock::db
