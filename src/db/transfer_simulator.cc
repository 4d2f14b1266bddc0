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
    : cfg_(std::move(cfg)), options_(options), rng_(seed) {}

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
  if (ran_) {
    return Status::FailedPrecondition("Run() may only be called once");
  }
  ran_ = true;
  GRANULOCK_RETURN_NOT_OK(cfg_.Validate());
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

  cpu_.emplace(&sim_, "cpu", cfg_.npros);
  io_.emplace(&sim_, "io", cfg_.npros);

  if (auto* prof = options_.contention) {
    prof->BeginRun(cfg_.ltot, /*imputed=*/false);
    const double iv = prof->options().sample_interval;
    if (iv > 0.0 && iv <= cfg_.tmax) {
      sim_.ScheduleObserverAt(iv, [this] { ContentionTick(); });
    }
  }

  active_stat_.Start(0.0, 0.0);
  blocked_stat_.Start(0.0, 0.0);
  pending_stat_.Start(0.0, 0.0);
  window_start_ = cfg_.warmup;
  if (cfg_.warmup > 0.0) {
    sim_.ScheduleAt(cfg_.warmup, [this] { BeginMeasurement(); });
  }

  for (int64_t i = 0; i < cfg_.ntrans; ++i) {
    sim_.ScheduleAt(static_cast<double>(i), [this] {
      Txn* txn = CreateTransaction(sim_.Now());
      pending_.push_back(txn);
      UpdateQueueStats();
      PumpLockManager();
    });
  }
  sim_.RunUntil(cfg_.tmax);

  Report report;
  core::SimulationMetrics& m = report.metrics;
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

  report.initial_total = initial_total;
  report.final_total = store_->Total();
  report.in_flight_imbalance = net_applied_;
  report.conserved =
      report.final_total == report.initial_total + report.in_flight_imbalance;
  report.writes_applied = store_->write_count();
  return report;
}

void TransferSimulator::BeginMeasurement() {
  cpu_->ResetStats();
  io_->ResetStats();
  totcom_ = 0;
  lock_requests_ = 0;
  lock_denials_ = 0;
  response_.Reset();
  response_quantiles_.Reset();
  const double now = sim_.Now();
  active_stat_.ResetWindow(now);
  blocked_stat_.ResetWindow(now);
  pending_stat_.ResetWindow(now);
  window_start_ = now;
}

TransferSimulator::Txn* TransferSimulator::CreateTransaction(
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
  txn->arrival_time = arrival_time;
  const auto draw_account = [this] {
    return zipf_ ? zipf_->Sample(rng_) : rng_.UniformInt(0, cfg_.dbsize - 1);
  };
  txn->from =
      rng_.Bernoulli(options_.hot_fraction) ? 0 : draw_account();
  do {
    txn->to = draw_account();
  } while (txn->to == txn->from);
  txn->amount = rng_.UniformInt(1, 10);
  live_txns_.push_back(std::move(owned));
  return txn;
}

void TransferSimulator::DestroyTransaction(Txn* txn) {
  auto it = std::find_if(
      live_txns_.begin(), live_txns_.end(),
      [txn](const std::unique_ptr<Txn>& p) { return p.get() == txn; });
  GRANULOCK_CHECK(it != live_txns_.end());
  // Recycle through the pool: the closed system otherwise churns one
  // short-lived Txn per completion.
  (*it)->Reset();
  txn_pool_.push_back(std::move(*it));
  *it = std::move(live_txns_.back());
  live_txns_.pop_back();
}

void TransferSimulator::UpdateQueueStats() {
  const double now = sim_.Now();
  active_stat_.Update(now, static_cast<double>(active_.size()));
  blocked_stat_.Update(now, static_cast<double>(blocked_count_));
  pending_stat_.Update(now, static_cast<double>(pending_.size()));
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
      live_txns_.size(),
      pending_.size() + static_cast<size_t>(outstanding_lock_requests_) +
          static_cast<size_t>(blocked_count_) + active_.size())
      << "live=" << live_txns_.size() << " pending=" << pending_.size()
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
  cpu_->CheckConsistency();
  io_->CheckConsistency();
}

void TransferSimulator::BeginLockRequest(Txn* txn) {
  ++outstanding_lock_requests_;
  ++lock_requests_;
  // Lock cost per the paper's model: per-lock I/O then CPU, shared across
  // all nodes at preemptive priority.
  const int64_t granule_a = GranuleOfAccount(txn->from);
  const int64_t granule_b = GranuleOfAccount(txn->to);
  const double locks = granule_a == granule_b ? 1.0 : 2.0;
  const double npros = static_cast<double>(cfg_.npros);
  const double io_share = locks * cfg_.liotime / npros;
  const double cpu_share = locks * cfg_.lcputime / npros;
  if (io_share <= 0.0) {
    StartLockCpuPhase(txn, cpu_share);
    return;
  }
  io_->SubmitShared(io_share, [this, txn, cpu_share] {
    StartLockCpuPhase(txn, cpu_share);
  });
}

void TransferSimulator::StartLockCpuPhase(Txn* txn, double cpu_share) {
  if (cpu_share <= 0.0) {
    FinishLockRequest(txn);
    return;
  }
  cpu_->SubmitShared(cpu_share, [this, txn] { FinishLockRequest(txn); });
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
    ++lock_denials_;
    auto it = active_.find(*blocker);
    GRANULOCK_CHECK(it != active_.end());
    it->second->blocked.push_back(txn);
    ++blocked_count_;
    if (prof != nullptr) {
      // Conservative locking cannot chain waiters, so the depth is 1.
      prof->OnBlock(txn->id, conflict.granule, conflict.requested,
                    conflict.held, /*chain_depth=*/1, sim_.Now());
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

void TransferSimulator::ContentionTick() {
  auto* prof = options_.contention;
  const double now = sim_.Now();
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (const auto& [id, holder] : active_) {
    for (const Txn* waiter : holder->blocked) {
      edges.emplace_back(waiter->id, id);
    }
  }
  const double ntrans = static_cast<double>(cfg_.ntrans);
  const double blocked_fraction =
      ntrans > 0.0 ? static_cast<double>(blocked_count_) / ntrans : 0.0;
  const double occupancy =
      cfg_.ltot > 0
          ? std::min(1.0, static_cast<double>(table_->LockedGranules()) /
                              static_cast<double>(cfg_.ltot))
          : 0.0;
  prof->OnSample(now, blocked_fraction, occupancy, std::move(edges));
  const double iv = prof->options().sample_interval;
  if (now + iv <= cfg_.tmax) {
    sim_.ScheduleObserverAfter(iv, [this] { ContentionTick(); });
  }
}

void TransferSimulator::StartReads(Txn* txn) {
  txn->phase_remaining = 2;
  const auto read = [this, txn](int64_t account, int64_t* slot) {
    io_->node(store_->NodeOf(account)).Submit(
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
  cpu_->node(store_->NodeOf(txn->from)).Submit(
      ServiceClass::kTransaction, 2.0 * cfg_.cputime,
      [this, txn] { StartWrites(txn); });
}

void TransferSimulator::StartWrites(Txn* txn) {
  const auto write = [this, txn](int64_t account, int64_t value,
                                 int64_t delta) {
    io_->node(store_->NodeOf(account)).Submit(
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

  ++totcom_;
  response_.Add(sim_.Now() - txn->arrival_time);
  response_quantiles_.Add(sim_.Now() - txn->arrival_time);

  blocked_count_ -= static_cast<int64_t>(txn->blocked.size());
  for (Txn* released : txn->blocked) {
    if (auto* prof = options_.contention) {
      prof->OnUnblock(released->id, sim_.Now());
    }
    pending_.push_back(released);
  }
  txn->blocked.clear();

  Txn* fresh = CreateTransaction(sim_.Now());
  pending_.push_back(fresh);

  DestroyTransaction(txn);
  UpdateQueueStats();
  PumpLockManager();
}

}  // namespace granulock::db
