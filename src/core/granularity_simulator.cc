#include "core/granularity_simulator.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/invariants.h"
#include "util/logging.h"

namespace granulock::core {

using sim::TraceEventType;

/// One live transaction: the lifecycle's fields are all it needs.
struct GranularitySimulator::Txn : ConservativeTxn<Txn> {};

GranularitySimulator::GranularitySimulator(model::SystemConfig cfg,
                                           workload::WorkloadSpec spec,
                                           uint64_t seed, Options options)
    : cfg_(std::move(cfg)),
      spec_(std::move(spec)),
      options_(options),
      kernel_(cfg_, options_.obs, options_.trace, options_.watchdog),
      locking_(&kernel_),
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
  locking_.Reserve(ntrans);
  txns_.Reserve(ntrans + 1);
  kernel_.Open<&GranularitySimulator::ContentionSample>(this,
                                                        /*imputed=*/true);
  return kernel_.RunToHorizon<&GranularitySimulator::Arrive>(this);
}

double GranularitySimulator::ContentionSample(
    ClosedSystemKernel::Edges* edges) const {
  locking_.AppendWaitsFor(edges);
  // The probabilistic engine has no lock table; occupancy is estimated
  // from the locks the active transactions nominally hold.
  return cfg_.ltot > 0 ? std::min(1.0, static_cast<double>(active_lu_total_) /
                                           static_cast<double>(cfg_.ltot))
                       : 0.0;
}

void GranularitySimulator::Arrive() {
  Txn* txn = txns_.Acquire();
  kernel_.InitTxn(txn, rng_);
  locking_.Enqueue(txn);
  PumpLockManager();
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
  locking_.Pump<&GranularitySimulator::BeginLockRequest>(
      this, options_.serialize_lock_manager, EffectiveCap());
  if (sim::invariants::DeepAuditEnabled()) CheckConsistency();
}

void GranularitySimulator::CheckConsistency() const {
  locking_.CheckConsistency(txns_.live());
  int64_t lu_total = 0;
  for (const Txn* txn : locking_.active()) {
    lu_total += txn->params.lu;
    GRANULOCK_AUDIT_CHECK_GT(txn->subtxns_remaining, 0)
        << "active txn " << txn->id << " has no sub-transactions left";
    GRANULOCK_AUDIT_CHECK_LE(txn->subtxns_remaining, txn->params.pu)
        << "active txn " << txn->id;
  }
  // The incrementally maintained conflict-scan total never drifts from
  // the ground truth it summarizes.
  GRANULOCK_AUDIT_CHECK_EQ(active_lu_total_, lu_total)
      << "active_lu_total_ drifted from the sum over the lock holders";
  kernel_.CheckConsistency();
}

void GranularitySimulator::BeginLockRequest(Txn* txn) {
  locking_.BeginRequest(txn, txn->params.lu);
  // Lock-table I/O then CPU, shared equally by all nodes.
  const double npros = static_cast<double>(cfg_.npros);
  kernel_.ChargeLockCost<&GranularitySimulator::FinishLockRequest>(
      this, txn, txn->params.lock_io_demand / npros,
      txn->params.lock_cpu_demand / npros);
}

void GranularitySimulator::FinishLockRequest(Txn* txn) {
  locking_.EndRequest(txn);
  // Conflict draw over the active transactions' lock counts, equivalent to
  // `conflict_.DrawBlocker` on a vector of their `lu` values but without
  // materializing that vector: the running `active_lu_total_` decides the
  // common no-conflict case with a single comparison. The early-out is
  // exact (not a shortcut) while the total stays below 2^53, where every
  // partial sum the scan would form is an exactly-represented integer; a
  // larger total falls back to the scan so the outcome is still
  // bit-identical to the reference loop.
  const std::vector<Txn*>& active = locking_.active();
  Txn* blocker = nullptr;
  if (!active.empty()) {
    const double scaled = conflict_.DrawScaledVariate(rng_);
    if (active_lu_total_ >= (int64_t{1} << 53) ||
        scaled <= static_cast<double>(active_lu_total_)) {
      double cum = 0.0;
      for (Txn* holder : active) {
        cum += static_cast<double>(holder->params.lu);
        if (scaled <= cum) {
          blocker = holder;
          break;
        }
      }
    }
  }
  if (blocker != nullptr) {
    locking_.Block(txn, blocker);
    if (obs::ContentionProfiler* prof = options_.obs.contention) {
      // Granule attribution is imputed (the Ries–Stonebraker model names
      // no granule): drawn uniformly from a profiler-private stream.
      // Conservative X-only locking: depth is always 1.
      const int64_t granule =
          cfg_.ltot > 1 ? contention_rng_.UniformInt(0, cfg_.ltot - 1) : 0;
      prof->OnBlock(txn->id, granule, lockmgr::LockMode::kX,
                    lockmgr::LockMode::kX, /*chain_depth=*/1, kernel_.Now());
    }
  } else {
    Grant(txn);
  }
  PumpLockManager();
}

void GranularitySimulator::Grant(Txn* txn) {
  locking_.Grant(txn, txn->params.lu);
  active_lu_total_ += txn->params.lu;
  kernel_.BeginStage(txn);
  if (options_.obs.contention != nullptr) {
    // Aggregate only: the imputed engine cannot attribute grants to real
    // granules, so per-granule grant counts stay 0 here.
    options_.obs.contention->OnGrantTotal(txn->params.lu);
  }
  const double pu = static_cast<double>(txn->params.pu);
  kernel_.ForkJoin<&GranularitySimulator::Complete>(
      this, txn, txn->params.io_demand / pu, txn->params.cpu_demand / pu);
}

void GranularitySimulator::Complete(Txn* txn) {
  active_lu_total_ -= txn->params.lu;
  kernel_.RecordCompletion(*txn);
  kernel_.Trace(txn->id, TraceEventType::kCompleted,
                static_cast<int64_t>(txn->blocked.size()));
  locking_.Retire(txn, options_.requeue_blocked_at_tail);

  // Closed system: a fresh transaction replaces the completed one, after
  // the terminal's think time (0 in the paper's model).
  if (cfg_.think_time > 0.0) {
    kernel_.sim().ScheduleAfter(rng_.Exponential(cfg_.think_time),
                                [this] { Arrive(); });
  } else {
    Txn* fresh = txns_.Acquire();
    kernel_.InitTxn(fresh, rng_);
    locking_.Enqueue(fresh);
  }

  txns_.Release(txn);
  PumpLockManager();
}

}  // namespace granulock::core
