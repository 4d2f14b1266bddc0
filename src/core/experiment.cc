#include "core/experiment.h"

#include <algorithm>
#include <csignal>
#include <utility>

#include "sim/invariants.h"
#include "sim/stats.h"
#include "util/logging.h"
#include "util/random.h"

namespace granulock::core {

namespace {

/// Derives the per-replication seeds exactly as the historical serial loop
/// did: stream `r` forked from one seeder over `base_seed`. Computing them
/// up front is what lets replications run on any worker in any order while
/// staying bit-identical to serial execution.
std::vector<uint64_t> DeriveReplicationSeeds(uint64_t base_seed,
                                             int replications) {
  Rng seeder(base_seed);
  std::vector<uint64_t> seeds;
  seeds.reserve(static_cast<size_t>(replications));
  for (int r = 0; r < replications; ++r) {
    seeds.push_back(seeder.Fork(static_cast<uint64_t>(r)).NextUint64());
  }
  return seeds;
}

/// Merges surviving replications in replication order: field sums via
/// `SimulationMetrics::Accumulate`, then per-field means and the Student-t
/// confidence half-widths on the two headline outputs. When every
/// replication survives, the arithmetic — and therefore the result — is
/// bit-identical to the historical merge.
class ReplicationMerger {
 public:
  void Add(const SimulationMetrics& s) {
    merged_.mean.Accumulate(s);
    throughput_stat_.Add(s.throughput);
    response_stat_.Add(s.response_time);
    ++survivors_;
  }

  int survivors() const { return survivors_; }

  ReplicatedMetrics Finalize() {
    merged_.replications = survivors_;
    merged_.mean.FinalizeMeans(static_cast<int64_t>(survivors_));
    merged_.throughput_hw95 = sim::ConfidenceHalfWidth(
        throughput_stat_.count(), throughput_stat_.StdDev(), 0.95);
    merged_.response_hw95 = sim::ConfidenceHalfWidth(
        response_stat_.count(), response_stat_.StdDev(), 0.95);
    return merged_;
  }

 private:
  ReplicatedMetrics merged_;
  sim::RunningStat throughput_stat_;
  sim::RunningStat response_stat_;
  int survivors_ = 0;
};

/// True when the attached sinks force the serial path: the trace recorder
/// and obs sinks are unsynchronized single-run inspection tools, and the
/// serial path preserves their historical interleaving.
bool RequiresSerialExecution(const GranularitySimulator::Options& options) {
  return options.trace != nullptr || options.obs.any();
}

bool IsCancelled(const CellOutcome& outcome) {
  return !outcome.result.ok() &&
         outcome.result.status().code() == StatusCode::kCancelled;
}

/// Folds one cell's outcome into the run report. Called post-join in grid
/// index order, so the report is deterministic for any thread count.
void AccountCell(const CellPolicy& policy, int point, int64_t ltot, int rep,
                 const CellOutcome& outcome) {
  RunReport* report = policy.report;
  if (report == nullptr) return;
  if (outcome.from_checkpoint) {
    ++report->cells_from_checkpoint;
    ++report->cells_completed;
    return;
  }
  if (!outcome.ran) return;  // fail-fast stopped before reaching this cell
  if (outcome.attempts > 1) report->cell_retries += outcome.attempts - 1;
  if (outcome.result.ok()) {
    ++report->cells_completed;
    return;
  }
  if (IsCancelled(outcome)) {
    report->interrupted = true;
    return;
  }
  if (outcome.timed_out) ++report->cells_timed_out;
  report->failures.push_back(CellFailure{policy.series, point, ltot, rep,
                                         outcome.attempts, outcome.timed_out,
                                         outcome.result.status()});
}

}  // namespace

CellOutcome RunCell(const CellPolicy& policy, const CellKey& key,
                    uint64_t seed, const CellBody& body) {
  CellOutcome out;
  if (policy.journal != nullptr) {
    SimulationMetrics cached;
    if (policy.journal->Lookup(key, &cached)) {
      out.result = cached;
      out.from_checkpoint = true;
      return out;
    }
  }
  const int max_attempts = 1 + std::max(0, policy.max_cell_retries);
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (policy.interrupt != nullptr &&
        policy.interrupt->load(std::memory_order_relaxed)) {
      out.ran = true;
      out.result = Status::Cancelled("run interrupted before cell started");
      return out;
    }
    out.ran = true;
    ++out.attempts;
    out.timed_out = false;
    // The watchdog (and its wall deadline) is per attempt: a retry gets a
    // fresh budget.
    fault::CellWatchdog watchdog(policy.cell_timeout_s, policy.interrupt,
                                 seed);
    try {
      // Contain invariant failures on this thread: a deep-audit Fail()
      // inside the cell throws instead of aborting the whole run.
      sim::invariants::ScopedFailureThrow contain;
      fault::Injector& injector = fault::Injector::Global();
      if (injector.armed()) {
        if (injector.ShouldFire(fault::InjectionPoint::kCellThrow, seed)) {
          throw std::runtime_error("injected cell failure (cell_throw)");
        }
        if (injector.ShouldFire(fault::InjectionPoint::kCellAuditFail, seed)) {
          sim::invariants::Fail(__FILE__, __LINE__,
                                "injected invariant failure (cell_audit_fail)");
        }
      }
      out.result = body(watchdog.active() ? &watchdog : nullptr);
    } catch (const fault::CellInterrupted& e) {
      out.result = Status::Cancelled(e.what());
      return out;  // interrupts are never retried
    } catch (const fault::CellTimeout& e) {
      out.result = Status::DeadlineExceeded(e.what());
      out.timed_out = true;
    } catch (const sim::invariants::AuditFailure& e) {
      out.result =
          Status::Internal(std::string("invariant failure: ") + e.what());
    } catch (const std::exception& e) {
      out.result =
          Status::Internal(std::string("uncaught exception: ") + e.what());
    }
    if (out.result.ok()) {
      if (policy.journal != nullptr) {
        const Status appended = policy.journal->Append(key, *out.result);
        if (!appended.ok()) {
          out.result = appended;
          return out;
        }
      }
      if (fault::Injector::Global().ShouldFire(
              fault::InjectionPoint::kSignalMidSweep, seed)) {
        std::raise(SIGTERM);
      }
      return out;
    }
    // Failed attempt: loop retries with the same derived seed.
  }
  return out;
}

void PublishCellStats(const RunReport& report,
                      obs::MetricsRegistry* registry) {
  registry->GetCounter("cells/completed")->Increment(report.cells_completed);
  registry->GetCounter("cells/from_checkpoint")
      ->Increment(report.cells_from_checkpoint);
  registry->GetCounter("cells/retried")->Increment(report.cell_retries);
  registry->GetCounter("cells/failed")
      ->Increment(static_cast<int64_t>(report.failures.size()));
  registry->GetCounter("cells/timed_out")->Increment(report.cells_timed_out);
}

Result<ReplicatedMetrics> RunReplicated(const model::SystemConfig& cfg,
                                        const workload::WorkloadSpec& spec,
                                        uint64_t base_seed, int replications,
                                        GranularitySimulator::Options options,
                                        ParallelRunner* runner,
                                        const CellPolicy& policy) {
  if (replications < 1) {
    return Status::InvalidArgument("replications must be >= 1");
  }
  const size_t reps = static_cast<size_t>(replications);
  const std::vector<uint64_t> seeds =
      DeriveReplicationSeeds(base_seed, replications);
  std::vector<CellOutcome> outcomes(reps);
  auto run_cell = [&](size_t r) {
    const CellKey key{policy.series, policy.point, static_cast<int>(r)};
    outcomes[r] =
        RunCell(policy, key, seeds[r], [&](const fault::CellWatchdog* wd) {
          GranularitySimulator::Options cell_options = options;
          cell_options.watchdog = wd;
          return GranularitySimulator::RunOnce(cfg, spec, seeds[r],
                                               cell_options);
        });
  };
  if (runner != nullptr && runner->threads() > 1 &&
      !RequiresSerialExecution(options)) {
    runner->ParallelFor(reps, [&](size_t r) { run_cell(r); });
  } else {
    for (size_t r = 0; r < reps; ++r) {
      run_cell(r);
      if (outcomes[r].result.ok()) continue;
      if (IsCancelled(outcomes[r]) || !policy.allow_partial) break;
    }
  }

  ReplicationMerger merger;
  Status first_failure;
  bool interrupted = false;
  for (size_t r = 0; r < reps; ++r) {
    const CellOutcome& o = outcomes[r];
    AccountCell(policy, policy.point, cfg.ltot, static_cast<int>(r), o);
    if (!o.ran && !o.from_checkpoint) continue;
    if (o.result.ok()) {
      merger.Add(*o.result);
    } else if (IsCancelled(o)) {
      interrupted = true;
    } else if (first_failure.ok()) {
      first_failure = o.result.status();
    }
  }
  if (!first_failure.ok() && !policy.allow_partial) return first_failure;
  if (merger.survivors() == 0) {
    if (!first_failure.ok()) return first_failure;
    if (interrupted) return Status::Cancelled("run interrupted");
    return Status::Internal("no replication produced metrics");
  }
  return merger.Finalize();
}

std::vector<int64_t> StandardLockSweep(int64_t dbsize) {
  GRANULOCK_CHECK_GE(dbsize, 1);
  static constexpr int64_t kGrid[] = {1,   2,   5,    10,   20,   50,
                                      100, 200, 500,  1000, 2000, 5000,
                                      10000, 20000, 50000};
  std::vector<int64_t> out;
  for (int64_t v : kGrid) {
    if (v <= dbsize) out.push_back(v);
  }
  if (out.empty() || out.back() != dbsize) out.push_back(dbsize);
  return out;
}

Result<std::vector<SweepPoint>> SweepLockCounts(
    const model::SystemConfig& cfg, const workload::WorkloadSpec& spec,
    const std::vector<int64_t>& lock_counts, uint64_t base_seed,
    int replications, GranularitySimulator::Options options,
    ParallelRunner* runner, const CellPolicy& policy) {
  if (replications < 1) {
    return Status::InvalidArgument("replications must be >= 1");
  }
  const size_t points = lock_counts.size();
  const size_t reps = static_cast<size_t>(replications);
  const std::vector<uint64_t> seeds =
      DeriveReplicationSeeds(base_seed, replications);
  // Every point's serial run re-seeds from `base_seed`, so all points share
  // the same replication seeds.
  std::vector<model::SystemConfig> point_cfgs(points, cfg);
  for (size_t p = 0; p < points; ++p) point_cfgs[p].ltot = lock_counts[p];
  std::vector<std::vector<CellOutcome>> outcomes(points);
  for (auto& row : outcomes) row.resize(reps);
  auto run_cell = [&](size_t p, size_t r) {
    const CellKey key{policy.series, static_cast<int>(p),
                      static_cast<int>(r)};
    outcomes[p][r] =
        RunCell(policy, key, seeds[r], [&](const fault::CellWatchdog* wd) {
          GranularitySimulator::Options cell_options = options;
          cell_options.watchdog = wd;
          return GranularitySimulator::RunOnce(point_cfgs[p], spec, seeds[r],
                                               cell_options);
        });
  };

  if (runner != nullptr && runner->threads() > 1 &&
      !RequiresSerialExecution(options)) {
    // Parallel path: flatten the whole (point × replication) grid into one
    // task batch so the pool stays saturated across point boundaries.
    // Failures are reported from the post-join scan below in grid index
    // order, so the chosen failure never depends on worker scheduling.
    runner->ParallelFor(points * reps,
                        [&](size_t i) { run_cell(i / reps, i % reps); });
  } else {
    bool stop = false;
    for (size_t p = 0; p < points && !stop; ++p) {
      for (size_t r = 0; r < reps && !stop; ++r) {
        run_cell(p, r);
        const CellOutcome& o = outcomes[p][r];
        if (o.result.ok()) continue;
        if (IsCancelled(o) || !policy.allow_partial) stop = true;
      }
    }
  }

  // Post-join scan in grid index order: accounting, per-point merge, and
  // deterministic failure selection.
  std::vector<SweepPoint> out;
  out.reserve(points);
  Status first_failure;
  for (size_t p = 0; p < points; ++p) {
    ReplicationMerger merger;
    for (size_t r = 0; r < reps; ++r) {
      const CellOutcome& o = outcomes[p][r];
      AccountCell(policy, static_cast<int>(p), lock_counts[p],
                  static_cast<int>(r), o);
      if (!o.ran && !o.from_checkpoint) continue;
      if (o.result.ok()) {
        merger.Add(*o.result);
      } else if (!IsCancelled(o) && first_failure.ok()) {
        first_failure = o.result.status();
      }
    }
    if (merger.survivors() > 0) {
      out.push_back(SweepPoint{lock_counts[p], merger.Finalize()});
    }
  }
  if (!first_failure.ok() && !policy.allow_partial) return first_failure;
  return out;
}

const SweepPoint& BestThroughputPoint(const std::vector<SweepPoint>& sweep) {
  GRANULOCK_CHECK(!sweep.empty());
  return *std::max_element(sweep.begin(), sweep.end(),
                           [](const SweepPoint& a, const SweepPoint& b) {
                             return a.metrics.mean.throughput <
                                    b.metrics.mean.throughput;
                           });
}

}  // namespace granulock::core
