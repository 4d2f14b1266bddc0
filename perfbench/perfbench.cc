// The benchmark binary behind perfbench/run.py. See perfbench/README.md for
// the workloads, the metrics and how to read them.
//
//   perfbench --workload=W --seed=N --seconds=T          timed passes
//   perfbench --workload=W --seed=N --seconds=T --trace  traced passes
//   perfbench --workload=W --setup                       set-up probe
//
// Timed passes go through the code the bench binaries run: figure grids
// through bench::RunFigure (core::SweepLockCounts on a
// core::ParallelRunner), the MGL ablation through bench::CellRunner, the
// policy shootout through core::RunCell. Traced passes run the same grid
// by calling each engine directly from this file, timing every call and
// reading an obs::MetricsRegistry per cell; their model outputs must be
// byte-identical to the timed pass's. Every mode prints one line
// "PERFBENCH <json>" on stdout.

#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/experiment.h"
#include "core/granularity_simulator.h"
#include "core/parallel_runner.h"
#include "db/explicit_simulator.h"
#include "db/incremental_simulator.h"
#include "model/placement.h"
#include "obs/json_writer.h"
#include "obs/registry.h"
#include "sim/stats.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/strings.h"
#include "util/wall_clock.h"
#include "workload/size_distribution.h"

namespace {

using namespace granulock;

/// Model outputs and cell accounting of one pass over a workload's grid.
struct Pass {
  std::string grid;  ///< rendered model outputs; no wall-clock field
  uint64_t events = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string error;  ///< first violated output check; empty when clean
  bool complete = true;  ///< covers every point of the workload's reference
};

/// What a traced pass measured, summed over its cells.
struct LayerTrace {
  int threads = 1;
  double spawn_s = 0.0;
  double pass_s = 0.0;  ///< runner creation to the last cell's return
  std::vector<double> cell_s;
  double core_run_s = 0.0;
  uint64_t core_events = 0;
  double db_run_s = 0.0;
  uint64_t db_events = 0;
  uint64_t events_npros1 = 0;
  uint64_t events_npros30 = 0;
  double observer_events = 0.0;
  double queue_hwm = 0.0;
  int64_t lock_requests = 0;
  int64_t lock_grants = 0;
  int64_t completed = 0;
  int64_t restarts = 0;
  int64_t deadlock_aborts = 0;
  double yao_sweep_s = 0.0;
  double report_write_s = 0.0;
};

/// One engine call made by a traced pass.
struct TracedCell {
  Result<core::SimulationMetrics> result = Status::Internal("cell not run");
  double cell_s = 0.0;  ///< construction + Run
  double run_s = 0.0;   ///< Run only
  double observer_events = 0.0;
  double queue_hwm = 0.0;
  int64_t lock_requests = 0;
  int64_t lock_grants = 0;
};

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

int64_t PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<int64_t>(usage.ru_maxrss);
}

/// CLOCK_MONOTONIC, the clock Python's time.monotonic() reads, so run.py
/// can subtract its own launch time from it.
double MonotonicNow() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Moves the calling thread round-robin across the CPUs the process may
/// use, one step per period, until destroyed. The vCPUs of a shared host
/// can differ in speed by 1.5x for minutes at a time, and the scheduler
/// keeps a busy thread on one of them; without rotation a serial pass
/// times whichever vCPU it landed on.
class CpuRotation {
 public:
  explicit CpuRotation(std::chrono::milliseconds period)
      : tid_(static_cast<pid_t>(syscall(SYS_gettid))) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
      }
    }
    if (cpus_.size() < 2) return;
    CPU_ZERO(&allowed_);
    for (int cpu : cpus_) CPU_SET(cpu, &allowed_);
    thread_ = std::thread([this, period] { Loop(period); });
  }

  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  ~CpuRotation() {
    if (!thread_.joinable()) return;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
    sched_setaffinity(tid_, sizeof(allowed_), &allowed_);
  }

 private:
  void Loop(std::chrono::milliseconds period) {
    std::unique_lock<std::mutex> lock(mu_);
    for (size_t i = 0; !stop_; ++i) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[i % cpus_.size()], &one);
      sched_setaffinity(tid_, sizeof(one), &one);
      cv_.wait_for(lock, period, [this] { return stop_; });
    }
  }

  const pid_t tid_;
  std::vector<int> cpus_;
  cpu_set_t allowed_{};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread thread_;
};

/// Replication seeds exactly as core::SweepLockCounts derives them.
std::vector<uint64_t> ReplicationSeeds(uint64_t base_seed, int reps) {
  Rng seeder(base_seed);
  std::vector<uint64_t> seeds;
  for (int r = 0; r < reps; ++r) {
    seeds.push_back(seeder.Fork(static_cast<uint64_t>(r)).NextUint64());
  }
  return seeds;
}

/// Folds replications into a point the way core::RunReplicated does.
class Merger {
 public:
  void Add(const core::SimulationMetrics& m) {
    merged_.mean.Accumulate(m);
    throughput_.Add(m.throughput);
    response_.Add(m.response_time);
    ++merged_.replications;
  }

  core::ReplicatedMetrics Finalize() {
    if (merged_.replications == 0) return merged_;
    merged_.mean.FinalizeMeans(merged_.replications);
    merged_.throughput_hw95 = sim::ConfidenceHalfWidth(
        throughput_.count(), throughput_.StdDev(), 0.95);
    merged_.response_hw95 = sim::ConfidenceHalfWidth(
        response_.count(), response_.StdDev(), 0.95);
    return merged_;
  }

 private:
  core::ReplicatedMetrics merged_;
  sim::RunningStat throughput_;
  sim::RunningStat response_;
};

/// Reads the per-cell engine profile an engine publishes into `registry`.
void ReadRegistry(obs::MetricsRegistry& registry, TracedCell* cell) {
  cell->observer_events = registry.GetGauge("sim.observer_events")->value();
  cell->queue_hwm = registry.GetGauge("sim.event_queue_hwm")->value();
  cell->lock_requests = registry.GetCounter("engine.lock_requests")->value();
  cell->lock_grants = registry.GetCounter("engine.lock_grants")->value();
}

/// Times one engine: construction plus `Run()`, with a registry attached.
template <typename Engine>
TracedCell RunTracedCell(const model::SystemConfig& cfg,
                         const workload::WorkloadSpec& spec, uint64_t seed,
                         typename Engine::Options options) {
  TracedCell cell;
  obs::MetricsRegistry registry;
  options.obs.registry = &registry;
  const WallTimer cell_timer;
  Engine engine(cfg, spec, seed, options);
  const WallTimer run_timer;
  cell.result = engine.Run();
  cell.run_s = run_timer.Seconds();
  cell.cell_s = cell_timer.Seconds();
  ReadRegistry(registry, &cell);
  return cell;
}

/// Adds a traced cell's counts to `trace`; `core_engine` selects which
/// engine timer it charges.
void Absorb(const TracedCell& cell, bool core_engine, LayerTrace* trace) {
  trace->cell_s.push_back(cell.cell_s);
  trace->observer_events += cell.observer_events;
  trace->queue_hwm = std::max(trace->queue_hwm, cell.queue_hwm);
  trace->lock_requests += cell.lock_requests;
  trace->lock_grants += cell.lock_grants;
  if (!cell.result.ok()) return;
  const core::SimulationMetrics& m = *cell.result;
  (core_engine ? trace->core_run_s : trace->db_run_s) += cell.run_s;
  (core_engine ? trace->core_events : trace->db_events) += m.events_executed;
  trace->completed += m.totcom;
  trace->restarts += m.txn_restarts;
  trace->deadlock_aborts += m.deadlock_aborts;
}

/// Checks the model facts every grid point must satisfy at any seed.
std::string CheckPoint(const std::string& where,
                       const core::ReplicatedMetrics& rep, int reps) {
  const core::SimulationMetrics& m = rep.mean;
  if (rep.replications != reps) return where + ": replications missing";
  if (!(m.throughput > 0.0) || !std::isfinite(m.throughput)) {
    return where + ": throughput not positive";
  }
  if (!std::isfinite(m.response_time) || m.response_time < 0.0) {
    return where + ": response time not finite";
  }
  if (m.events_executed == 0) return where + ": no events";
  // Every abort restarts or sacrifices its victim. Means over several
  // replications truncate each integer field separately, so the balance
  // is exact only for a single replication.
  if (reps == 1 && m.deadlock_aborts != m.txn_restarts + m.txn_sacrificed) {
    return where + ": aborts != restarts + sacrificed";
  }
  return "";
}

/// Renders a (series x point) grid with the point keys of the checked-in
/// BENCH_*.json reports. `axis` names the swept parameter.
std::string RenderGrid(const std::string& id, int64_t seed, int64_t reps,
                       const std::string& axis, const std::vector<int64_t>& xs,
                       const std::vector<std::string>& labels,
                       const std::vector<std::vector<core::ReplicatedMetrics>>&
                           grid) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.BeginObject();
  w.Key("experiment").Value(id);
  w.Key("params").BeginObject();
  w.Key("seed").Value(seed);
  w.Key("reps").Value(reps);
  w.EndObject();
  w.Key("series").BeginArray();
  for (size_t s = 0; s < labels.size(); ++s) {
    w.BeginObject();
    w.Key("label").Value(labels[s]);
    w.Key("points").BeginArray();
    for (size_t p = 0; p < xs.size(); ++p) {
      const core::ReplicatedMetrics& rep = grid[s][p];
      if (rep.replications == 0) continue;
      const core::SimulationMetrics& m = rep.mean;
      w.BeginObject();
      w.Key("ltot").Value(xs[p]);
      if (axis != "ltot") w.Key(axis).Value(xs[p]);
      w.Key("throughput").Value(m.throughput);
      w.Key("throughput_hw95").Value(rep.throughput_hw95);
      w.Key("response_time").Value(m.response_time);
      w.Key("response_hw95").Value(rep.response_hw95);
      w.Key("response_p95").Value(m.response_p95);
      w.Key("response_p99").Value(m.response_p99);
      w.Key("usefulcpus").Value(m.usefulcpus);
      w.Key("usefulios").Value(m.usefulios);
      w.Key("lockcpus").Value(m.lockcpus);
      w.Key("lockios").Value(m.lockios);
      w.Key("denial_rate").Value(m.denial_rate);
      w.Key("deadlock_aborts").Value(m.deadlock_aborts);
      w.Key("txn_restarts").Value(m.txn_restarts);
      w.Key("txn_sacrificed").Value(m.txn_sacrificed);
      w.Key("avg_admission_held").Value(m.avg_admission_held);
      w.Key("events_executed").Value(m.events_executed);
      w.Key("phase_pending_wait").Value(m.phase_pending_wait);
      w.Key("phase_lock_wait").Value(m.phase_lock_wait);
      w.Key("phase_io_service").Value(m.phase_io_service);
      w.Key("phase_cpu_service").Value(m.phase_cpu_service);
      w.Key("phase_sync_wait").Value(m.phase_sync_wait);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return os.str();
}

/// Sums events over a grid and checks every point.
void Audit(const std::vector<std::string>& labels,
           const std::vector<int64_t>& xs,
           const std::vector<std::vector<core::ReplicatedMetrics>>& grid,
           int reps, Pass* pass) {
  for (size_t s = 0; s < labels.size(); ++s) {
    for (size_t p = 0; p < xs.size(); ++p) {
      pass->events += grid[s][p].mean.events_executed;
      const std::string error = CheckPoint(
          StrFormat("%s@%lld", labels[s].c_str(), (long long)xs[p]),
          grid[s][p], reps);
      if (pass->error.empty()) pass->error = error;
    }
  }
}

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  virtual int threads() const { return 1; }
  /// One pass through the code path the bench binaries run.
  virtual Pass Run(uint64_t seed) = 0;
  /// The same grid through direct engine calls from this file.
  virtual Pass RunTraced(uint64_t seed, LayerTrace* trace) = 0;
  /// Model outputs at seed 42 for run.py to compare with the reference;
  /// `full` asks for every reference point even where that is costly.
  virtual Pass Anchor(bool /*full*/) { return Run(42); }
};

/// A figure grid run through bench::RunFigure: fig02 and fig12.
class FigureWorkload : public Workload {
 public:
  FigureWorkload(std::string id, std::vector<bench::Series> series,
                 int threads, bool tiny)
      : id_(std::move(id)), series_(std::move(series)) {
    args_.quick = true;
    args_.reps = tiny ? 2 : 4;
    args_.threads = threads;
    args_.resolved_threads = threads;
    args_.allow_partial = true;  // a failed cell is counted, not fatal
    if (tiny) args_.tmax = 2000.0;
    lock_counts_ = tiny ? std::vector<int64_t>{1, 10, 100}
                        : core::StandardLockSweep(series_[0].cfg.dbsize);
    for (const bench::Series& s : series_) labels_.push_back(s.label);
  }

  int threads() const override { return args_.resolved_threads; }

  Pass Run(uint64_t seed) override {
    args_.seed = static_cast<int64_t>(seed);
    bench::FigureData data =
        bench::RunFigure(id_, series_, args_, lock_counts_);
    Pass pass;
    pass.failed = static_cast<int64_t>(data.report.failures.size());
    Finish(&data, &pass);
    return pass;
  }

  Pass RunTraced(uint64_t seed, LayerTrace* trace) override {
    args_.seed = static_cast<int64_t>(seed);
    const int reps = static_cast<int>(args_.reps);
    const std::vector<uint64_t> seeds = ReplicationSeeds(seed, reps);
    const size_t points = lock_counts_.size();
    bench::FigureData data;
    data.series = series_;
    data.lock_counts = lock_counts_;
    data.values.assign(series_.size(),
                       std::vector<core::ReplicatedMetrics>(points));
    Pass pass;
    trace->threads = threads();
    const WallTimer pass_timer;
    core::ParallelRunner runner(threads());
    if (threads() > 1) {
      runner.ParallelFor(static_cast<size_t>(threads()), [](size_t) {});
    }
    trace->spawn_s = pass_timer.Seconds();
    // One batch per series with a join between series, as RunFigure does.
    std::vector<std::vector<TracedCell>> cells(series_.size());
    for (size_t s = 0; s < series_.size(); ++s) {
      model::SystemConfig cfg = series_[s].cfg;
      args_.Apply(&cfg);
      cells[s].resize(points * static_cast<size_t>(reps));
      runner.ParallelFor(cells[s].size(), [&](size_t i) {
        model::SystemConfig cell_cfg = cfg;
        cell_cfg.ltot = lock_counts_[i / static_cast<size_t>(reps)];
        cells[s][i] = RunTracedCell<core::GranularitySimulator>(
            cell_cfg, series_[s].spec, seeds[i % static_cast<size_t>(reps)],
            series_[s].options);
      });
    }
    trace->pass_s = pass_timer.Seconds();
    for (size_t s = 0; s < series_.size(); ++s) {
      for (size_t p = 0; p < points; ++p) {
        Merger merger;
        for (int r = 0; r < reps; ++r) {
          const TracedCell& cell =
              cells[s][p * static_cast<size_t>(reps) + static_cast<size_t>(r)];
          Absorb(cell, /*core_engine=*/true, trace);
          if (!cell.result.ok()) {
            ++pass.failed;
            continue;
          }
          merger.Add(*cell.result);
          const uint64_t events = cell.result->events_executed;
          if (series_[s].cfg.npros == 1) trace->events_npros1 += events;
          if (series_[s].cfg.npros == 30) trace->events_npros30 += events;
        }
        data.values[s][p] = merger.Finalize();
      }
      TimeYaoSweeps(s, trace);
    }
    const WallTimer report_timer;
    Finish(&data, &pass);
    trace->report_write_s = report_timer.Seconds();
    return pass;
  }

 private:
  /// Times the Yao sweep each random-placement cell's transaction factory
  /// computes (model::LockDemandTable).
  void TimeYaoSweeps(size_t s, LayerTrace* trace) const {
    const bench::Series& series = series_[s];
    if (series.spec.placement != model::Placement::kRandom) return;
    const int64_t max_nu = series.spec.sizes->MaxSize();
    std::vector<double> out(static_cast<size_t>(max_nu));
    for (int64_t ltot : lock_counts_) {
      for (int64_t r = 0; r < args_.reps; ++r) {
        const WallTimer timer;
        model::YaoExpectedGranulesSweep(series.cfg.dbsize, ltot, max_nu,
                                        out.data());
        trace->yao_sweep_s += timer.Seconds();
      }
    }
  }

  /// Renders the grid without its wall-clock field and checks it.
  void Finish(bench::FigureData* data, Pass* pass) const {
    data->wall_seconds = 0.0;
    pass->grid = bench::RenderJsonReport(id_, *data, args_);
    pass->attempted = static_cast<int64_t>(series_.size() *
                                           lock_counts_.size()) *
                      args_.reps;
    Audit(labels_, lock_counts_, data->values, static_cast<int>(args_.reps),
          pass);
  }

  const std::string id_;
  const std::vector<bench::Series> series_;
  std::vector<std::string> labels_;
  std::vector<int64_t> lock_counts_;
  bench::BenchArgs args_;
};

/// bench_ablation_mgl's grid: flat vs hierarchical locking on the explicit
/// lock-table engine, §3.6 80/20 mix, one thread. The grid runs one
/// replication per cell, so its work moves by several percent from seed to
/// seed. A timed pass therefore runs the grid at kSeedsPerPass seeds forked
/// from the run's seed; the seed-42 anchor runs it once, as the bench does.
class MglWorkload : public Workload {
 public:
  static constexpr int kSeedsPerPass = 8;

  explicit MglWorkload(bool tiny) {
    base_.npros = 10;
    base_.maxtransize = 500;
    spec_.sizes = workload::MakeSmallLargeMix(0.8, 50, 500);
    spec_.placement = model::Placement::kBest;
    spec_.partitioning = workload::PartitioningMethod::kHorizontal;
    mgl_.strategy = db::ExplicitSimulator::LockingStrategy::kHierarchical;
    mgl_.coarse_threshold = 250;
    gamma_ = mgl_;
    gamma_.escalation_threshold = 20;
    args_.quick = true;
    args_.allow_partial = true;
    if (tiny) args_.tmax = 2000.0;
    sweep_ = tiny ? std::vector<int64_t>{1, 10, 100, 1000}
                  : core::StandardLockSweep(base_.dbsize);
    model::SystemConfig fp_cfg = base_;
    args_.Apply(&fp_cfg);
    canonical_ = fp_cfg.ToString() + ";" + spec_.Describe() +
                 ";mgl_threshold=250;escalation=20;files=50";
  }

  Pass Run(uint64_t seed) override {
    return RunSeeds(ReplicationSeeds(seed, kSeedsPerPass), nullptr);
  }

  Pass RunTraced(uint64_t seed, LayerTrace* trace) override {
    return RunSeeds(ReplicationSeeds(seed, kSeedsPerPass), trace);
  }

  Pass Anchor(bool /*full*/) override { return RunSeeds({42}, nullptr); }

 private:
  using Grid = std::vector<std::vector<core::ReplicatedMetrics>>;
  inline static const std::vector<std::string> kLabels = {"flat", "mgl",
                                                          "mgl+files"};

  /// Runs the grid once per seed; traced when `trace` is set.
  Pass RunSeeds(const std::vector<uint64_t>& seeds, LayerTrace* trace) {
    Pass pass;
    std::vector<Grid> grids;
    const WallTimer pass_timer;
    for (uint64_t seed : seeds) grids.push_back(RunGrid(seed, trace, &pass));
    if (trace != nullptr) trace->pass_s = pass_timer.Seconds();
    const WallTimer report_timer;
    for (size_t i = 0; i < seeds.size(); ++i) {
      pass.grid += RenderGrid("ablation_mgl", static_cast<int64_t>(seeds[i]),
                              1, "ltot", sweep_, kLabels, grids[i]);
      Audit(kLabels, sweep_, grids[i], 1, &pass);
    }
    if (trace != nullptr) trace->report_write_s = report_timer.Seconds();
    return pass;
  }

  /// The bench's loop: every (strategy, ltot) cell through CellRunner, or
  /// through a direct engine call when traced.
  Grid RunGrid(uint64_t seed, LayerTrace* trace, Pass* pass) {
    args_.seed = static_cast<int64_t>(seed);
    Grid grid(kLabels.size(),
              std::vector<core::ReplicatedMetrics>(sweep_.size()));
    bench::CellRunner cells("ablation_mgl", args_, canonical_);
    for (size_t p = 0; p < sweep_.size(); ++p) {
      model::SystemConfig cfg = base_;
      cfg.ltot = sweep_[p];
      args_.Apply(&cfg);
      for (size_t s = 0; s < kLabels.size(); ++s) {
        const db::ExplicitSimulator::Options opt = OptionsFor(s, sweep_[p]);
        Result<core::SimulationMetrics> result =
            Status::Internal("cell not run");
        if (trace != nullptr) {
          const TracedCell cell =
              RunTracedCell<db::ExplicitSimulator>(cfg, spec_, seed, opt);
          Absorb(cell, /*core_engine=*/false, trace);
          result = cell.result;
        } else {
          result = cells.Run(
              static_cast<int>(s), static_cast<int>(p), sweep_[p], seed,
              [&](const fault::CellWatchdog*) {
                return db::ExplicitSimulator::RunOnce(cfg, spec_, seed, opt);
              });
        }
        ++pass->attempted;
        if (!result.ok()) {
          ++pass->failed;
          continue;
        }
        Merger merger;
        merger.Add(*result);
        grid[s][p] = merger.Finalize();
      }
    }
    cells.Finish();
    return grid;
  }

  db::ExplicitSimulator::Options OptionsFor(size_t s, int64_t ltot) const {
    if (s == 0) return flat_;
    if (s == 1) return mgl_;
    db::ExplicitSimulator::Options gamma = gamma_;
    gamma.num_files = std::min<int64_t>(50, ltot);
    return gamma;
  }

  model::SystemConfig base_ = model::SystemConfig::Table1Defaults();
  workload::WorkloadSpec spec_;
  db::ExplicitSimulator::Options flat_;
  db::ExplicitSimulator::Options mgl_;
  db::ExplicitSimulator::Options gamma_;
  std::vector<int64_t> sweep_;
  std::string canonical_;
  bench::BenchArgs args_;
};

/// bench_policy_shootout's grid: six victim policies plus detect+admission
/// across MPL 2-64 on the incremental engine with think time, one thread.
/// Timed passes run one replication per cell (the bench's default). The
/// seed-42 anchor runs the checked-in baseline's three replications: on
/// the cheap MPL points, or on every point when the run is at seed 42.
class ShootoutWorkload : public Workload {
 public:
  explicit ShootoutWorkload(bool tiny) {
    base_.ltot = 100;
    base_.maxtransize = 20;
    base_.think_time = 5.0;
    args_.quick = true;
    args_.allow_partial = true;
    if (tiny) args_.tmax = 2000.0;
    mpl_grid_ = tiny ? std::vector<int64_t>{2, 8}
                     : std::vector<int64_t>{2, 4, 8, 12, 16, 24, 32, 48, 64};
    for (int k = 0; k < db::kNumContentionPolicies; ++k) {
      db::ContentionOptions c = args_.Contention();
      c.policy = static_cast<db::ContentionPolicyKind>(k);
      c.admission.enabled = false;
      labels_.push_back(db::ContentionPolicyName(c.policy));
      contention_.push_back(c);
    }
    db::ContentionOptions admission = args_.Contention();
    admission.policy = db::ContentionPolicyKind::kDetectRequester;
    admission.admission.enabled = true;
    labels_.push_back("detect+admission");
    contention_.push_back(admission);
  }

  Pass Run(uint64_t seed) override {
    return RunGrid(seed, 1, mpl_grid_, nullptr);
  }

  Pass RunTraced(uint64_t seed, LayerTrace* trace) override {
    return RunGrid(seed, 1, mpl_grid_, trace);
  }

  Pass Anchor(bool full) override {
    if (full) return RunGrid(42, 3, mpl_grid_, nullptr);
    Pass pass = RunGrid(42, 3, {2, 4, 8}, nullptr);
    pass.complete = false;
    return pass;
  }

 private:
  Pass RunGrid(uint64_t seed, int reps, const std::vector<int64_t>& mpls,
               LayerTrace* trace) {
    args_.seed = static_cast<int64_t>(seed);
    args_.reps = reps;
    const std::vector<uint64_t> seeds = ReplicationSeeds(seed, reps);
    core::RunReport report;
    std::vector<std::vector<core::ReplicatedMetrics>> grid(
        labels_.size(), std::vector<core::ReplicatedMetrics>(mpls.size()));
    Pass pass;
    const WallTimer pass_timer;
    for (size_t s = 0; s < labels_.size(); ++s) {
      const core::CellPolicy policy = bench::MakeCellPolicy(
          args_, nullptr, static_cast<int>(s), &report);
      db::IncrementalSimulator::Options opt;
      opt.contention = contention_[s];
      for (size_t p = 0; p < mpls.size(); ++p) {
        model::SystemConfig cfg = base_;
        cfg.ntrans = mpls[p];
        args_.Apply(&cfg);
        workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
        spec.placement = model::Placement::kWorst;
        Merger merger;
        for (int r = 0; r < reps; ++r) {
          const uint64_t cell_seed = seeds[static_cast<size_t>(r)];
          Result<core::SimulationMetrics> result =
              Status::Internal("cell not run");
          if (trace != nullptr) {
            const TracedCell cell = RunTracedCell<db::IncrementalSimulator>(
                cfg, spec, cell_seed, opt);
            Absorb(cell, /*core_engine=*/false, trace);
            result = cell.result;
          } else {
            const core::CellKey key{static_cast<int>(s), static_cast<int>(p),
                                    r};
            result = core::RunCell(policy, key, cell_seed,
                                   [&](const fault::CellWatchdog*) {
                                     return db::IncrementalSimulator::RunOnce(
                                         cfg, spec, cell_seed, opt);
                                   })
                         .result;
          }
          ++pass.attempted;
          if (!result.ok()) {
            ++pass.failed;
            continue;
          }
          merger.Add(*result);
        }
        grid[s][p] = merger.Finalize();
      }
    }
    if (trace != nullptr) trace->pass_s = pass_timer.Seconds();
    const WallTimer report_timer;
    pass.grid = RenderGrid("policy_shootout", args_.seed, reps, "mpl", mpls,
                           labels_, grid);
    if (trace != nullptr) trace->report_write_s = report_timer.Seconds();
    Audit(labels_, mpls, grid, reps, &pass);
    return pass;
  }

  model::SystemConfig base_ = model::SystemConfig::Table1Defaults();
  std::vector<int64_t> mpl_grid_;
  std::vector<std::string> labels_;
  std::vector<db::ContentionOptions> contention_;
  bench::BenchArgs args_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, int threads,
                                       bool tiny) {
  const model::SystemConfig table1 = model::SystemConfig::Table1Defaults();
  if (name == "fig02_serial") {
    // bench_fig02_npros_throughput's series.
    std::vector<bench::Series> series;
    for (int64_t npros : {1, 2, 5, 10, 20, 30}) {
      model::SystemConfig cfg = table1;
      cfg.npros = npros;
      series.push_back({StrFormat("npros=%lld", (long long)npros), cfg,
                        workload::WorkloadSpec::Base(cfg), {}});
    }
    return std::make_unique<FigureWorkload>("fig02", std::move(series),
                                            threads > 0 ? threads : 1, tiny);
  }
  if (name == "fig12_parallel") {
    // bench_fig12_many_txns's series.
    model::SystemConfig base = table1;
    base.ntrans = 200;
    base.npros = 20;
    base.maxtransize = 500;
    std::vector<bench::Series> series;
    for (model::Placement placement :
         {model::Placement::kBest, model::Placement::kRandom,
          model::Placement::kWorst}) {
      workload::WorkloadSpec spec = workload::WorkloadSpec::Base(base);
      spec.placement = placement;
      series.push_back({model::PlacementToString(placement), base, spec, {}});
    }
    return std::make_unique<FigureWorkload>("fig12", std::move(series),
                                            threads > 0 ? threads : 4, tiny);
  }
  if (name == "explicit_mgl") return std::make_unique<MglWorkload>(tiny);
  if (name == "incremental_contention") {
    return std::make_unique<ShootoutWorkload>(tiny);
  }
  return nullptr;
}

void WriteLayers(obs::JsonWriter& w, const LayerTrace& t) {
  std::vector<double> cells = t.cell_s;
  std::sort(cells.begin(), cells.end());
  double busy = 0.0;
  for (double c : cells) busy += c;
  const double capacity = t.pass_s * static_cast<double>(t.threads);
  auto ns_per_event = [](double s, uint64_t events) {
    return events > 0 ? 1e9 * s / static_cast<double>(events) : 0.0;
  };
  w.BeginObject();
  w.Key("core.engine.run_s").Value(t.core_run_s);
  w.Key("core.engine.ns_per_event")
      .Value(ns_per_event(t.core_run_s, t.core_events));
  w.Key("db.engine.run_s").Value(t.db_run_s);
  w.Key("db.engine.ns_per_event")
      .Value(ns_per_event(t.db_run_s, t.db_events));
  w.Key("sim.events.npros1").Value(t.events_npros1);
  w.Key("sim.events.npros30").Value(t.events_npros30);
  w.Key("sim.observer_events").Value(t.observer_events);
  w.Key("sim.event_queue_hwm").Value(t.queue_hwm);
  w.Key("core.runner.busy_frac")
      .Value(capacity > 0.0 ? busy / capacity : 0.0);
  w.Key("core.runner.idle_s").Value(std::max(0.0, capacity - busy));
  w.Key("core.runner.cell_s.p50")
      .Value(cells.empty() ? 0.0 : cells[(cells.size() - 1) / 2]);
  w.Key("core.runner.cell_s.max").Value(cells.empty() ? 0.0 : cells.back());
  w.Key("core.runner.spawn_s").Value(t.spawn_s);
  w.Key("lockmgr.lock_requests").Value(t.lock_requests);
  w.Key("lockmgr.grant_frac")
      .Value(t.lock_requests > 0 ? static_cast<double>(t.lock_grants) /
                                       static_cast<double>(t.lock_requests)
                                 : 0.0);
  w.Key("db.txn_restarts").Value(t.restarts);
  w.Key("db.deadlock_aborts").Value(t.deadlock_aborts);
  w.Key("db.useful_frac")
      .Value(t.completed + t.restarts > 0
                 ? static_cast<double>(t.completed) /
                       static_cast<double>(t.completed + t.restarts)
                 : 0.0);
  w.Key("model.yao_sweep_s").Value(t.yao_sweep_s);
  w.Key("obs.report_write_s").Value(t.report_write_s);
  w.EndObject();
}

/// Folds a pass's accounting into the run totals. A pass whose outputs
/// failed a check counts every one of its cells as failed.
void Count(const Pass& pass, int64_t* attempted, int64_t* failed,
           std::vector<std::string>* errors) {
  *attempted += pass.attempted;
  if (pass.error.empty()) {
    *failed += pass.failed;
  } else {
    *failed += pass.attempted;
    errors->push_back(pass.error);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  int64_t seed = 42;
  double seconds = 10.0;
  int64_t threads = 0;
  int64_t min_passes = 2;
  bool trace = false;
  bool setup = false;
  bool tiny = false;
  FlagParser parser;
  parser.AddString("workload", &workload_name, "",
                   "fig02_serial | fig12_parallel | explicit_mgl | "
                   "incremental_contention");
  parser.AddInt64("seed", &seed, 42, "simulation seed of the timed passes");
  parser.AddDouble("seconds", &seconds, 10.0,
                   "start passes only while they end within this time");
  parser.AddInt64("threads", &threads, 0,
                  "worker threads for the figure grids; 0 = the workload's "
                  "own (1 for fig02_serial, 4 for fig12_parallel)");
  parser.AddInt64("min_passes", &min_passes, 2,
                  "run at least this many passes");
  parser.AddBool("trace", &trace, false,
                 "alternate timed and traced passes; report per-layer "
                 "metrics");
  parser.AddBool("setup", &setup, false,
                 "build the workload and its runner, print the time, exit");
  parser.AddBool("tiny", &tiny, false, "shrink every grid (self-test)");
  const Status parsed = parser.Parse(argc, argv);
  if (parsed.code() == StatusCode::kFailedPrecondition) return 0;
  if (!parsed.ok()) {
    std::cerr << parsed << "\n" << parser.UsageString(argv[0]);
    return 2;
  }
  SetLogThreshold(LogLevel::kWarning);
  const std::unique_ptr<Workload> workload =
      MakeWorkload(workload_name, static_cast<int>(threads), tiny);
  if (workload == nullptr) {
    std::cerr << "unknown --workload '" << workload_name << "'\n"
              << parser.UsageString(argv[0]);
    return 2;
  }

  std::ostringstream os;
  obs::JsonWriter w(os);
  w.BeginObject();
  w.Key("workload").Value(workload_name);
  w.Key("threads").Value(static_cast<int64_t>(workload->threads()));
  w.Key("build_type").Value(std::string(PERFBENCH_BUILD_TYPE));
  w.Key("compiler").Value(std::string(PERFBENCH_COMPILER));
  if (setup) {
    // Everything a timed pass has before its first cell dispatch: the
    // workload's grid definition and a runner with its workers started.
    core::ParallelRunner runner(workload->threads());
    if (workload->threads() > 1) {
      runner.ParallelFor(static_cast<size_t>(workload->threads()),
                         [](size_t) {});
    }
    w.Key("ready_monotonic_s").Value(MonotonicNow());
    w.EndObject();
    std::printf("PERFBENCH %s\n", os.str().c_str());
    return 0;
  }

  const uint64_t run_seed = static_cast<uint64_t>(seed);
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  // The anchor runs first, untimed, so it also warms caches and the heap.
  const Pass anchor = workload->Anchor(run_seed == 42);
  Count(anchor, &attempted, &failed, &errors);
  Pass first;
  // Serial passes sample every vCPU evenly; worker pools already spread.
  std::unique_ptr<CpuRotation> rotation;
  if (workload->threads() == 1) {
    rotation = std::make_unique<CpuRotation>(std::chrono::milliseconds(500));
  }
  // Starts another pass only if it should end within `seconds`, judged by
  // the previous one, so a run lasts about `seconds` whatever its pass size.
  const WallTimer budget;
  double last_s = 0.0;
  auto another = [&](int64_t n) {
    return n < min_passes || budget.Seconds() + last_s <= seconds;
  };
  if (!trace) {
    w.Key("passes").BeginArray();
    for (int64_t n = 0; another(n); ++n) {
      const double cpu0 = CpuSeconds();
      const WallTimer timer;
      Pass pass = workload->Run(run_seed);
      if (n == 0) {
        first = pass;
      } else if (pass.grid != first.grid || pass.events != first.events) {
        pass.error = StrFormat("pass %lld differs from pass 0", (long long)n);
      }
      last_s = timer.Seconds();
      const double cpu_s = CpuSeconds() - cpu0;
      w.BeginObject();
      w.Key("cpu_s").Value(cpu_s);
      w.Key("events").Value(pass.events);
      w.EndObject();
      Count(pass, &attempted, &failed, &errors);
    }
    w.EndArray();
    w.Key("peak_rss_kb").Value(PeakRssKb());
  } else {
    w.Key("pairs").BeginArray();
    for (int64_t n = 0; another(n); ++n) {
      const WallTimer untraced_timer;
      Pass untraced = workload->Run(run_seed);
      const double untraced_s = untraced_timer.Seconds();
      LayerTrace layers;
      const WallTimer traced_timer;
      Pass traced = workload->RunTraced(run_seed, &layers);
      const double traced_s = traced_timer.Seconds();
      last_s = untraced_s + traced_s;
      if (traced.grid != untraced.grid || traced.events != untraced.events) {
        traced.error = "traced model outputs differ from the untraced pass";
      }
      if (n == 0) first = untraced;
      w.BeginObject();
      w.Key("untraced_s").Value(untraced_s);
      w.Key("traced_s").Value(traced_s);
      w.Key("layers");
      WriteLayers(w, layers);
      w.EndObject();
      Count(untraced, &attempted, &failed, &errors);
      Count(traced, &attempted, &failed, &errors);
    }
    w.EndArray();
  }
  w.Key("anchor").Raw(anchor.grid);
  w.Key("anchor_complete").Value(anchor.complete);
  w.Key("attempted").Value(attempted);
  w.Key("failed").Value(failed);
  w.Key("errors").BeginArray();
  for (const std::string& e : errors) w.Value(e);
  w.EndArray();
  w.EndObject();
  std::printf("PERFBENCH %s\n", os.str().c_str());
  return 0;
}
