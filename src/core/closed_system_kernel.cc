#include "core/closed_system_kernel.h"

#include <algorithm>
#include <string>

#include "util/strings.h"

namespace granulock::core {

void TxnCore::Reset() {
  id = 0;
  arrival_time = 0.0;
  subtxns_remaining = 0;
  pending_since = 0.0;
  lock_since = 0.0;
  stage_start = 0.0;
  pending_wait = 0.0;
  lock_wait = 0.0;
  io_span_sum = 0.0;
  cpu_span_sum = 0.0;
  cpu_done_sum = 0.0;
  sub_cpu_done.clear();
}

ClosedSystemKernel::ClosedSystemKernel(const model::SystemConfig& cfg,
                                       obs::Hooks obs,
                                       sim::TraceRecorder* trace,
                                       const fault::CellWatchdog* watchdog)
    : cfg_(cfg), obs_(obs), trace_(trace), watchdog_(watchdog) {}

Status ClosedSystemKernel::Begin(const workload::WorkloadSpec* spec) {
  if (ran_) {
    return Status::FailedPrecondition("Run() may only be called once");
  }
  ran_ = true;
  wall_timer_.Reset();
  GRANULOCK_RETURN_NOT_OK(cfg_.Validate());
  if (spec != nullptr) {
    GRANULOCK_RETURN_NOT_OK(spec->Validate(cfg_));
    txn_factory_.emplace(cfg_, *spec);
  }
  return Status::OK();
}

void ClosedSystemKernel::OpenPoolsAndSampler() {
  cpu_.emplace(&sim_, "cpu", cfg_.npros);
  io_.emplace(&sim_, "io", cfg_.npros);
  if (obs::MetricsRegistry* reg = obs_.registry) {
    ctr_txn_created_ = reg->GetCounter("engine.txn_created");
    ctr_lock_requests_ = reg->GetCounter("engine.lock_requests");
    ctr_lock_denials_ = reg->GetCounter("engine.lock_denials");
    ctr_lock_grants_ = reg->GetCounter("engine.lock_grants");
    ctr_subtxns_done_ = reg->GetCounter("engine.subtxns_completed");
    ctr_txn_completed_ = reg->GetCounter("engine.txn_completed");
    hist_response_ = reg->GetHistogram(
        "engine.response_time",
        {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000});
  }
  if (obs::TimeSeriesSampler* sampler = obs_.sampler) {
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
}

void ClosedSystemKernel::OpenWindow() {
  window_.active.Start(0.0, 0.0);
  window_.blocked.Start(0.0, 0.0);
  window_.pending.Start(0.0, 0.0);
  window_.admission_held.Start(0.0, 0.0);
  window_.start = cfg_.warmup;
  if (cfg_.warmup > 0.0) {
    sim_.ScheduleAt(cfg_.warmup, [this] { BeginMeasurement(); });
  }
}

SimulationMetrics ClosedSystemKernel::Finish() {
  if (watchdog_ != nullptr && watchdog_->active()) ScheduleWatchdogPoll();
  sim_.RunUntil(cfg_.tmax);

  const MeasurementWindow& w = window_;
  SimulationMetrics m;
  m.measured_time = cfg_.tmax - w.start;
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
  m.totcom = w.totcom;
  m.throughput = m.measured_time > 0.0
                     ? static_cast<double>(w.totcom) / m.measured_time
                     : 0.0;
  m.response_time = w.response.Mean();
  m.response_time_stddev = w.response.StdDev();
  m.response_p50 = w.response_quantiles.Quantile(0.50);
  m.response_p95 = w.response_quantiles.Quantile(0.95);
  m.response_p99 = w.response_quantiles.Quantile(0.99);
  m.lock_requests = w.lock_requests;
  m.lock_denials = w.lock_denials;
  m.denial_rate = w.lock_requests > 0
                      ? static_cast<double>(w.lock_denials) /
                            static_cast<double>(w.lock_requests)
                      : 0.0;
  m.avg_active = w.active.Average(cfg_.tmax);
  m.avg_blocked = w.blocked.Average(cfg_.tmax);
  m.avg_pending = w.pending.Average(cfg_.tmax);
  m.cpu_utilization =
      m.measured_time > 0.0 ? m.totcpus_sum / (npros * m.measured_time)
                            : 0.0;
  m.io_utilization =
      m.measured_time > 0.0 ? m.totios_sum / (npros * m.measured_time) : 0.0;
  m.deadlock_aborts = w.deadlock_aborts;
  m.txn_restarts = w.txn_restarts;
  m.txn_sacrificed = w.txn_sacrificed;
  m.avg_admission_held = w.admission_held.Average(cfg_.tmax);
  m.events_executed = sim_.ExecutedEvents();
  m.phase_pending_wait = w.phase_pending.Mean();
  m.phase_lock_wait = w.phase_lock.Mean();
  m.phase_io_service = w.phase_io.Mean();
  m.phase_cpu_service = w.phase_cpu.Mean();
  m.phase_sync_wait = w.phase_sync.Mean();

  PublishRunProfile(wall_timer_.Seconds());
  return m;
}

void ClosedSystemKernel::BeginMeasurement() {
  cpu_->ResetStats();
  io_->ResetStats();
  MeasurementWindow& w = window_;
  w.totcom = 0;
  w.lock_requests = 0;
  w.lock_denials = 0;
  w.deadlock_aborts = 0;
  w.txn_restarts = 0;
  w.txn_sacrificed = 0;
  w.response.Reset();
  w.response_quantiles.Reset();
  w.phase_pending.Reset();
  w.phase_lock.Reset();
  w.phase_io.Reset();
  w.phase_cpu.Reset();
  w.phase_sync.Reset();
  sample_totcom_ = 0;
  std::fill(sample_cpu_busy_.begin(), sample_cpu_busy_.end(), 0.0);
  std::fill(sample_io_busy_.begin(), sample_io_busy_.end(), 0.0);
  const double now = sim_.Now();
  w.active.ResetWindow(now);
  w.blocked.ResetWindow(now);
  w.pending.ResetWindow(now);
  w.admission_held.ResetWindow(now);
  w.start = now;
}

void ClosedSystemKernel::SampleTick() {
  obs::TimeSeriesSampler* sampler = obs_.sampler;
  const double now = sim_.Now();
  const double dt = now - sample_time_;
  std::vector<double> row;
  row.reserve(4 + 2 * static_cast<size_t>(cfg_.npros));
  row.push_back(window_.active.current());
  row.push_back(window_.blocked.current());
  row.push_back(window_.pending.current());
  // Interval deltas are clamped at 0: the warmup reset zeroes the
  // underlying totals mid-stream, so the one row straddling the warmup
  // boundary under-reports rather than going negative.
  const auto rate = [dt](double delta) {
    return dt > 0.0 ? std::max(0.0, delta) / dt : 0.0;
  };
  row.push_back(rate(static_cast<double>(window_.totcom - sample_totcom_)));
  for (int64_t n = 0; n < cfg_.npros; ++n) {
    const double busy = cpu_->node(n).TotalBusyTime();
    double& last = sample_cpu_busy_[static_cast<size_t>(n)];
    row.push_back(rate(busy - last));
    last = busy;
  }
  for (int64_t n = 0; n < cfg_.npros; ++n) {
    const double busy = io_->node(n).TotalBusyTime();
    double& last = sample_io_busy_[static_cast<size_t>(n)];
    row.push_back(rate(busy - last));
    last = busy;
  }
  sample_totcom_ = window_.totcom;
  sample_time_ = now;
  sampler->Push(now, std::move(row));
  const double iv = sampler->interval();
  if (now + iv <= cfg_.tmax) {
    sim_.ScheduleObserverAfter(iv, [this] { SampleTick(); });
  }
}

bool ClosedSystemKernel::PushContentionSample(double occupancy, Edges edges) {
  const double now = sim_.Now();
  const double ntrans = static_cast<double>(cfg_.ntrans);
  const double blocked_fraction =
      ntrans > 0.0 ? window_.blocked.current() / ntrans : 0.0;
  obs_.contention->OnSample(now, blocked_fraction, occupancy,
                            std::move(edges), window_.deadlock_aborts,
                            window_.txn_restarts, window_.txn_sacrificed);
  return now + obs_.contention->options().sample_interval <= cfg_.tmax;
}

void ClosedSystemKernel::ScheduleWatchdogPoll() {
  sim_.ScheduleObserverAfter(watchdog_->poll_interval(), [this] {
    watchdog_->Poll();  // throws to cancel the cell
    ScheduleWatchdogPoll();
  });
}

void ClosedSystemKernel::PublishRunProfile(double wall_seconds) {
  obs::MetricsRegistry* reg = obs_.registry;
  if (reg == nullptr) return;
  const double events = static_cast<double>(sim_.ExecutedEvents());
  reg->GetGauge("sim.events_executed")->Set(events);
  reg->GetGauge("sim.events_scheduled")
      ->Set(static_cast<double>(sim_.ScheduledEvents()));
  reg->GetGauge("sim.events_cancelled")
      ->Set(static_cast<double>(sim_.CancelledEvents()));
  reg->GetGauge("sim.observer_events")
      ->Set(static_cast<double>(sim_.ExecutedObserverEvents()));
  reg->GetGauge("sim.event_queue_hwm")
      ->Set(static_cast<double>(sim_.MaxPendingEvents()));
  reg->GetGauge("engine.wall_seconds")->Set(wall_seconds);
  reg->GetGauge("engine.events_per_sec")
      ->Set(wall_seconds > 0.0 ? events / wall_seconds : 0.0);
}

void ClosedSystemKernel::InitTxn(TxnCore* txn, Rng& rng) {
  txn->id = next_txn_id_++;
  txn_factory_->Generate(rng, &txn->params);
  txn->arrival_time = sim_.Now();
  if (ctr_txn_created_ != nullptr) ctr_txn_created_->Increment();
  Trace(txn->id, sim::TraceEventType::kCreated, txn->params.nu);
}

void ClosedSystemKernel::CountLockRequest(uint64_t txn, int64_t detail) {
  ++window_.lock_requests;
  if (ctr_lock_requests_ != nullptr) ctr_lock_requests_->Increment();
  Trace(txn, sim::TraceEventType::kLockRequested, detail);
}

void ClosedSystemKernel::ClosePendingWait(TxnCore* txn) {
  const double now = sim_.Now();
  txn->pending_wait += now - txn->pending_since;
  txn->lock_since = now;
  if (obs_.spans != nullptr) {
    obs_.spans->Record(txn->id, obs::Phase::kPendingWait,
                       obs::kLifecycleTrack, txn->pending_since, now);
  }
}

void ClosedSystemKernel::CountDenial(uint64_t txn, int64_t detail) {
  ++window_.lock_denials;
  if (ctr_lock_denials_ != nullptr) ctr_lock_denials_->Increment();
  Trace(txn, sim::TraceEventType::kLockDenied, detail);
}

void ClosedSystemKernel::Unblock(TxnCore* txn) {
  const double now = sim_.Now();
  txn->lock_wait += now - txn->lock_since;
  if (obs_.spans != nullptr) {
    obs_.spans->Record(txn->id, obs::Phase::kLockWait, obs::kLifecycleTrack,
                       txn->lock_since, now);
  }
  if (obs_.contention != nullptr) obs_.contention->OnUnblock(txn->id, now);
}

void ClosedSystemKernel::BeginStage(TxnCore* txn) {
  const double now = sim_.Now();
  txn->lock_wait += now - txn->lock_since;
  txn->stage_start = now;
  txn->cpu_done_sum = 0.0;
  if (obs_.spans != nullptr) {
    obs_.spans->Record(txn->id, obs::Phase::kLockWait, obs::kLifecycleTrack,
                       txn->lock_since, now);
  }
  if (ctr_lock_grants_ != nullptr) ctr_lock_grants_->Increment();
}

double ClosedSystemKernel::OnIoDone(TxnCore* txn, int32_t node) {
  const double io_done = sim_.Now();
  txn->io_span_sum += io_done - txn->stage_start;
  if (obs_.spans != nullptr) {
    obs_.spans->Record(txn->id, obs::Phase::kIoService, node,
                       txn->stage_start, io_done);
  }
  return io_done;
}

bool ClosedSystemKernel::OnCpuDone(TxnCore* txn, int32_t node,
                                   double io_done) {
  const double cpu_done = sim_.Now();
  txn->cpu_span_sum += cpu_done - io_done;
  txn->cpu_done_sum += cpu_done;
  if (obs_.spans != nullptr) {
    obs_.spans->Record(txn->id, obs::Phase::kCpuService, node, io_done,
                       cpu_done);
    txn->sub_cpu_done.emplace_back(node, cpu_done);
  }
  GRANULOCK_CHECK_GT(txn->subtxns_remaining, 0);
  if (ctr_subtxns_done_ != nullptr) ctr_subtxns_done_->Increment();
  if (--txn->subtxns_remaining > 0) return false;
  // The stage has joined: every sub-transaction's remaining time until
  // now is synchronization wait (zero for the last one to finish).
  if (obs_.spans != nullptr) {
    for (const auto& [sub_node, sub_done] : txn->sub_cpu_done) {
      obs_.spans->Record(txn->id, obs::Phase::kSyncWait, sub_node, sub_done,
                         cpu_done);
    }
    txn->sub_cpu_done.clear();
  }
  return true;
}

void ClosedSystemKernel::RecordCompletion(const TxnCore& txn) {
  RecordCompletion(txn, sim_.Now() - txn.cpu_done_sum /
                                         static_cast<double>(txn.params.pu));
}

void ClosedSystemKernel::RecordCompletion(const TxnCore& txn,
                                          double sync_wait) {
  const double now = sim_.Now();
  const double response = now - txn.arrival_time;
  CountCompletion(response);
  const double pu = static_cast<double>(txn.params.pu);
  window_.phase_pending.Add(txn.pending_wait);
  window_.phase_lock.Add(txn.lock_wait);
  window_.phase_io.Add(txn.io_span_sum / pu);
  window_.phase_cpu.Add(txn.cpu_span_sum / pu);
  window_.phase_sync.Add(sync_wait);
  if (ctr_txn_completed_ != nullptr) ctr_txn_completed_->Increment();
  if (hist_response_ != nullptr) hist_response_->Observe(response);
  if (obs_.spans != nullptr) {
    obs_.spans->TxnComplete(txn.id, txn.arrival_time, now, txn.params.pu);
  }
}

void ClosedSystemKernel::CountCompletion(double response) {
  ++window_.totcom;
  window_.response.Add(response);
  window_.response_quantiles.Add(response);
}

void ClosedSystemKernel::CheckConsistency() const {
  cpu_->CheckConsistency();
  io_->CheckConsistency();
}

}  // namespace granulock::core
