#include "sim/priority_server.h"

#include <utility>

#include "sim/invariants.h"
#include "util/logging.h"

namespace granulock::sim {

PriorityServer::PriorityServer(Simulator* sim, std::string name)
    : sim_(sim), name_(std::move(name)) {
  GRANULOCK_CHECK(sim_ != nullptr);
}

void PriorityServer::Submit(ServiceClass cls, SimTime service,
                            Completion on_complete) {
  GRANULOCK_CHECK_GE(service, 0.0) << "negative service demand on " << name_;
  ++accepted_[ClassIndex(cls)];
  queues_[ClassIndex(cls)].push_back(
      Job{cls, service, std::move(on_complete)});
  if (current_.has_value()) {
    // Preemptive-resume: lock work interrupts transaction work.
    if (cls == ServiceClass::kLock &&
        current_->cls == ServiceClass::kTransaction) {
      PreemptCurrent();
      StartNextIfIdle();
    }
    return;
  }
  StartNextIfIdle();
}

void PriorityServer::StartNextIfIdle() {
  if (current_.has_value()) return;
  for (int c = 0; c < kNumServiceClasses; ++c) {
    if (!queues_[c].empty()) {
      Job job = std::move(queues_[c].front());
      queues_[c].pop_front();
      BeginService(std::move(job));
      return;
    }
  }
}

void PriorityServer::BeginService(Job job) {
  GRANULOCK_CHECK(!current_.has_value());
  current_ = std::move(job);
  NotifyTransition(/*entering=*/true, current_->cls);
  service_start_ = sim_->Now();
  completion_event_ =
      sim_->ScheduleAfter(current_->remaining, [this] { FinishCurrent(); });
}

void PriorityServer::FinishCurrent() {
  Completion done = RetireCurrent();
  StartNextIfIdle();
  if (done) done();
}

PriorityServer::Completion PriorityServer::RetireCurrent() {
  GRANULOCK_CHECK(current_.has_value());
  const int c = ClassIndex(current_->cls);
  busy_time_[c] += sim_->Now() - service_start_;
  ++completed_[c];
  ++finished_[c];
  GRANULOCK_DCHECK_LE(finished_[c], accepted_[c])
      << "server " << name_ << " finished more class-" << c
      << " jobs than were submitted";
  NotifyTransition(/*entering=*/false, current_->cls);
  Completion done = std::move(current_->on_complete);
  current_.reset();
  return done;
}

void PriorityServer::BeginEpoch(SimTime per_node) {
  ++accepted_[ClassIndex(ServiceClass::kLock)];
  if (current_.has_value()) {
    GRANULOCK_CHECK(current_->cls == ServiceClass::kTransaction)
        << "server " << name_ << " is already serving lock work";
    PreemptCurrent();
  }
  current_ = Job{ServiceClass::kLock, per_node, Completion()};
  NotifyTransition(/*entering=*/true, ServiceClass::kLock);
  service_start_ = sim_->Now();
}

void PriorityServer::PreemptCurrent() {
  GRANULOCK_CHECK(current_.has_value());
  sim_->Cancel(completion_event_);
  const SimTime served = sim_->Now() - service_start_;
  const int c = ClassIndex(current_->cls);
  busy_time_[c] += served;
  NotifyTransition(/*entering=*/false, current_->cls);
  Job job = std::move(*current_);
  current_.reset();
  job.remaining -= served;
  if (job.remaining < 0.0) job.remaining = 0.0;
  // Resume at the head of its class queue so FCFS order is preserved.
  queues_[c].push_front(std::move(job));
}

double PriorityServer::BusyTime(ServiceClass cls) const {
  double t = busy_time_[ClassIndex(cls)];
  if (current_.has_value() && current_->cls == cls) {
    t += sim_->Now() - service_start_;
  }
  return t;
}

double PriorityServer::TotalBusyTime() const {
  return BusyTime(ServiceClass::kLock) + BusyTime(ServiceClass::kTransaction);
}

uint64_t PriorityServer::CompletedJobs(ServiceClass cls) const {
  return completed_[ClassIndex(cls)];
}

void PriorityServer::ResetStats() {
  for (int c = 0; c < kNumServiceClasses; ++c) {
    busy_time_[c] = 0.0;
    completed_[c] = 0;
  }
  // Drop the already-delivered portion of the in-progress job from the
  // post-reset accounting window.
  if (current_.has_value()) {
    service_start_ = sim_->Now();
    // Note: `remaining` already reflects only future demand because the
    // completion event was scheduled from the original start; adjust it so
    // the event time stays consistent. The completion event encodes the
    // absolute finish time, so nothing further is needed here.
  }
}

size_t PriorityServer::QueueLength(ServiceClass cls) const {
  return queues_[ClassIndex(cls)].size();
}

void PriorityServer::CheckConsistency() const {
  for (int c = 0; c < kNumServiceClasses; ++c) {
    // Conservation: accepted == finished + queued + in-service, per class.
    const uint64_t in_service =
        current_.has_value() && ClassIndex(current_->cls) == c ? 1 : 0;
    GRANULOCK_AUDIT_CHECK_EQ(accepted_[c],
                             finished_[c] + queues_[c].size() + in_service)
        << "server " << name_ << " class " << c << ": accepted="
        << accepted_[c] << " finished=" << finished_[c] << " queued="
        << queues_[c].size() << " in_service=" << in_service;
    GRANULOCK_AUDIT_CHECK_GE(busy_time_[c], 0.0)
        << "server " << name_ << " class " << c;
    // The windowed completion counter can never exceed the lifetime one.
    GRANULOCK_AUDIT_CHECK_LE(completed_[c], finished_[c])
        << "server " << name_ << " class " << c;
    for (const Job& job : queues_[c]) {
      GRANULOCK_AUDIT_CHECK_GE(job.remaining, 0.0)
          << "server " << name_ << " queued job in class " << c;
    }
  }
  if (current_.has_value()) {
    GRANULOCK_AUDIT_CHECK_GE(current_->remaining, 0.0)
        << "server " << name_ << " in-service job";
    GRANULOCK_AUDIT_CHECK_LE(service_start_, sim_->Now())
        << "server " << name_ << " service started in the future";
  }
}

}  // namespace granulock::sim
