#include "sim/priority_server.h"

#include <utility>

#include "sim/invariants.h"
#include "util/logging.h"

namespace granulock::sim {

PriorityServer::PriorityServer(const Simulator* sim, std::string name)
    : sim_(sim), name_(std::move(name)) {
  GRANULOCK_CHECK(sim_ != nullptr);
}

bool PriorityServer::AcceptTxn(SimTime now, SimTime service,
                               Completion on_complete) {
  GRANULOCK_CHECK_GE(service, 0.0) << "negative service demand on " << name_;
  ++accepted_[kTxnClass];
  if (busy()) {
    queue_.push_back(Job{service, std::move(on_complete)});
    return false;
  }
  has_txn_ = true;
  txn_remaining_ = service;
  txn_done_ = std::move(on_complete);
  service_start_ = now;
  return true;
}

PriorityServer::Completion PriorityServer::FinishTxn(SimTime now) {
  GRANULOCK_CHECK(TxnInService()) << "server " << name_;
  busy_time_[kTxnClass] += now - service_start_;
  ++completed_[kTxnClass];
  ++finished_[kTxnClass];
  GRANULOCK_DCHECK_LE(finished_[kTxnClass], accepted_[kTxnClass])
      << "server " << name_
      << " finished more transaction jobs than were submitted";
  Completion done = std::move(txn_done_);
  has_txn_ = false;
  if (!queue_.empty()) {
    TakeQueueHead();
    service_start_ = now;
  }
  return done;
}

void PriorityServer::TakeQueueHead() {
  Job& next = queue_.front();
  has_txn_ = true;
  txn_remaining_ = next.remaining;
  txn_done_ = std::move(next.on_complete);
  queue_.pop_front();
}

bool PriorityServer::BeginShare(SimTime now) {
  GRANULOCK_CHECK(!lock_) << "server " << name_
                          << " is already serving lock work";
  const bool was_busy = has_txn_;
  if (has_txn_) {
    // Preemptive-resume: credit the service so far and keep the rest.
    const SimTime served = now - service_start_;
    busy_time_[kTxnClass] += served;
    txn_remaining_ -= served;
    if (txn_remaining_ < 0.0) txn_remaining_ = 0.0;
  }
  ++accepted_[kLockClass];
  lock_ = true;
  service_start_ = now;
  return was_busy;
}

bool PriorityServer::EndShare(SimTime now, bool next_share) {
  GRANULOCK_CHECK(lock_) << "server " << name_ << " serves no lock share";
  busy_time_[kLockClass] += now - service_start_;
  ++completed_[kLockClass];
  ++finished_[kLockClass];
  service_start_ = now;
  if (next_share) {
    ++accepted_[kLockClass];
    return false;
  }
  lock_ = false;
  if (!has_txn_ && !queue_.empty()) TakeQueueHead();
  return has_txn_;
}

double PriorityServer::BusyTime(ServiceClass cls) const {
  const int c = static_cast<int>(cls);
  double t = busy_time_[c];
  const bool in_service = c == kLockClass ? lock_ : TxnInService();
  if (in_service) t += sim_->Now() - service_start_;
  return t;
}

double PriorityServer::TotalBusyTime() const {
  return BusyTime(ServiceClass::kLock) + BusyTime(ServiceClass::kTransaction);
}

uint64_t PriorityServer::CompletedJobs(ServiceClass cls) const {
  return completed_[static_cast<int>(cls)];
}

void PriorityServer::ResetStats(SimTime now) {
  for (int c = 0; c < kNumServiceClasses; ++c) {
    busy_time_[c] = 0.0;
    completed_[c] = 0;
  }
  // Restarts the in-service job's accounting at `now` but leaves its
  // remaining demand as it was at its last (re)start. Its completion time
  // is unchanged. If it is preempted later, though, only the post-reset
  // service is deducted, so it is served its pre-reset portion twice. This
  // is a known defect; the pinned model outputs depend on it.
  if (busy()) service_start_ = now;
}

size_t PriorityServer::QueueLength(ServiceClass cls) const {
  if (cls == ServiceClass::kLock) return 0;
  return queue_.size() + (lock_ && has_txn_ ? 1 : 0);
}

void PriorityServer::CheckConsistency() const {
  for (int c = 0; c < kNumServiceClasses; ++c) {
    // Conservation: accepted == finished + queued + in-service, per class
    // (a preempted transaction job counts as queued).
    const uint64_t held = c == kLockClass ? (lock_ ? 1 : 0)
                                          : queue_.size() + (has_txn_ ? 1 : 0);
    GRANULOCK_AUDIT_CHECK_EQ(accepted_[c], finished_[c] + held)
        << "server " << name_ << " class " << c << ": accepted="
        << accepted_[c] << " finished=" << finished_[c] << " held=" << held;
    GRANULOCK_AUDIT_CHECK_GE(busy_time_[c], 0.0)
        << "server " << name_ << " class " << c;
    // The windowed completion counter can never exceed the lifetime one.
    GRANULOCK_AUDIT_CHECK_LE(completed_[c], finished_[c])
        << "server " << name_ << " class " << c;
  }
  for (const Job& job : queue_) {
    GRANULOCK_AUDIT_CHECK_GE(job.remaining, 0.0)
        << "server " << name_ << " queued transaction job";
  }
  if (has_txn_) {
    GRANULOCK_AUDIT_CHECK_GE(txn_remaining_, 0.0)
        << "server " << name_ << " head transaction job";
  }
  if (busy()) {
    GRANULOCK_AUDIT_CHECK_LE(service_start_, sim_->Now())
        << "server " << name_ << " service started in the future";
  }
}

}  // namespace granulock::sim
