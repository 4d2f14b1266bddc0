#include "sim/server_pool.h"

#include <utility>

#include "sim/invariants.h"
#include "util/logging.h"

namespace granulock::sim {

ServerPool::ServerPool(Simulator* sim, const std::string& prefix,
                       int64_t size)
    : sim_(sim) {
  GRANULOCK_CHECK(sim_ != nullptr);
  GRANULOCK_CHECK_GE(size, 1) << "pool " << prefix << " needs a node";
  for (int64_t i = 0; i < size; ++i) {
    nodes_.emplace_back(sim_, prefix + std::to_string(i));
    nodes_.back().SetBusyUnion(&union_);
  }
}

void ServerPool::SubmitShared(SimTime per_node, Completion done) {
  GRANULOCK_CHECK_GE(per_node, 0.0) << "negative shared lock demand";
  shared_.push_back(SharedJob{per_node, std::move(done)});
  // Behind an epoch in flight the job waits, as it would in every node's
  // lock queue.
  if (shared_.size() == 1) BeginEpoch();
}

void ServerPool::BeginEpoch() {
  const SimTime per_node = shared_.front().per_node;
  for (PriorityServer& node : nodes_) node.BeginEpoch(per_node);
  epoch_event_ = sim_->ScheduleAfter(per_node, [this] { EndEpoch(); });
}

void ServerPool::EndEpoch() {
  epoch_event_ = 0;
  Completion done = std::move(shared_.front().done);
  shared_.pop_front();
  ++epochs_finished_;
  for (PriorityServer& node : nodes_) {
    node.RetireCurrent();
    // Lock work outranks the preempted transaction work, so a queued
    // shared job starts at once on every node.
    if (shared_.empty()) node.StartNextIfIdle();
  }
  // The next epoch's event takes the place of the per-node events that
  // would have been scheduled while closing this one, before `done` runs.
  if (!shared_.empty()) BeginEpoch();
  if (done) done();
}

double ServerPool::TotalBusyTimeSum() const {
  double sum = 0.0;
  for (const PriorityServer& node : nodes_) sum += node.TotalBusyTime();
  return sum;
}

double ServerPool::LockBusyTimeSum() const {
  double sum = 0.0;
  for (const PriorityServer& node : nodes_) {
    sum += node.BusyTime(ServiceClass::kLock);
  }
  return sum;
}

void ServerPool::ResetStats() {
  for (PriorityServer& node : nodes_) node.ResetStats();
  union_.ResetWindow(sim_->Now());
}

void ServerPool::CheckConsistency() const {
  const bool in_flight = epoch_event_ != 0;
  GRANULOCK_AUDIT_CHECK_EQ(in_flight, !shared_.empty())
      << "epoch in flight but FIFO holds " << shared_.size() << " jobs";
  constexpr int kLock = static_cast<int>(ServiceClass::kLock);
  for (const PriorityServer& node : nodes_) {
    node.CheckConsistency();
    const bool serving_lock = node.current_.has_value() &&
                              node.current_->cls == ServiceClass::kLock;
    GRANULOCK_AUDIT_CHECK_EQ(serving_lock, in_flight)
        << "node " << node.name() << " lock state differs from the pool";
    GRANULOCK_AUDIT_CHECK_EQ(node.queues_[kLock].size(), size_t{0})
        << "node " << node.name() << " holds per-node lock jobs";
    GRANULOCK_AUDIT_CHECK_EQ(node.finished_[kLock], epochs_finished_)
        << "node " << node.name();
    GRANULOCK_AUDIT_CHECK_EQ(node.accepted_[kLock],
                             epochs_finished_ + (in_flight ? 1 : 0))
        << "node " << node.name();
    if (serving_lock && !shared_.empty()) {
      GRANULOCK_AUDIT_CHECK_EQ(node.current_->remaining,
                               shared_.front().per_node)
          << "node " << node.name() << " serves a different share";
      GRANULOCK_AUDIT_CHECK_EQ(node.service_start_,
                               nodes_.front().service_start_)
          << "node " << node.name() << " started its share at another time";
    }
  }
}

}  // namespace granulock::sim
