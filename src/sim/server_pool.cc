#include "sim/server_pool.h"

#include <algorithm>
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
  }
  due_.reserve(static_cast<size_t>(size) + 1);
}

void ServerPool::Push(SimTime time, uint64_t seq, int64_t slot) {
  due_.push_back(Due{time, seq, slot});
  std::push_heap(due_.begin(), due_.end(), DueLater{});
}

void ServerPool::Rearm() {
  if (due_.empty()) {
    GRANULOCK_DCHECK_EQ(armed_, EventId{0}) << "pool event with nothing due";
    return;
  }
  const Due& top = due_.front();
  if (armed_ != 0) {
    if (armed_at_.time == top.time && armed_at_.seq == top.seq) return;
    sim_->Cancel(armed_);
  }
  armed_at_ = top;
  armed_ = sim_->ScheduleAt(top.time, top.seq, [this] { Fire(); });
}

void ServerPool::Submit(int64_t node, SimTime service,
                        Completion on_complete) {
  GRANULOCK_DCHECK(node >= 0 && node < size()) << "no node " << node;
  const SimTime now = sim_->Now();
  PriorityServer& server = nodes_[static_cast<size_t>(node)];
  if (!server.AcceptTxn(now, service, std::move(on_complete))) return;
  union_.Transition(now, +1, 0);
  Push(now + service, sim_->ReserveSeq(), node);
  Rearm();
}

void ServerPool::SubmitShared(SimTime per_node, Completion done,
                              EpochEnd end) {
  GRANULOCK_CHECK_GE(per_node, 0.0) << "negative shared lock demand";
  shared_.push_back(SharedJob{per_node, std::move(done), end});
  // Behind an epoch in flight the job waits, as it would in every node's
  // lock queue.
  if (shared_.size() == 1) BeginEpoch();
}

void ServerPool::BeginEpoch() {
  const SimTime now = sim_->Now();
  int64_t was_busy = 0;
  for (PriorityServer& node : nodes_) {
    if (node.BeginShare(now)) ++was_busy;
  }
  // Per node, a busy server leaves transaction work and enters lock work;
  // an idle one enters lock work. All at one instant, so one report does.
  union_.Transition(now, static_cast<int>(size() - was_busy),
                    static_cast<int>(size()));
  // Every pending entry was a node's transaction completion; all of them
  // are preempted now.
  due_.clear();
  ArmEpoch();
  Rearm();
}

void ServerPool::ArmEpoch() {
  const SharedJob& job = shared_.front();
  // Per-node shares would be scheduled one after another, in node order.
  const uint64_t seq = sim_->ReserveSeq();
  if (job.end == EpochEnd::kEventPerNode) {
    for (int64_t n = 1; n < size(); ++n) sim_->ReserveSeq();
  }
  epoch_cursor_ = 0;
  Push(sim_->Now() + job.per_node, seq, kEpochSlot);
}

void ServerPool::Fire() {
  armed_ = 0;
  const Due due = due_.front();
  std::pop_heap(due_.begin(), due_.end(), DueLater{});
  due_.pop_back();
  if (due.slot == kEpochSlot) {
    EpochEvent(due);
  } else {
    FinishTxn(due.slot);
  }
}

void ServerPool::FinishTxn(int64_t node) {
  const SimTime now = sim_->Now();
  PriorityServer& server = nodes_[static_cast<size_t>(node)];
  Completion done = server.FinishTxn(now);
  const bool next = server.TxnInService();
  if (next) Push(now + server.remaining(), sim_->ReserveSeq(), node);
  union_.Transition(now, next ? 0 : -1, 0);
  Rearm();
  if (done) done();
}

bool ServerPool::CloseShare(int64_t n, bool next_share) {
  const SimTime now = sim_->Now();
  PriorityServer& server = nodes_[static_cast<size_t>(n)];
  if (!server.EndShare(now, next_share)) return false;
  Push(now + server.remaining(), sim_->ReserveSeq(), n);
  return true;
}

void ServerPool::EpochEvent(const Due& due) {
  // A queued shared job starts at once on every node: lock work outranks
  // the preempted transaction work.
  const bool next_share = shared_.size() > 1;
  // The event closes every node's share, or with kEventPerNode the next
  // node's; the following node's event then carries the next reserved
  // sequence number.
  const bool per_node = shared_.front().end == EpochEnd::kEventPerNode;
  const int64_t first = per_node ? epoch_cursor_ : 0;
  const int64_t last = per_node ? ++epoch_cursor_ : size();
  int resumed = 0;
  for (int64_t n = first; n < last; ++n) {
    if (CloseShare(n, next_share)) ++resumed;
  }
  // A node passing straight to the next share changes no busy state.
  const int closed = static_cast<int>(last - first);
  union_.Transition(sim_->Now(), next_share ? 0 : resumed - closed,
                    next_share ? 0 : -closed);
  if (last < size()) {
    Push(due.time, due.seq + 1, kEpochSlot);
    Rearm();
    return;
  }
  Completion done = std::move(shared_.front().done);
  shared_.pop_front();
  ++epochs_finished_;
  // The next epoch's completion takes the place of the per-node ones that
  // would have been scheduled while closing this one, before `done` runs.
  if (next_share) ArmEpoch();
  Rearm();
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
  const SimTime now = sim_->Now();
  for (PriorityServer& node : nodes_) node.ResetStats(now);
  union_.ResetWindow(now);
}

void ServerPool::CheckConsistency() const {
  const bool in_flight = !shared_.empty();
  constexpr int kLock = PriorityServer::kLockClass;
  for (const PriorityServer& node : nodes_) {
    node.CheckConsistency();
    GRANULOCK_AUDIT_CHECK_EQ(node.lock_, in_flight)
        << "node " << node.name() << " lock state differs from the pool";
    GRANULOCK_AUDIT_CHECK_EQ(node.finished_[kLock], epochs_finished_)
        << "node " << node.name();
    GRANULOCK_AUDIT_CHECK_EQ(node.accepted_[kLock],
                             epochs_finished_ + (in_flight ? 1 : 0))
        << "node " << node.name();
    if (in_flight) {
      GRANULOCK_AUDIT_CHECK_EQ(node.service_start_,
                               nodes_.front().service_start_)
          << "node " << node.name() << " started its share at another time";
    }
  }
  // The heap: one entry per node serving transaction work, one for the
  // epoch in flight, each due now or later under an issued number.
  GRANULOCK_AUDIT_CHECK(std::is_heap(due_.begin(), due_.end(), DueLater{}))
      << "completion heap out of order";
  std::vector<int> entries(nodes_.size(), 0);
  int epoch_entries = 0;
  for (const Due& due : due_) {
    GRANULOCK_AUDIT_CHECK_GE(due.time, sim_->Now())
        << "completion of slot " << due.slot << " is overdue";
    GRANULOCK_AUDIT_CHECK_LT(due.seq, sim_->NextSeq())
        << "completion of slot " << due.slot << " has an unissued seq";
    if (due.slot == kEpochSlot) {
      ++epoch_entries;
    } else if (due.slot >= 0 && due.slot < size()) {
      ++entries[static_cast<size_t>(due.slot)];
    } else {
      GRANULOCK_AUDIT_CHECK(false) << "completion for no node " << due.slot;
    }
  }
  GRANULOCK_AUDIT_CHECK_EQ(epoch_entries, in_flight ? 1 : 0)
      << "epoch in flight without exactly one completion";
  for (size_t n = 0; n < nodes_.size(); ++n) {
    GRANULOCK_AUDIT_CHECK_EQ(entries[n], nodes_[n].TxnInService() ? 1 : 0)
        << "node " << nodes_[n].name() << " has " << entries[n]
        << " pending completions";
  }
  // The one pool event: pending iff anything is due, at the minimum.
  GRANULOCK_AUDIT_CHECK_EQ(sim_->IsPending(armed_), !due_.empty())
      << "pool event pending=" << sim_->IsPending(armed_) << " with "
      << due_.size() << " completions due";
  if (!due_.empty()) {
    GRANULOCK_AUDIT_CHECK(armed_at_.time == due_.front().time &&
                          armed_at_.seq == due_.front().seq)
        << "pool event armed at (" << armed_at_.time << ", "
        << armed_at_.seq << "), minimum is (" << due_.front().time << ", "
        << due_.front().seq << ")";
  }
}

}  // namespace granulock::sim
