#ifndef GRANULOCK_CORE_CONSERVATIVE_LOCKING_H_
#define GRANULOCK_CORE_CONSERVATIVE_LOCKING_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/closed_system_kernel.h"
#include "sim/invariants.h"
#include "sim/trace.h"
#include "util/logging.h"

namespace granulock::core {

/// A transaction under conservative locking: the kernel's `TxnCore` plus
/// the transactions it currently blocks. `Txn` is the engine's own type
/// (CRTP), so the blocked list holds engine transactions. A pooled `Txn`
/// keeps the list's capacity across reuse.
template <typename Txn>
struct ConservativeTxn : TxnCore {
  std::vector<Txn*> blocked;

  void Reset() {
    TxnCore::Reset();
    blocked.clear();
  }
};

/// The conservative (static) locking lifecycle of §2: a transaction waits
/// in the FIFO pending queue, pays its lock cost, and is then either
/// granted every lock at once or blocked behind one lock holder; when that
/// holder completes it re-enters the pending queue and pays again.
///
/// This class owns the queues of that lifecycle and nothing else: the
/// pending queue, the dispatch gate, the active (lock-holding) list in
/// grant order, the blocked lists and count, and their audit. The engine
/// keeps its conflict decision, its lock-cost and grant bodies, its
/// completion accounting and its replacement arrival, and calls in here
/// at each step. Callbacks into the engine are member-function template
/// arguments, as in the kernel.
template <typename Txn>
class ConservativeLocking {
 public:
  /// `kernel` must outlive this object.
  explicit ConservativeLocking(ClosedSystemKernel* kernel)
      : kernel_(kernel) {}

  void Reserve(size_t ntrans) { active_.reserve(ntrans); }

  /// `txn` enters the pending queue at the tail, or at the head (a
  /// released transaction retrying immediately).
  void Enqueue(Txn* txn, bool at_tail = true) {
    txn->pending_since = kernel_->Now();
    if (at_tail) {
      pending_.push_back(txn);
    } else {
      pending_.push_front(txn);
    }
    UpdateQueueStats();
  }

  /// Dispatches pending transactions to the engine's `kDispatch(txn)`, in
  /// FIFO order, while the gate is open. `serialized` admits one lock
  /// request at a time (otherwise requests pipeline); a positive `cap`
  /// bounds lock holders plus requests in flight (the MPL).
  template <auto kDispatch, typename Owner>
  void Pump(Owner* owner, bool serialized, int64_t cap) {
    while (!pending_.empty() && (!serialized || in_lock_ == 0) &&
           (cap == 0 ||
            static_cast<int64_t>(active_.size()) + in_lock_ < cap)) {
      Txn* txn = pending_.front();
      pending_.pop_front();
      UpdateQueueStats();
      (owner->*kDispatch)(txn);
    }
  }

  /// `txn`'s lock request starts: its pending stint ends and the request
  /// is counted, traced with `detail`.
  void BeginRequest(Txn* txn, int64_t detail) {
    ++in_lock_;
    kernel_->ClosePendingWait(txn);
    kernel_->CountLockRequest(txn->id, detail);
  }

  /// `txn` has paid its lock cost; the engine decides the conflict next.
  void EndRequest(const Txn* txn) {
    --in_lock_;
    GRANULOCK_DCHECK_GE(in_lock_, 0)
        << "lock request for txn " << txn->id
        << " finished more often than it began";
  }

  /// `txn` is denied and waits behind `holder` until it completes.
  void Block(Txn* txn, Txn* holder) {
    kernel_->CountDenial(txn->id, static_cast<int64_t>(holder->id));
    holder->blocked.push_back(txn);
    ++blocked_count_;
    UpdateQueueStats();
  }

  /// `txn` holds its locks (traced with `detail`) and becomes active.
  void Grant(Txn* txn, int64_t detail) {
    kernel_->Trace(txn->id, sim::TraceEventType::kLockGranted, detail);
    active_.push_back(txn);
    UpdateQueueStats();
  }

  /// `txn` completes: it leaves the active list and every transaction it
  /// blocked re-enters the pending queue (at the tail or the head). Their
  /// blocked stint counts as lock wait.
  void Retire(Txn* txn, bool requeue_at_tail) {
    auto it = std::find(active_.begin(), active_.end(), txn);
    GRANULOCK_CHECK(it != active_.end()) << "txn " << txn->id;
    active_.erase(it);
    blocked_count_ -= static_cast<int64_t>(txn->blocked.size());
    for (Txn* released : txn->blocked) {
      kernel_->Unblock(released);
      Enqueue(released, requeue_at_tail);
    }
    txn->blocked.clear();
    UpdateQueueStats();
  }

  /// The active transaction with this id (the blocker a lock table names).
  Txn* FindActive(uint64_t id) const {
    auto it = std::find_if(active_.begin(), active_.end(),
                           [id](const Txn* txn) { return txn->id == id; });
    GRANULOCK_CHECK(it != active_.end())
        << "blocker " << id << " is not active";
    return *it;
  }

  /// Lock holders in grant order.
  const std::vector<Txn*>& active() const { return active_; }

  /// Appends one (waiter, holder) edge per blocked transaction.
  void AppendWaitsFor(ClosedSystemKernel::Edges* edges) const {
    for (const Txn* holder : active_) {
      for (const Txn* waiter : holder->blocked) {
        edges->emplace_back(waiter->id, holder->id);
      }
    }
  }

  /// Audit: each of the engine's `live` transactions is pending, paying
  /// lock cost, blocked behind an active transaction, or active; the
  /// blocked count is the sum of the holders' lists; and no blocked
  /// transaction blocks another (conservative locking keeps the
  /// waits-for relation at depth one, so it cannot cycle).
  void CheckConsistency(size_t live) const {
    GRANULOCK_AUDIT_CHECK_GE(in_lock_, 0);
    GRANULOCK_AUDIT_CHECK_GE(blocked_count_, 0);
    GRANULOCK_AUDIT_CHECK_EQ(
        live, pending_.size() + static_cast<size_t>(in_lock_) +
                  static_cast<size_t>(blocked_count_) + active_.size())
        << "live=" << live << " pending=" << pending_.size()
        << " in_lock=" << in_lock_ << " blocked=" << blocked_count_
        << " active=" << active_.size();
    size_t blocked_from_lists = 0;
    for (const Txn* holder : active_) {
      blocked_from_lists += holder->blocked.size();
      for (const Txn* waiter : holder->blocked) {
        GRANULOCK_AUDIT_CHECK(waiter->blocked.empty())
            << "blocked txn " << waiter->id
            << " blocks others: waits-for chain under conservative locking";
      }
    }
    GRANULOCK_AUDIT_CHECK_EQ(static_cast<size_t>(blocked_count_),
                             blocked_from_lists);
  }

 private:
  friend struct AuditTestPeer;  // invariants_test corrupts state through it

  void UpdateQueueStats() {
    kernel_->SetQueueLengths(static_cast<double>(active_.size()),
                             static_cast<double>(blocked_count_),
                             static_cast<double>(pending_.size()));
  }

  ClosedSystemKernel* kernel_;
  std::deque<Txn*> pending_;
  std::vector<Txn*> active_;
  int64_t blocked_count_ = 0;
  int64_t in_lock_ = 0;  // lock requests paying their cost
};

}  // namespace granulock::core

#endif  // GRANULOCK_CORE_CONSERVATIVE_LOCKING_H_
