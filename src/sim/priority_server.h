#ifndef GRANULOCK_SIM_PRIORITY_SERVER_H_
#define GRANULOCK_SIM_PRIORITY_SERVER_H_

#include <cstdint>
#include <deque>
#include <string>

#include "sim/inline_callback.h"
#include "sim/simulator.h"

namespace granulock::sim {

/// Service classes at a node resource. The paper specifies that "the locking
/// mechanism has preemptive power over running transactions for I/O and CPU
/// resources": lock-manager work always runs ahead of (and interrupts)
/// transaction work.
enum class ServiceClass {
  kLock = 0,         ///< lock request/set/release processing (high priority)
  kTransaction = 1,  ///< useful transaction work (low priority)
};

/// Number of distinct service classes (array sizing).
inline constexpr int kNumServiceClasses = 2;

/// One node's CPU or disk: the state of a single-server queue with two
/// priority classes and preemptive-resume discipline. Its `ServerPool`
/// drives it and owns the one simulator event that ends its jobs; the
/// server itself never schedules or cancels anything.
///
/// * Transaction jobs are served FCFS.
/// * Lock work is the pool's shared lock job, one share per node. It
///   preempts an in-service transaction job, which keeps its accumulated
///   service and resumes ahead of every queued transaction job once no
///   lock work remains.
/// * Zero-length jobs are legal and complete at the same timestamp.
///
/// The server keeps per-class busy-time accounting, which is exactly what
/// the paper's `totcpus/lockcpus/totios/lockios` outputs aggregate.
class PriorityServer {
 public:
  /// Completion callbacks use the same small-buffer storage as simulator
  /// events: submitting a job never heap-allocates for the callback.
  using Completion = InlineCallback;

  /// A server reading the clock of `sim` (not owned; must outlive it).
  /// `name` is used in diagnostics only. Only a `ServerPool` puts work
  /// on it.
  PriorityServer(const Simulator* sim, std::string name);

  PriorityServer(const PriorityServer&) = delete;
  PriorityServer& operator=(const PriorityServer&) = delete;

  /// Busy time delivered to class `cls` since construction (or the last
  /// `ResetStats`), including the in-progress portion of the current job.
  double BusyTime(ServiceClass cls) const;

  /// Total busy time across all classes.
  double TotalBusyTime() const;

  /// Jobs fully served per class.
  uint64_t CompletedJobs(ServiceClass cls) const;

  /// Instantaneous queue length of class `cls`, excluding the in-service
  /// job. A transaction job preempted by lock work counts as queued.
  size_t QueueLength(ServiceClass cls) const;

  /// True iff a job is in service.
  bool busy() const { return lock_ || has_txn_; }

  const std::string& name() const { return name_; }

  /// FCFS queue conservation audit: every job ever submitted is finished,
  /// queued, or in service (per class); in-service and queued jobs have
  /// non-negative remaining demand; accounting never goes negative.
  /// Unlike `CompletedJobs`, the conservation counters survive
  /// `ResetStats`, so the law holds across warmup resets. Violations
  /// report through `invariants::Fail`.
  void CheckConsistency() const;

 private:
  friend struct AuditTestPeer;  // invariants_test corrupts state through it
  friend class ServerPool;      // the only driver of the hooks below

  struct Job {
    SimTime remaining;
    Completion on_complete;
  };

  static constexpr int kLockClass = static_cast<int>(ServiceClass::kLock);
  static constexpr int kTxnClass =
      static_cast<int>(ServiceClass::kTransaction);

  /// True iff transaction work is in service (it has a completion due).
  bool TxnInService() const { return has_txn_ && !lock_; }

  /// Accepts a transaction job. Returns true iff it went into service at
  /// once; its completion is then due at `now + service`.
  bool AcceptTxn(SimTime now, SimTime service, Completion on_complete);
  /// Ends the in-service transaction job and returns its callback. The
  /// queue head, if any, goes into service (then `TxnInService()`).
  Completion FinishTxn(SimTime now);
  /// Puts a lock share in service, preempting in-service transaction work
  /// with full accounting. Returns whether the node was busy before.
  bool BeginShare(SimTime now);
  /// Ends the lock share in service. With `next_share`, the next one
  /// starts at once; otherwise transaction work resumes (the preempted job
  /// first). Returns true iff transaction work is now in service; its
  /// completion is due at `now + remaining()`.
  bool EndShare(SimTime now, bool next_share);
  /// Moves the first queued transaction job into the head slot.
  void TakeQueueHead();
  /// Demand left on the head transaction job (in service or preempted).
  SimTime remaining() const { return txn_remaining_; }
  /// Zeroes the windowed accounting; see `ServerPool::ResetStats`.
  void ResetStats(SimTime now);

  const Simulator* sim_;
  std::string name_;
  // The fields every lock epoch touches, kept together.
  bool lock_ = false;     // a lock share is in service
  bool has_txn_ = false;  // the head transaction job is held below
  SimTime service_start_ = 0.0;
  SimTime txn_remaining_ = 0.0;
  double busy_time_[kNumServiceClasses] = {0.0, 0.0};
  uint64_t completed_[kNumServiceClasses] = {0, 0};
  // Lifetime conservation counters (never reset; see CheckConsistency).
  uint64_t accepted_[kNumServiceClasses] = {0, 0};
  uint64_t finished_[kNumServiceClasses] = {0, 0};
  /// The head transaction job's callback: in service unless `lock_`, in
  /// which case it is preempted and resumes first.
  Completion txn_done_;
  /// Transaction jobs that have not started yet, FCFS.
  std::deque<Job> queue_;
};

}  // namespace granulock::sim

#endif  // GRANULOCK_SIM_PRIORITY_SERVER_H_
