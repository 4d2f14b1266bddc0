#ifndef GRANULOCK_SIM_PRIORITY_SERVER_H_
#define GRANULOCK_SIM_PRIORITY_SERVER_H_

#include <deque>
#include <optional>
#include <string>

#include "sim/busy_union.h"
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

/// A single-server queue with two priority classes and preemptive-resume
/// discipline, used for both the CPU and the disk of every node.
///
/// * Within a class, jobs are served FCFS.
/// * A kLock arrival preempts an in-service kTransaction job; the preempted
///   job keeps its accumulated service and resumes (at the head of its
///   class queue) once no lock work remains.
/// * Zero-length jobs are legal and complete immediately (same timestamp).
///
/// The server keeps per-class busy-time accounting, which is exactly what
/// the paper's `totcpus/lockcpus/totios/lockios` outputs aggregate.
class PriorityServer {
 public:
  /// Completion callbacks use the same small-buffer storage as simulator
  /// events: submitting a job never heap-allocates for the callback.
  using Completion = InlineCallback;

  /// Creates a server that schedules itself on `sim` (not owned; must
  /// outlive the server). `name` is used in diagnostics only.
  PriorityServer(Simulator* sim, std::string name);

  PriorityServer(const PriorityServer&) = delete;
  PriorityServer& operator=(const PriorityServer&) = delete;

  /// Enqueues a job demanding `service` (>= 0) time units in class `cls`;
  /// `on_complete` fires when the job has received its full service.
  void Submit(ServiceClass cls, SimTime service, Completion on_complete);

  /// Busy time delivered to class `cls` since construction (or the last
  /// `ResetStats`), including the in-progress portion of the current job.
  double BusyTime(ServiceClass cls) const;

  /// Total busy time across all classes.
  double TotalBusyTime() const;

  /// Jobs fully served per class.
  uint64_t CompletedJobs(ServiceClass cls) const;

  /// Zeroes all accounting; an in-progress job keeps its remaining demand
  /// but its pre-reset service is no longer counted. Used to discard a
  /// warmup interval.
  void ResetStats();

  /// Instantaneous queue length of class `cls` (excluding the in-service
  /// job).
  size_t QueueLength(ServiceClass cls) const;

  /// True iff a job is in service.
  bool busy() const { return current_.has_value(); }

  const std::string& name() const { return name_; }

  /// Reports every busy-state change to `tracker` (not owned; may be null
  /// to unwire): +1/-1 when the server becomes busy/idle, and likewise
  /// for busy-on-lock-work. Must be set before the first `Submit`.
  void SetBusyUnion(BusyUnionTracker* tracker) { busy_union_ = tracker; }

  /// FCFS queue conservation audit: every job ever submitted is finished,
  /// queued, or in service (per class); the in-service job has
  /// non-negative remaining demand; accounting never goes negative.
  /// Unlike `CompletedJobs`, the conservation counters survive
  /// `ResetStats`, so the law holds across warmup resets. Violations
  /// report through `invariants::Fail`.
  void CheckConsistency() const;

 private:
  friend struct AuditTestPeer;  // invariants_test corrupts state through it
  friend class ServerPool;      // drives the lock-epoch hooks below

  struct Job {
    ServiceClass cls;
    SimTime remaining;
    Completion on_complete;
  };

  void StartNextIfIdle();
  void BeginService(Job job);
  void FinishCurrent();
  /// Takes the in-service job out of service with full accounting and
  /// returns its completion callback (the first half of `FinishCurrent`).
  Completion RetireCurrent();
  /// Lock-epoch hook: preempts in-service transaction work exactly as a
  /// `kLock` arrival does and puts a `per_node` lock job in service, but
  /// schedules no completion event — the owning pool's single epoch event
  /// ends it through `RetireCurrent`.
  void BeginEpoch(SimTime per_node);
  /// Moves the in-service job back to the head of its queue, crediting the
  /// service it received so far.
  void PreemptCurrent();
  int ClassIndex(ServiceClass cls) const { return static_cast<int>(cls); }
  void NotifyTransition(bool entering, ServiceClass cls) {
    if (busy_union_ == nullptr) return;
    const int delta_any = entering ? 1 : -1;
    const int delta_lock = cls == ServiceClass::kLock ? delta_any : 0;
    busy_union_->Transition(sim_->Now(), delta_any, delta_lock);
  }

  Simulator* sim_;
  std::string name_;
  std::deque<Job> queues_[kNumServiceClasses];
  std::optional<Job> current_;
  SimTime service_start_ = 0.0;
  EventId completion_event_ = 0;
  BusyUnionTracker* busy_union_ = nullptr;
  double busy_time_[kNumServiceClasses] = {0.0, 0.0};
  uint64_t completed_[kNumServiceClasses] = {0, 0};
  // Lifetime conservation counters (never reset; see CheckConsistency).
  uint64_t accepted_[kNumServiceClasses] = {0, 0};
  uint64_t finished_[kNumServiceClasses] = {0, 0};
};

}  // namespace granulock::sim

#endif  // GRANULOCK_SIM_PRIORITY_SERVER_H_
