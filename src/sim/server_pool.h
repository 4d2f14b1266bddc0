#ifndef GRANULOCK_SIM_SERVER_POOL_H_
#define GRANULOCK_SIM_SERVER_POOL_H_

#include <cstdint>
#include <deque>
#include <string>

#include "sim/busy_union.h"
#include "sim/priority_server.h"
#include "sim/simulator.h"

namespace granulock::sim {

/// One resource (CPU or disk) across all `npros` nodes: the per-node
/// `PriorityServer`s, their union busy-time tracker, and the lock manager's
/// shared work on that resource.
///
/// The paper's lock manager is "shared by all processors and preempts
/// transaction service": every lock job is split into equal shares, one
/// per node, each served at `kLock` priority. Submitted per node, that is
/// npros jobs and npros completion events that all start and end at the
/// same instant. `SubmitShared` runs the job as one **lock epoch**
/// instead:
///
///  * it preempts the transaction work in service on every node, in node
///    order, and puts the share in service there;
///  * it schedules **one** completion event;
///  * when that fires, it closes the epoch on every node, in node order.
///    Each node then starts the next queued shared job (transaction work
///    stays preempted) or resumes its preempted work.
///
/// This is exact, not an approximation. Shared work preempts transaction
/// work and reaches every node in equal shares, so each node's lock class
/// mirrors every other node's, even when shared jobs overlap (they queue
/// FIFO here rather than in each node's lock queue). The one event takes
/// the place of a block of same-time events with consecutive sequence
/// numbers, so tie order is kept, and every per-node busy time, completion
/// count and union busy time is bit-identical to the per-node fan-out.
/// Only `Simulator::ExecutedEvents` differs: by npros - 1 per shared job.
///
/// Transaction work goes to one node through `node(i).Submit` with
/// `ServiceClass::kTransaction`. Lock work must go through `SubmitShared`;
/// a per-node `kLock` submission breaks the mirror, which
/// `CheckConsistency` reports.
class ServerPool {
 public:
  using Completion = PriorityServer::Completion;

  /// Creates `size` (>= 1) servers named `prefix0`, `prefix1`, ... on `sim`
  /// (not owned; must outlive the pool), all feeding `busy_union()`.
  ServerPool(Simulator* sim, const std::string& prefix, int64_t size);

  ServerPool(const ServerPool&) = delete;
  ServerPool& operator=(const ServerPool&) = delete;

  /// Queues a shared lock job demanding `per_node` (>= 0) time units of
  /// `kLock` service on every node. `done` runs once, after every node
  /// has received its share.
  void SubmitShared(SimTime per_node, Completion done);

  /// Node `i`'s server, for its transaction work.
  PriorityServer& node(int64_t i) { return nodes_[static_cast<size_t>(i)]; }

  /// Union busy time over the nodes (see `BusyUnionTracker`).
  const BusyUnionTracker& busy_union() const { return union_; }

  /// Per-node busy time summed in node order: all classes / lock work.
  double TotalBusyTimeSum() const;
  double LockBusyTimeSum() const;

  /// Discards the warmup interval: every node's `ResetStats` plus the
  /// union tracker's window, at the current time.
  void ResetStats();

  /// Audit: every node passes its own `CheckConsistency`; every node is
  /// in the same lock state as the pool (serving the FIFO head's share iff
  /// an epoch is in flight, with an empty per-node lock queue); an epoch
  /// is in flight iff the FIFO is non-empty; and each node's lifetime
  /// `kLock` accepted/finished counts equal the pool's epoch counts.
  /// Violations report through `invariants::Fail`.
  void CheckConsistency() const;

 private:
  struct SharedJob {
    SimTime per_node;
    Completion done;
  };

  /// Puts the FIFO head in service on every node and schedules its end.
  void BeginEpoch();
  /// The epoch's one completion event.
  void EndEpoch();

  Simulator* sim_;
  std::deque<PriorityServer> nodes_;
  BusyUnionTracker union_;
  /// Shared jobs: the head is in service on every node, the rest wait.
  std::deque<SharedJob> shared_;
  /// Completion event of the epoch in flight; 0 when none is.
  EventId epoch_event_ = 0;
  /// Lifetime epoch count (never reset; see CheckConsistency).
  uint64_t epochs_finished_ = 0;
};

}  // namespace granulock::sim

#endif  // GRANULOCK_SIM_SERVER_POOL_H_
