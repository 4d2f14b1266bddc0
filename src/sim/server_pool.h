#ifndef GRANULOCK_SIM_SERVER_POOL_H_
#define GRANULOCK_SIM_SERVER_POOL_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/busy_union.h"
#include "sim/priority_server.h"
#include "sim/simulator.h"

namespace granulock::sim {

/// How a shared lock job's end shows up in the event stream.
enum class EpochEnd {
  kOneEvent,      ///< one event ends the job on every node
  kEventPerNode,  ///< one event per node, in node order, all at one time
};

/// One resource (CPU or disk) across all `npros` nodes: the per-node
/// `PriorityServer`s, their union busy-time tracker, the lock manager's
/// shared work on that resource, and the one simulator event that ends
/// every job in the pool.
///
/// The paper's lock manager is "shared by all processors and preempts
/// transaction service": every lock job is split into equal shares, one
/// per node, each served at `kLock` priority. `SubmitShared` runs the job
/// as one **lock epoch**:
///
///  * it preempts the transaction work in service on every node, in node
///    order, and puts the share in service there;
///  * when the shares end, it closes the epoch on every node, in node
///    order. Each node then starts the next queued shared job (transaction
///    work stays preempted) or resumes its preempted work.
///
/// This is exact, not an approximation. Shared work preempts transaction
/// work and reaches every node in equal shares, so each node's lock class
/// mirrors every other node's, even when shared jobs overlap (they queue
/// FIFO here rather than in each node's lock queue). Every per-node busy
/// time, completion count and union busy time is bit-identical to serving
/// the shares as per-node jobs. With `EpochEnd::kOneEvent` the job ends
/// with one event where per-node jobs would end with npros same-time
/// events with consecutive sequence numbers, so tie order is kept and
/// only `Simulator::ExecutedEvents` differs, by npros - 1 per job.
/// `EpochEnd::kEventPerNode` keeps those npros events.
///
/// **Pool-level completions.** The pool keeps every pending completion in
/// a binary min-heap keyed by `(finish time, seq)`: one entry per node
/// serving transaction work, plus one for the epoch in flight. It holds
/// **one** simulator event, armed at the heap minimum, and re-arms it
/// only when the minimum changes. Each sequence number is reserved
/// (`Simulator::ReserveSeq`) at the point where a per-node server would
/// have scheduled its own completion, in node order, so same-time ties
/// fire in the order per-node events would have. An epoch therefore
/// costs one cancel and one schedule, not npros of each, and updates
/// npros plain doubles; each firing still ends exactly one job (or one
/// node's share), so `ExecutedEvents` does not change.
///
/// Transaction work goes to one node through `Submit`; lock work goes
/// through `SubmitShared`.
class ServerPool {
 public:
  using Completion = PriorityServer::Completion;

  /// Creates `size` (>= 1) servers named `prefix0`, `prefix1`, ... on `sim`
  /// (not owned; must outlive the pool), all feeding `busy_union()`.
  ServerPool(Simulator* sim, const std::string& prefix, int64_t size);

  ServerPool(const ServerPool&) = delete;
  ServerPool& operator=(const ServerPool&) = delete;

  /// Queues a transaction job demanding `service` (>= 0) time units on
  /// node `node`; `on_complete` fires when it has received its full
  /// service.
  void Submit(int64_t node, SimTime service, Completion on_complete);

  /// Queues a shared lock job demanding `per_node` (>= 0) time units of
  /// `kLock` service on every node. `done` runs once, after every node
  /// has received its share (with `kEventPerNode`, in the last node's
  /// event).
  void SubmitShared(SimTime per_node, Completion done,
                    EpochEnd end = EpochEnd::kOneEvent);

  /// Node `i`'s server (read-only: all work goes through the pool).
  const PriorityServer& node(int64_t i) const {
    return nodes_[static_cast<size_t>(i)];
  }
  int64_t size() const { return static_cast<int64_t>(nodes_.size()); }

  /// Union busy time over the nodes (see `BusyUnionTracker`).
  const BusyUnionTracker& busy_union() const { return union_; }

  /// Per-node busy time summed in node order: all classes / lock work.
  double TotalBusyTimeSum() const;
  double LockBusyTimeSum() const;

  /// Discards the warmup interval: every node's accounting plus the union
  /// tracker's window, at the current time.
  void ResetStats();

  /// Audit. Every node passes its own `CheckConsistency`. Every node is
  /// in the pool's lock state (serving a share iff an epoch is in flight,
  /// i.e. iff the FIFO is non-empty), all shares started at one time, and
  /// each node's lifetime `kLock` accepted/finished counts equal the
  /// pool's epoch counts. The completion heap holds an entry for exactly
  /// the nodes serving transaction work, plus one for the epoch in
  /// flight; every entry is due at or after now and carries a sequence
  /// number already issued. Exactly one pool event is pending while the
  /// heap is non-empty, armed at its `(time, seq)` minimum. Violations
  /// report through `invariants::Fail`.
  void CheckConsistency() const;

 private:
  friend struct AuditTestPeer;  // invariants_test corrupts state through it

  struct SharedJob {
    SimTime per_node;
    Completion done;
    EpochEnd end;
  };

  /// A pending completion: node `slot`'s transaction job, or the epoch
  /// when `slot == kEpochSlot`.
  struct Due {
    SimTime time;
    uint64_t seq;
    int64_t slot;
  };
  static constexpr int64_t kEpochSlot = -1;

  /// Heap order: the root is the (time, seq) minimum.
  struct DueLater {
    bool operator()(const Due& a, const Due& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void Push(SimTime time, uint64_t seq, int64_t slot);
  /// Makes the one pool event match the heap minimum: cancels and
  /// reschedules it only if the minimum changed.
  void Rearm();
  /// The pool event: ends the job (or share) at the heap minimum.
  void Fire();
  void FinishTxn(int64_t node);
  /// Puts the FIFO head in service on every node (all idle in lock work)
  /// and reserves its completion.
  void BeginEpoch();
  /// Reserves the completion of the FIFO head, whose shares are in
  /// service on every node since now.
  void ArmEpoch();
  /// One event of the epoch in flight (due at `due`): closes the shares
  /// it ends and, after the last, pops the FIFO head, starts the next
  /// epoch if one is queued, re-arms and runs the head's `done`.
  void EpochEvent(const Due& due);
  /// Ends node `n`'s share; returns whether it resumed transaction work.
  bool CloseShare(int64_t n, bool next_share);

  Simulator* sim_;
  std::deque<PriorityServer> nodes_;
  BusyUnionTracker union_;
  /// Shared jobs: the head is in service on every node, the rest wait.
  std::deque<SharedJob> shared_;
  /// With `kEventPerNode`: the node whose share the next event ends.
  int64_t epoch_cursor_ = 0;
  /// Lifetime epoch count (never reset; see CheckConsistency).
  uint64_t epochs_finished_ = 0;
  /// Pending completions, a binary min-heap under `DueLater`.
  std::vector<Due> due_;
  /// The one pool event and the key it is armed at; 0 when none is.
  EventId armed_ = 0;
  Due armed_at_{0.0, 0, 0};
};

}  // namespace granulock::sim

#endif  // GRANULOCK_SIM_SERVER_POOL_H_
