// Tests for the invariant-audit layer (src/sim/invariants.h): the DCHECK
// macros, the failure-capture plumbing, and — most importantly — that every
// CheckConsistency() audit both passes on healthy state and actually fires
// when the state is corrupted. Corruption goes through `AuditTestPeer`
// structs that each audited class befriends, so the tests can reach private
// members without weakening the production API.

#include "sim/invariants.h"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/closed_system_kernel.h"
#include "core/conservative_locking.h"
#include "core/granularity_simulator.h"
#include "db/explicit_simulator.h"
#include "db/incremental_simulator.h"
#include "db/transfer_simulator.h"
#include "lockmgr/hierarchical.h"
#include "lockmgr/lock_mode.h"
#include "lockmgr/lock_table.h"
#include "lockmgr/wait_queue_table.h"
#include "model/config.h"
#include "obs/hooks.h"
#include "sim/priority_server.h"
#include "sim/server_pool.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace granulock::sim {

// Friend of Simulator, PriorityServer and ServerPool: exposes private
// state so the corruption tests below can break invariants on purpose.
struct AuditTestPeer {
  static auto& StaleCount(Simulator& s) { return s.stale_count_; }
  static auto& Now(Simulator& s) { return s.now_; }
  static auto& MaxPending(Simulator& s) { return s.max_pending_; }
  static auto& NextSeq(Simulator& s) { return s.next_seq_; }
  static auto& Accepted(PriorityServer& s) { return s.accepted_; }
  static auto& BusyTime(PriorityServer& s) { return s.busy_time_; }
  static auto& Queue(PriorityServer& s) { return s.queue_; }
  static auto& Lock(PriorityServer& s) { return s.lock_; }
  static auto& ServiceStart(PriorityServer& s) { return s.service_start_; }
  static PriorityServer& Node(ServerPool& p, int64_t i) {
    return p.nodes_[static_cast<size_t>(i)];
  }
  static double& ArmedTime(ServerPool& p) { return p.armed_at_.time; }
};

}  // namespace granulock::sim

namespace granulock::lockmgr {

struct AuditTestPeer {
  static auto& Granules(LockTable& t) { return t.granules_; }
  static auto& HeldByTxn(LockTable& t) { return t.held_by_txn_; }
  static auto& Holders(HierarchicalLockManager& m) { return m.holders_; }
  static auto& HeldByTxn(HierarchicalLockManager& m) {
    return m.held_by_txn_;
  }
  static uint64_t KeyOf(const ObjectId& object) {
    return HierarchicalLockManager::KeyOf(object);
  }
  static auto& Granules(WaitQueueLockTable& t) { return t.granules_; }
  static auto& HeldByTxn(WaitQueueLockTable& t) { return t.held_by_txn_; }
  static auto& QueuedOn(WaitQueueLockTable& t) { return t.queued_on_; }
  static auto& WaitingCount(WaitQueueLockTable& t) {
    return t.waiting_count_;
  }
};

}  // namespace granulock::lockmgr

namespace granulock::core {

struct AuditTestPeer {
  template <typename Txn>
  static auto& BlockedCount(ConservativeLocking<Txn>& l) {
    return l.blocked_count_;
  }
  static auto& BlockedCount(GranularitySimulator& s) {
    return BlockedCount(s.locking_);
  }
  static void Check(const GranularitySimulator& s) { s.CheckConsistency(); }
};

}  // namespace granulock::core

namespace granulock::db {

struct AuditTestPeer {
  static auto& BlockedCount(ExplicitSimulator& s) {
    return core::AuditTestPeer::BlockedCount(s.locking_);
  }
  static sim::ServerPool& Disks(ExplicitSimulator& s) {
    return s.kernel_.io();
  }
  static void Check(const ExplicitSimulator& s) { s.CheckConsistency(); }
  static auto& InBackoff(IncrementalSimulator& s) { return s.in_backoff_; }
  static void Check(const IncrementalSimulator& s) { s.CheckConsistency(); }
  static auto& BlockedCount(TransferSimulator& s) {
    return core::AuditTestPeer::BlockedCount(s.locking_);
  }
  static void Check(const TransferSimulator& s) { s.CheckConsistency(); }
};

}  // namespace granulock::db

namespace granulock {
namespace {

using lockmgr::LockMode;
using lockmgr::LockRequest;
using lockmgr::ObjectId;
using sim::invariants::ScopedFailureCapture;

// ---------------------------------------------------------------------------
// Macro and capture plumbing.

TEST(FailureCaptureTest, RecordsFailuresInsteadOfAborting) {
  ScopedFailureCapture capture;
  EXPECT_EQ(capture.count(), 0);
  sim::invariants::Fail("fake_file.cc", 12, "synthetic violation");
  EXPECT_EQ(capture.count(), 1);
  EXPECT_NE(capture.last_message().find("synthetic violation"),
            std::string::npos);
  capture.Reset();
  EXPECT_EQ(capture.count(), 0);
  EXPECT_TRUE(capture.last_message().empty());
}

TEST(AuditCheckTest, PassingConditionIsSilent) {
  ScopedFailureCapture capture;
  GRANULOCK_AUDIT_CHECK(1 + 1 == 2) << "never evaluated";
  GRANULOCK_AUDIT_CHECK_EQ(3, 3);
  GRANULOCK_AUDIT_CHECK_LE(2, 3);
  EXPECT_EQ(capture.count(), 0);
}

TEST(AuditCheckTest, FailingConditionReportsConditionText) {
  ScopedFailureCapture capture;
  const int lhs = 4;
  GRANULOCK_AUDIT_CHECK_EQ(lhs, 5) << "lhs should have been five";
  ASSERT_EQ(capture.count(), 1);
  EXPECT_NE(capture.last_message().find("lhs"), std::string::npos);
  EXPECT_NE(capture.last_message().find("lhs should have been five"),
            std::string::npos);
}

TEST(DcheckTest, CompiledInExactlyForAuditBuilds) {
  ScopedFailureCapture capture;
  GRANULOCK_DCHECK_EQ(1, 2) << "fires only when audits are compiled in";
  EXPECT_EQ(capture.count(), sim::invariants::kAuditBuild ? 1 : 0);
}

TEST(DcheckTest, OperandsNotEvaluatedWhenCompiledOut) {
  ScopedFailureCapture capture;
  int calls = 0;
  auto probe = [&calls]() {
    ++calls;
    return true;
  };
  GRANULOCK_DCHECK(probe());
  EXPECT_EQ(calls, sim::invariants::kAuditBuild ? 1 : 0);
  EXPECT_EQ(capture.count(), 0);
}

TEST(DeepAuditTest, FlagRoundTrips) {
  EXPECT_FALSE(sim::invariants::DeepAuditEnabled());
  sim::invariants::SetDeepAudit(true);
  EXPECT_TRUE(sim::invariants::DeepAuditEnabled());
  sim::invariants::SetDeepAudit(false);
  EXPECT_FALSE(sim::invariants::DeepAuditEnabled());
}

// ---------------------------------------------------------------------------
// Simulator (event-engine bookkeeping).

TEST(SimulatorAuditTest, CleanEngineStatePasses) {
  sim::Simulator s;
  const sim::EventId a = s.ScheduleAt(1.0, [] {});
  s.ScheduleAt(2.0, [] {});
  s.Cancel(a);

  ScopedFailureCapture capture;
  s.CheckConsistency();
  EXPECT_EQ(capture.count(), 0);

  s.RunUntilEmpty();
  s.CheckConsistency();
  EXPECT_EQ(capture.count(), 0);
}

TEST(SimulatorAuditTest, FiresOnPhantomStaleEntry) {
  sim::Simulator s;
  s.ScheduleAt(1.0, [] {});
  // A stale-entry count with no matching lazily-deleted heap entry: the
  // heap = live + stale size identity breaks.
  ++sim::AuditTestPeer::StaleCount(s);

  ScopedFailureCapture capture;
  s.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

TEST(SimulatorAuditTest, FiresOnPendingEventInThePast) {
  sim::Simulator s;
  s.ScheduleAt(1.0, [] {});
  sim::AuditTestPeer::Now(s) = 5.0;  // clock jumped past the pending event

  ScopedFailureCapture capture;
  s.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
  EXPECT_NE(capture.last_message().find("Invariant violated"),
            std::string::npos);
}

TEST(SimulatorAuditTest, ReservedSequenceGapsPass) {
  sim::Simulator s;
  s.ScheduleAt(1.0, [] {});
  const uint64_t reserved = s.ReserveSeq();
  s.ReserveSeq();  // never scheduled: a gap
  s.ScheduleAt(1.0, [] {});
  s.ScheduleAt(1.0, reserved, [] {});

  ScopedFailureCapture capture;
  s.CheckConsistency();
  EXPECT_EQ(capture.count(), 0);
  s.RunUntilEmpty();
  s.CheckConsistency();
  EXPECT_EQ(capture.count(), 0);
}

TEST(SimulatorAuditTest, FiresOnPendingSeqNeverIssued) {
  sim::Simulator s;
  s.ScheduleAt(1.0, [] {});
  s.ScheduleAt(2.0, [] {});
  sim::AuditTestPeer::NextSeq(s) = 1;  // the second event's seq is "future"

  ScopedFailureCapture capture;
  s.CheckConsistency();
  EXPECT_EQ(capture.count(), 1);
}

TEST(SimulatorAuditTest, FiresOnHighWaterMarkBelowPendingCount) {
  sim::Simulator s;
  s.ScheduleAt(1.0, [] {});
  s.ScheduleAt(2.0, [] {});
  sim::AuditTestPeer::MaxPending(s) = 1;

  ScopedFailureCapture capture;
  s.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

// ---------------------------------------------------------------------------
// PriorityServer (FCFS queue conservation).

TEST(PriorityServerAuditTest, CleanServerPassesAcrossStatsReset) {
  sim::Simulator s;
  sim::ServerPool pool(&s, "cpu", 1);
  const sim::PriorityServer& server = pool.node(0);
  int completions = 0;
  pool.Submit(0, 1.0, [&completions] { ++completions; });
  pool.SubmitShared(0.5, [&completions] { ++completions; });

  ScopedFailureCapture capture;
  server.CheckConsistency();
  s.RunUntilEmpty();
  EXPECT_EQ(completions, 2);
  server.CheckConsistency();
  // The conservation counters survive ResetStats — the law must still hold.
  pool.ResetStats();
  server.CheckConsistency();
  pool.CheckConsistency();
  EXPECT_EQ(capture.count(), 0);
}

TEST(PriorityServerAuditTest, FiresOnLostJob) {
  sim::Simulator s;
  sim::ServerPool pool(&s, "cpu", 1);
  pool.Submit(0, 1.0, [] {});
  // Pretend a second job was accepted that is nowhere to be found.
  ++sim::AuditTestPeer::Accepted(sim::AuditTestPeer::Node(pool, 0))[1];

  ScopedFailureCapture capture;
  pool.node(0).CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

TEST(PriorityServerAuditTest, FiresOnNegativeBusyTime) {
  sim::Simulator s;
  sim::ServerPool pool(&s, "io", 1);
  sim::AuditTestPeer::BusyTime(sim::AuditTestPeer::Node(pool, 0))[0] = -1.0;

  ScopedFailureCapture capture;
  pool.node(0).CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

TEST(PriorityServerAuditTest, FiresOnNegativeQueuedDemand) {
  sim::Simulator s;
  sim::ServerPool pool(&s, "cpu", 1);
  pool.Submit(0, 1.0, [] {});
  pool.Submit(0, 1.0, [] {});
  auto& queue = sim::AuditTestPeer::Queue(sim::AuditTestPeer::Node(pool, 0));
  ASSERT_FALSE(queue.empty());
  queue.front().remaining = -0.25;

  ScopedFailureCapture capture;
  pool.node(0).CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

// ---------------------------------------------------------------------------
// ServerPool (lock epochs and the pool event). Clean runs are audited
// throughout server_pool_test's differential scenarios.

TEST(ServerPoolAuditTest, FiresOnNodeServingADifferentShare) {
  sim::Simulator s;
  sim::ServerPool pool(&s, "io", 3);
  s.ScheduleAt(1.0, [&pool] { pool.SubmitShared(1.0, [] {}); });
  s.RunUntil(1.5);
  // Node 2 alone drifts out of step; its own audit still passes.
  sim::AuditTestPeer::ServiceStart(sim::AuditTestPeer::Node(pool, 2)) = 1.25;

  ScopedFailureCapture capture;
  pool.node(2).CheckConsistency();
  EXPECT_EQ(capture.count(), 0);
  pool.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

TEST(ServerPoolAuditTest, FiresOnPerNodeLockJob) {
  sim::Simulator s;
  sim::ServerPool pool(&s, "cpu", 2);
  // Lock work in service on one node bypasses the epoch. The node's own
  // conservation law still holds.
  sim::PriorityServer& node = sim::AuditTestPeer::Node(pool, 0);
  ++sim::AuditTestPeer::Accepted(node)[0];
  sim::AuditTestPeer::Lock(node) = true;

  ScopedFailureCapture capture;
  node.CheckConsistency();
  EXPECT_EQ(capture.count(), 0);
  pool.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

TEST(ServerPoolAuditTest, FiresOnceOnPoolEventArmedAboveTheMinimum) {
  sim::Simulator s;
  sim::ServerPool pool(&s, "cpu", 3);
  pool.Submit(0, 2.0, [] {});
  pool.Submit(1, 1.0, [] {});
  pool.Submit(2, 3.0, [] {});

  ScopedFailureCapture capture;
  pool.CheckConsistency();
  EXPECT_EQ(capture.count(), 0);
  // The pool believes its event waits for node 0's completion, but node
  // 1's is due first.
  sim::AuditTestPeer::ArmedTime(pool) = 2.0;
  pool.CheckConsistency();
  EXPECT_EQ(capture.count(), 1);
}

// ---------------------------------------------------------------------------
// LockTable (flat, conservative).

TEST(LockTableAuditTest, CleanTablePasses) {
  lockmgr::LockTable table(10);
  ASSERT_FALSE(table.TryAcquireAll(
      1, {{0, LockMode::kX}, {3, LockMode::kS}}));
  ASSERT_FALSE(table.TryAcquireAll(2, {{3, LockMode::kS}}));

  ScopedFailureCapture capture;
  table.CheckConsistency();
  table.ReleaseAll(1);
  table.CheckConsistency();
  table.ReleaseAll(2);
  table.CheckConsistency();
  EXPECT_EQ(capture.count(), 0);
}

TEST(LockTableAuditTest, FiresOnDanglingPerTxnIndexEntry) {
  lockmgr::LockTable table(10);
  ASSERT_FALSE(table.TryAcquireAll(1, {{0, LockMode::kX}}));
  // The index claims txn 1 also holds granule 7, but no holder entry exists.
  lockmgr::AuditTestPeer::HeldByTxn(table)[1].push_back(7);

  ScopedFailureCapture capture;
  table.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

TEST(LockTableAuditTest, FiresOnUnindexedHolder) {
  lockmgr::LockTable table(10);
  ASSERT_FALSE(table.TryAcquireAll(1, {{0, LockMode::kS}}));
  // A holder entry appears out of nowhere: granule 2 held by txn 9, which
  // has no per-txn index entry.
  lockmgr::AuditTestPeer::Granules(table)[2].holders.emplace_back(
      9, LockMode::kS);

  ScopedFailureCapture capture;
  table.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

TEST(LockTableAuditTest, FiresOnSharedExclusiveViolation) {
  lockmgr::LockTable table(10);
  ASSERT_FALSE(table.TryAcquireAll(1, {{4, LockMode::kX}}));
  ASSERT_FALSE(table.TryAcquireAll(2, {{5, LockMode::kS}}));
  // Sneak txn 2 in next to the exclusive holder of granule 4 (keeping the
  // per-txn index consistent, so only the S/X exclusion check can fire).
  lockmgr::AuditTestPeer::Granules(table)[4].holders.emplace_back(
      2, LockMode::kS);
  lockmgr::AuditTestPeer::HeldByTxn(table)[2].push_back(4);

  ScopedFailureCapture capture;
  table.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

// ---------------------------------------------------------------------------
// HierarchicalLockManager (multiple-granularity discipline).

TEST(HierarchicalAuditTest, CleanManagerPasses) {
  lockmgr::HierarchicalLockManager mgr({.num_granules = 100, .num_files = 4});
  ASSERT_FALSE(mgr.TryAcquireAll(
      1, {{ObjectId::Granule(3), LockMode::kX}}));
  ASSERT_FALSE(mgr.TryAcquireAll(
      2, {{ObjectId::Granule(80), LockMode::kS}}));

  ScopedFailureCapture capture;
  mgr.CheckConsistency();
  mgr.ReleaseAll(1);
  mgr.CheckConsistency();
  mgr.ReleaseAll(2);
  mgr.CheckConsistency();
  EXPECT_EQ(capture.count(), 0);
}

TEST(HierarchicalAuditTest, FiresOnMissingIntentionLock) {
  lockmgr::HierarchicalLockManager mgr({.num_granules = 100, .num_files = 4});
  ASSERT_FALSE(mgr.TryAcquireAll(
      1, {{ObjectId::Granule(3), LockMode::kX}}));
  // Weaken the root lock from IX to IS: txn 1 now holds an X granule
  // without the required intention on the root.
  auto& root_holders = lockmgr::AuditTestPeer::Holders(
      mgr)[lockmgr::AuditTestPeer::KeyOf(ObjectId::Root())];
  ASSERT_EQ(root_holders.size(), 1u);
  root_holders[0].second = LockMode::kIS;

  ScopedFailureCapture capture;
  mgr.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
  EXPECT_NE(capture.last_message().find("Invariant violated"),
            std::string::npos);
}

TEST(HierarchicalAuditTest, FiresOnNullLockHolderEntry) {
  lockmgr::HierarchicalLockManager mgr({.num_granules = 100, .num_files = 4});
  ASSERT_FALSE(mgr.TryAcquireAll(
      1, {{ObjectId::File(2), LockMode::kS}}));
  auto& holders = lockmgr::AuditTestPeer::Holders(
      mgr)[lockmgr::AuditTestPeer::KeyOf(ObjectId::File(2))];
  ASSERT_EQ(holders.size(), 1u);
  holders[0].second = LockMode::kNL;  // a held lock in mode "no lock"

  ScopedFailureCapture capture;
  mgr.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

TEST(HierarchicalAuditTest, FiresOnDanglingIndexEntry) {
  lockmgr::HierarchicalLockManager mgr({.num_granules = 100, .num_files = 4});
  ASSERT_FALSE(mgr.TryAcquireAll(
      1, {{ObjectId::Granule(10), LockMode::kS}}));
  lockmgr::AuditTestPeer::HeldByTxn(mgr)[1].push_back(
      lockmgr::AuditTestPeer::KeyOf(ObjectId::Granule(55)));

  ScopedFailureCapture capture;
  mgr.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

// ---------------------------------------------------------------------------
// WaitQueueLockTable (FCFS conservation + no missed grants).

TEST(WaitQueueAuditTest, CleanTablePassesThroughQueueingAndRelease) {
  lockmgr::WaitQueueLockTable table(10);
  EXPECT_EQ(table.Acquire(1, 0, LockMode::kX),
            lockmgr::WaitQueueLockTable::AcquireResult::kGranted);
  EXPECT_EQ(table.Acquire(2, 0, LockMode::kS),
            lockmgr::WaitQueueLockTable::AcquireResult::kQueued);
  EXPECT_EQ(table.Acquire(3, 0, LockMode::kS),
            lockmgr::WaitQueueLockTable::AcquireResult::kQueued);

  ScopedFailureCapture capture;
  table.CheckConsistency();
  const std::vector<lockmgr::TxnId> granted = table.ReleaseAll(1);
  EXPECT_EQ(granted.size(), 2u);
  table.CheckConsistency();
  table.ReleaseAll(2);
  table.ReleaseAll(3);
  table.CheckConsistency();
  EXPECT_EQ(capture.count(), 0);
}

TEST(WaitQueueAuditTest, FiresOnWaitingCountDrift) {
  lockmgr::WaitQueueLockTable table(10);
  table.Acquire(1, 0, LockMode::kX);
  table.Acquire(2, 0, LockMode::kX);  // queued
  ++lockmgr::AuditTestPeer::WaitingCount(table);

  ScopedFailureCapture capture;
  table.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

TEST(WaitQueueAuditTest, FiresOnMissedGrant) {
  lockmgr::WaitQueueLockTable table(10);
  // Construct (via the peer, keeping every *other* invariant intact) a
  // granule with no holders but a queued waiter: the head is compatible,
  // so the drain-on-release discipline must have missed a grant.
  auto& state = lockmgr::AuditTestPeer::Granules(table)[4];
  state.queue.push_back({7, LockMode::kS});
  lockmgr::AuditTestPeer::QueuedOn(table)[7] = 4;
  ++lockmgr::AuditTestPeer::WaitingCount(table);

  ScopedFailureCapture capture;
  table.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
  EXPECT_NE(capture.last_message().find("grant"), std::string::npos);
}

TEST(WaitQueueAuditTest, FiresOnQueueMembershipMismatch) {
  lockmgr::WaitQueueLockTable table(10);
  table.Acquire(1, 0, LockMode::kX);
  table.Acquire(2, 0, LockMode::kX);  // queued on granule 0
  // The reverse map claims txn 2 waits on granule 5 instead.
  lockmgr::AuditTestPeer::QueuedOn(table)[2] = 5;

  ScopedFailureCapture capture;
  table.CheckConsistency();
  EXPECT_GT(capture.count(), 0);
}

// ---------------------------------------------------------------------------
// Engines: a full simulation under deep audit must pass cleanly, and a
// corrupted conservation counter must fire. The engine audits run at every
// quiescent point during the run (that is the --audit bench flag); here we
// also invoke them directly on the final state through the peer.

class EngineAuditTest : public ::testing::Test {
 protected:
  // Small but contended configuration: a few thousand events, fast.
  static model::SystemConfig SmallConfig() {
    model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
    cfg.tmax = 300.0;
    cfg.ltot = 20;
    return cfg;
  }

  void SetUp() override { sim::invariants::SetDeepAudit(true); }
  void TearDown() override { sim::invariants::SetDeepAudit(false); }
};

TEST_F(EngineAuditTest, ExplicitEngineAuditsEveryNodeServer) {
  const model::SystemConfig cfg = SmallConfig();
  db::ExplicitSimulator engine(cfg, workload::WorkloadSpec::Base(cfg),
                               /*seed=*/7, {});
  ASSERT_TRUE(engine.Run().ok());

  ScopedFailureCapture capture;
  db::AuditTestPeer::Check(engine);
  EXPECT_EQ(capture.count(), 0);

  // One disk loses a submitted job; only that node's own FCFS
  // conservation audit can see it.
  ++sim::AuditTestPeer::Accepted(sim::AuditTestPeer::Node(
      db::AuditTestPeer::Disks(engine), cfg.npros - 1))[1];
  db::AuditTestPeer::Check(engine);
  EXPECT_GT(capture.count(), 0);
}

TEST_F(EngineAuditTest, ExplicitHierarchicalEngineRunsClean) {
  const model::SystemConfig cfg = SmallConfig();
  db::ExplicitSimulator::Options options;
  options.strategy = db::ExplicitSimulator::LockingStrategy::kHierarchical;
  options.coarse_threshold = 100;
  options.num_files = 4;
  db::ExplicitSimulator engine(cfg, workload::WorkloadSpec::Base(cfg),
                               /*seed=*/7, options);
  ASSERT_TRUE(engine.Run().ok());

  ScopedFailureCapture capture;
  db::AuditTestPeer::Check(engine);
  EXPECT_EQ(capture.count(), 0);
}

TEST_F(EngineAuditTest, IncrementalEngineRunsCleanAndDetectsCorruption) {
  model::SystemConfig cfg = SmallConfig();
  cfg.maxtransize = 50;  // deadlock-prone: incremental + random placement
  workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  spec.placement = model::Placement::kRandom;
  db::IncrementalSimulator engine(cfg, spec, /*seed=*/7, {});
  ASSERT_TRUE(engine.Run().ok());  // waits-for acyclicity audited throughout

  ScopedFailureCapture capture;
  db::AuditTestPeer::Check(engine);
  EXPECT_EQ(capture.count(), 0);

  db::AuditTestPeer::InBackoff(engine) += 1;
  db::AuditTestPeer::Check(engine);
  EXPECT_GT(capture.count(), 0);
}

// The three conservative engines share one lifecycle audit. Each case runs
// its engine clean under deep audits, then drifts the blocked count.
class ConservativeEngineAuditTest
    : public EngineAuditTest,
      public ::testing::WithParamInterface<std::string> {
 protected:
  // Audits `engine` clean, then again after the blocked count drifts.
  template <typename Peer, typename Engine>
  static void ExpectBlockedDriftCaught(Engine& engine) {
    ScopedFailureCapture capture;
    Peer::Check(engine);
    EXPECT_EQ(capture.count(), 0);

    Peer::BlockedCount(engine) += 1;
    Peer::Check(engine);
    EXPECT_GT(capture.count(), 0);
  }
};

INSTANTIATE_TEST_SUITE_P(Engines, ConservativeEngineAuditTest,
                         ::testing::Values("granularity", "explicit",
                                           "transfer"),
                         [](const auto& info) { return info.param; });

TEST_P(ConservativeEngineAuditTest, RunsCleanAndDetectsCorruption) {
  model::SystemConfig cfg = SmallConfig();
  if (GetParam() == "granularity") {
    core::GranularitySimulator engine(cfg, workload::WorkloadSpec::Base(cfg),
                                      /*seed=*/7, {});
    ASSERT_TRUE(engine.Run().ok());  // deep audits ran at every quiescent point
    ExpectBlockedDriftCaught<core::AuditTestPeer>(engine);
  } else if (GetParam() == "explicit") {
    db::ExplicitSimulator engine(cfg, workload::WorkloadSpec::Base(cfg),
                                 /*seed=*/7, {});
    ASSERT_TRUE(engine.Run().ok());
    ExpectBlockedDriftCaught<db::AuditTestPeer>(engine);
  } else {
    cfg.dbsize = 200;
    cfg.ltot = 50;
    cfg.maxtransize = 20;  // must stay <= dbsize; ignored by this engine
    db::TransferSimulator engine(cfg, /*seed=*/7,
                                 db::TransferSimulator::Options{});
    const auto report = engine.Run();
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->conserved);
    ExpectBlockedDriftCaught<db::AuditTestPeer>(engine);
  }
}

// ---------------------------------------------------------------------------
// The conservative-locking lifecycle, driven by hand.

struct LifecycleTxn : core::ConservativeTxn<LifecycleTxn> {};

// Stands in for an engine: dispatch starts the lock request, nothing else.
struct LifecycleDriver {
  explicit LifecycleDriver(const model::SystemConfig& cfg)
      : kernel(cfg, obs::Hooks{}, /*trace=*/nullptr, /*watchdog=*/nullptr),
        locking(&kernel) {
    EXPECT_TRUE(kernel.Begin(/*spec=*/nullptr).ok());
    kernel.Open<&LifecycleDriver::Sample>(this, /*imputed=*/true);
  }

  double Sample(core::ClosedSystemKernel::Edges* edges) const {
    locking.AppendWaitsFor(edges);
    return 0.0;
  }
  void Dispatch(LifecycleTxn* txn) {
    locking.BeginRequest(txn, 1);
    dispatched.push_back(txn);
  }

  // Dispatches the head of the pending queue and ends its lock request.
  LifecycleTxn* RequestNext() {
    locking.Pump<&LifecycleDriver::Dispatch>(this, /*serialized=*/true, 0);
    LifecycleTxn* txn = dispatched.back();
    locking.EndRequest(txn);
    return txn;
  }

  core::ClosedSystemKernel kernel;
  core::ConservativeLocking<LifecycleTxn> locking;
  std::vector<LifecycleTxn*> dispatched;
};

TEST(ConservativeLockingAuditTest, FiresOnEachCorruption) {
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  LifecycleDriver d(cfg);
  LifecycleTxn txns[3];
  for (int i = 0; i < 3; ++i) {
    txns[i].id = static_cast<uint64_t>(i + 1);
    d.locking.Enqueue(&txns[i]);
  }
  // Serialized: each request is dispatched only once the last one ended.
  LifecycleTxn* a = d.RequestNext();
  d.locking.Grant(a, 1);
  LifecycleTxn* b = d.RequestNext();
  d.locking.Block(b, a);
  LifecycleTxn* c = d.RequestNext();
  d.locking.Block(c, a);
  ASSERT_EQ(d.dispatched,
            (std::vector<LifecycleTxn*>{&txns[0], &txns[1], &txns[2]}));
  ASSERT_EQ(d.locking.active().size(), 1u);
  ASSERT_EQ(a->blocked.size(), 2u);
  core::ClosedSystemKernel::Edges edges;
  d.locking.AppendWaitsFor(&edges);
  EXPECT_EQ(edges.size(), 2u);

  ScopedFailureCapture capture;
  d.locking.CheckConsistency(/*live=*/3);
  EXPECT_EQ(capture.count(), 0) << capture.last_message();

  // Blocked-count drift: conservation and the blocked lists disagree.
  core::AuditTestPeer::BlockedCount(d.locking) += 1;
  d.locking.CheckConsistency(3);
  EXPECT_GT(capture.count(), 0);
  core::AuditTestPeer::BlockedCount(d.locking) -= 1;

  // A conservation mismatch: a transaction is in none of the queues.
  capture.Reset();
  d.locking.CheckConsistency(/*live=*/4);
  EXPECT_EQ(capture.count(), 1);
  EXPECT_NE(capture.last_message().find("live=4"), std::string::npos)
      << capture.last_message();

  // A blocked transaction that itself blocks another: a waits-for chain
  // that conservative locking cannot form.
  capture.Reset();
  b->blocked.push_back(c);
  d.locking.CheckConsistency(3);
  EXPECT_EQ(capture.count(), 1);
  EXPECT_NE(capture.last_message().find("waits-for chain"), std::string::npos)
      << capture.last_message();
  b->blocked.clear();

  // The holder completes: both waiters re-enter the pending queue.
  capture.Reset();
  d.locking.Retire(a, /*requeue_at_tail=*/true);
  EXPECT_TRUE(d.locking.active().empty());
  d.locking.CheckConsistency(/*live=*/2);
  EXPECT_EQ(capture.count(), 0) << capture.last_message();
}

}  // namespace
}  // namespace granulock
