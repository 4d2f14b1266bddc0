// Differential test of lock epochs: every seeded scenario runs twice on a
// fresh simulator, once with each shared lock job fanned out as one
// `Submit(kLock, ...)` per node (the model as the paper states it) and once
// through `ServerPool::SubmitShared`. Everything observable must be
// bit-identical; only the executed-event count may differ, by exactly
// npros - 1 per completed shared job.

#include "sim/server_pool.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/invariants.h"
#include "sim/simulator.h"
#include "util/random.h"

namespace granulock::sim {
namespace {

// One scripted action. A follow-up runs inside the completion callback of
// the job it is attached to, so it lands at the exact instant that job
// (for a shared job: its whole epoch) ends.
struct Action {
  enum Kind { kTxn, kShared, kReset };
  Kind kind = kTxn;
  double at = 0.0;       // top-level actions only
  int64_t node = 0;      // kTxn
  double service = 0.0;  // kTxn: demand; kShared: per-node share
  int follow_up = -1;    // index into Scenario::follow_ups, or -1
};

struct Scenario {
  int64_t npros = 1;
  double horizon = 0.0;
  std::vector<Action> actions;     // scheduled at `at`
  std::vector<Action> follow_ups;  // never have follow-ups themselves
};

// Demands and times are mostly multiples of 0.25 — exact in binary — so
// arrivals, epoch ends and transaction completions coincide often: a
// transaction preempted at its own finish instant resumes with zero
// remaining, and jobs arrive exactly as an epoch closes. The rest are
// continuous draws.
double Draw(Rng& rng, double max) {
  if (rng.Bernoulli(0.7)) {
    return 0.25 * static_cast<double>(
                      rng.UniformInt(0, static_cast<int64_t>(max * 4)));
  }
  return rng.UniformDouble(0.0, max);
}

Action RandomJob(Rng& rng, int64_t npros) {
  Action a;
  if (rng.Bernoulli(0.45)) {
    a.kind = Action::kShared;
    a.service = rng.Bernoulli(0.1) ? 0.0 : Draw(rng, 1.5);
  } else {
    a.kind = Action::kTxn;
    a.node = rng.UniformInt(0, npros - 1);
    a.service = Draw(rng, 3.0);
  }
  return a;
}

Scenario MakeScenario(int64_t npros, uint64_t seed) {
  Rng rng(seed);
  Scenario s;
  s.npros = npros;
  s.horizon = 30.0;
  const int64_t count = rng.UniformInt(20, 80);
  for (int64_t i = 0; i < count; ++i) {
    Action a;
    if (rng.Bernoulli(0.04)) {
      a.kind = Action::kReset;
    } else {
      a = RandomJob(rng, npros);
      if (rng.Bernoulli(0.3)) {
        s.follow_ups.push_back(RandomJob(rng, npros));
        a.follow_up = static_cast<int>(s.follow_ups.size()) - 1;
      }
    }
    a.at = Draw(rng, 25.0);
    s.actions.push_back(a);
  }
  // Bursts: several jobs at one instant, so shared jobs overlap and queue.
  const double burst_at = Draw(rng, 20.0);
  for (int i = 0; i < 4; ++i) {
    Action a = RandomJob(rng, npros);
    a.at = burst_at;
    s.actions.push_back(a);
  }
  return s;
}

// A completion: the job's id (action index, or actions.size() plus the
// follow-up index) and its timestamp.
struct Logged {
  size_t id;
  double time;
  bool operator==(const Logged& o) const {
    return id == o.id && time == o.time;
  }
};

struct Outcome {
  std::vector<Logged> log;
  std::vector<double> lock_busy, txn_busy;
  std::vector<uint64_t> lock_done, txn_done;
  std::vector<size_t> txn_queued;
  double any_busy = 0.0, lock_union = 0.0;
  uint64_t events = 0;
  uint64_t shared_completed = 0;
  int audit_failures = 0;
};

// Runs one scenario; `pooled` picks SubmitShared over the per-node fan-out.
class Harness {
 public:
  Harness(const Scenario& s, bool pooled)
      : s_(s), pooled_(pooled), pool_(&sim_, "n", s.npros) {}

  Outcome Run() {
    invariants::ScopedFailureCapture capture;
    for (size_t i = 0; i < s_.actions.size(); ++i) {
      sim_.ScheduleAt(s_.actions[i].at,
                      [this, i] { Perform(s_.actions[i], i); });
    }
    sim_.RunUntil(s_.horizon);
    Audit();
    Outcome out;
    out.log = std::move(log_);
    for (int64_t n = 0; n < s_.npros; ++n) {
      const PriorityServer& node = pool_.node(n);
      out.lock_busy.push_back(node.BusyTime(ServiceClass::kLock));
      out.txn_busy.push_back(node.BusyTime(ServiceClass::kTransaction));
      out.lock_done.push_back(node.CompletedJobs(ServiceClass::kLock));
      out.txn_done.push_back(node.CompletedJobs(ServiceClass::kTransaction));
      out.txn_queued.push_back(node.QueueLength(ServiceClass::kTransaction));
    }
    out.any_busy = pool_.busy_union().AnyBusyTime(sim_.Now());
    out.lock_union = pool_.busy_union().LockBusyTime(sim_.Now());
    out.events = sim_.ExecutedEvents();
    out.shared_completed = shared_completed_;
    out.audit_failures = capture.count();
    return out;
  }

 private:
  void Perform(const Action& a, size_t id) {
    switch (a.kind) {
      case Action::kReset:
        pool_.ResetStats();
        break;
      case Action::kTxn:
        pool_.node(a.node).Submit(ServiceClass::kTransaction, a.service,
                                  [this, a, id] { Done(a, id); });
        break;
      case Action::kShared:
        if (pooled_) {
          pool_.SubmitShared(a.service, [this, a, id] { Done(a, id); });
        } else {
          // The per-node fan-out: the last node's completion is the job's.
          auto remaining = std::make_shared<int64_t>(s_.npros);
          for (int64_t n = 0; n < s_.npros; ++n) {
            pool_.node(n).Submit(ServiceClass::kLock, a.service,
                                 [this, a, id, remaining] {
                                   if (--*remaining == 0) Done(a, id);
                                 });
          }
        }
        break;
    }
    Audit();
  }

  void Done(const Action& a, size_t id) {
    log_.push_back({id, sim_.Now()});
    if (a.kind == Action::kShared) ++shared_completed_;
    Audit();
    if (a.follow_up >= 0) {
      const size_t f = static_cast<size_t>(a.follow_up);
      Perform(s_.follow_ups[f], s_.actions.size() + f);
    }
  }

  // The pool audit only holds for pooled runs: the fan-out submits lock
  // work per node, which is exactly what it reports.
  void Audit() const {
    if (pooled_) pool_.CheckConsistency();
  }

  const Scenario& s_;
  const bool pooled_;
  Simulator sim_;
  ServerPool pool_;
  std::vector<Logged> log_;
  uint64_t shared_completed_ = 0;
};

class ServerPoolDifferentialTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(ServerPoolDifferentialTest, LockEpochsMatchPerNodeFanOutBitForBit) {
  const int64_t npros = GetParam();
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("npros=" + std::to_string(npros) +
                 " seed=" + std::to_string(seed));
    const Scenario s = MakeScenario(npros, seed * 7919 + npros);
    const Outcome fan = Harness(s, /*pooled=*/false).Run();
    const Outcome pool = Harness(s, /*pooled=*/true).Run();
    ASSERT_EQ(fan.log.size(), pool.log.size());
    for (size_t i = 0; i < fan.log.size(); ++i) {
      ASSERT_EQ(fan.log[i], pool.log[i])
          << "completion " << i << ": job " << fan.log[i].id << "@"
          << fan.log[i].time << " vs job " << pool.log[i].id << "@"
          << pool.log[i].time;
    }
    EXPECT_EQ(fan.lock_busy, pool.lock_busy);
    EXPECT_EQ(fan.txn_busy, pool.txn_busy);
    EXPECT_EQ(fan.lock_done, pool.lock_done);
    EXPECT_EQ(fan.txn_done, pool.txn_done);
    EXPECT_EQ(fan.txn_queued, pool.txn_queued);
    EXPECT_EQ(fan.any_busy, pool.any_busy);
    EXPECT_EQ(fan.lock_union, pool.lock_union);
    EXPECT_EQ(fan.shared_completed, pool.shared_completed);
    EXPECT_EQ(fan.events - pool.events,
              static_cast<uint64_t>(npros - 1) * pool.shared_completed);
    EXPECT_EQ(pool.audit_failures, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Npros, ServerPoolDifferentialTest,
                         ::testing::Values(1, 2, 5, 30));

// --- Direct behaviour ------------------------------------------------------

TEST(ServerPoolTest, SharedJobPreemptsEveryNodeWithOneEvent) {
  Simulator sim;
  ServerPool pool(&sim, "cpu", 3);
  double txn_done = -1.0, lock_done = -1.0;
  pool.node(1).Submit(ServiceClass::kTransaction, 4.0,
                      [&] { txn_done = sim.Now(); });
  sim.ScheduleAt(1.0, [&] {
    pool.SubmitShared(2.0, [&] { lock_done = sim.Now(); });
  });
  sim.RunUntilEmpty();
  EXPECT_EQ(lock_done, 3.0);
  EXPECT_EQ(txn_done, 6.0);  // 1.0 served, preempted for 2.0, 3.0 more
  for (int64_t n = 0; n < 3; ++n) {
    EXPECT_EQ(pool.node(n).BusyTime(ServiceClass::kLock), 2.0);
    EXPECT_EQ(pool.node(n).CompletedJobs(ServiceClass::kLock), 1u);
  }
  // Scheduling action, epoch end, the preempted txn's resumed completion.
  EXPECT_EQ(sim.ExecutedEvents(), 3u);
}

TEST(ServerPoolTest, NegativeShareIsRejected) {
  Simulator sim;
  ServerPool pool(&sim, "cpu", 2);
  EXPECT_DEATH(pool.SubmitShared(-1.0, [] {}), "negative");
}

}  // namespace
}  // namespace granulock::sim
