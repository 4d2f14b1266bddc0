// Differential test of pool-level completions and lock epochs. Every
// seeded scenario runs twice on a fresh simulator: once on `ServerPool`,
// and once on an independent reference written here, a per-node
// preemptive-resume server that schedules and cancels one `Simulator`
// event per job and serves each shared lock job as one `kLock` job per
// node. Everything observable must be bit-identical, including where
// test-owned probe events fall among the completions; only the
// executed-event count may differ, by exactly npros - 1 per completed
// one-event shared job.

#include "sim/server_pool.h"

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/busy_union.h"
#include "sim/invariants.h"
#include "sim/simulator.h"
#include "util/random.h"

namespace granulock::sim {
namespace {

// The reference: one node's server, scheduling its own completion event.
// Same discipline and accounting as the pool, including `ResetStats`
// keeping the in-service job's remaining demand.
class RefServer {
 public:
  RefServer(Simulator* sim, BusyUnionTracker* tracker)
      : sim_(sim), union_(tracker) {}

  void Submit(ServiceClass cls, double service, InlineCallback done) {
    const int c = static_cast<int>(cls);
    queues_[c].push_back(Job{cls, service, std::move(done)});
    if (current_.has_value()) {
      if (cls == ServiceClass::kLock &&
          current_->cls == ServiceClass::kTransaction) {
        // Preemptive-resume: back to the head of its queue, minus the
        // service received.
        sim_->Cancel(event_);
        Job job = Leave();
        const int t = static_cast<int>(job.cls);
        job.remaining -= sim_->Now() - start_;
        if (job.remaining < 0.0) job.remaining = 0.0;
        queues_[t].push_front(std::move(job));
        StartNext();
      }
      return;
    }
    StartNext();
  }

  double BusyTime(ServiceClass cls) const {
    double t = busy_[static_cast<int>(cls)];
    if (current_.has_value() && current_->cls == cls) {
      t += sim_->Now() - start_;
    }
    return t;
  }
  uint64_t CompletedJobs(ServiceClass cls) const {
    return done_[static_cast<int>(cls)];
  }
  size_t QueueLength(ServiceClass cls) const {
    return queues_[static_cast<int>(cls)].size();
  }
  void ResetStats() {
    busy_[0] = busy_[1] = 0.0;
    done_[0] = done_[1] = 0;
    if (current_.has_value()) start_ = sim_->Now();
  }

 private:
  struct Job {
    ServiceClass cls;
    double remaining;
    InlineCallback done;
  };

  void StartNext() {
    for (std::deque<Job>& queue : queues_) {
      if (queue.empty()) continue;
      current_ = std::move(queue.front());
      queue.pop_front();
      Transition(+1);
      start_ = sim_->Now();
      event_ = sim_->ScheduleAfter(current_->remaining, [this] { Finish(); });
      return;
    }
  }

  void Finish() {
    ++done_[static_cast<int>(current_->cls)];
    InlineCallback done = std::move(Leave().done);
    StartNext();
    if (done) done();
  }

  // Takes the in-service job out of service, crediting its busy time.
  Job Leave() {
    busy_[static_cast<int>(current_->cls)] += sim_->Now() - start_;
    Transition(-1);
    Job job = std::move(*current_);
    current_.reset();
    return job;
  }

  void Transition(int delta) {
    union_->Transition(sim_->Now(), delta,
                       current_->cls == ServiceClass::kLock ? delta : 0);
  }

  Simulator* sim_;
  BusyUnionTracker* union_;
  std::deque<Job> queues_[kNumServiceClasses];
  std::optional<Job> current_;
  double start_ = 0.0;
  EventId event_ = 0;
  double busy_[kNumServiceClasses] = {0.0, 0.0};
  uint64_t done_[kNumServiceClasses] = {0, 0};
};

// One scripted action. A follow-up runs inside the completion callback of
// the job it is attached to, so it lands at the exact instant that job
// (for a shared job: its whole epoch) ends.
struct Action {
  // kShared ends with one event; kFanOut is the explicit engine's lock
  // phase, one kLock completion per node.
  enum Kind { kTxn, kShared, kFanOut, kReset };
  Kind kind = kTxn;
  double at = 0.0;       // top-level actions only
  int64_t node = 0;      // kTxn
  double service = 0.0;  // kTxn: demand; kShared, kFanOut: per-node share
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
    a.kind = rng.Bernoulli(0.3) ? Action::kFanOut : Action::kShared;
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

// A firing: a job's id (action index, or actions.size() plus the
// follow-up index) or a probe's (kProbeId plus its number), and its time.
struct Logged {
  size_t id;
  double time;
  bool operator==(const Logged& o) const {
    return id == o.id && time == o.time;
  }
};
constexpr size_t kProbeId = 1000000;

struct Outcome {
  std::vector<Logged> log;
  std::vector<double> lock_busy, txn_busy;
  std::vector<uint64_t> lock_done, txn_done;
  std::vector<size_t> txn_queued;
  double any_busy = 0.0, lock_union = 0.0;
  uint64_t events = 0;
  uint64_t shared_completed = 0;  // kShared jobs only
  int audit_failures = 0;
};

// Runs one scenario on the pool or on the reference.
class Harness {
 public:
  Harness(const Scenario& s, bool pooled)
      : s_(s), pooled_(pooled), pool_(&sim_, "n", s.npros) {
    for (int64_t n = 0; n < s.npros; ++n) {
      ref_.emplace_back(&sim_, &ref_union_);
    }
  }

  Outcome Run() {
    invariants::ScopedFailureCapture capture;
    // Probes at every multiple of 0.25, scheduled first: each falls
    // before whatever is scheduled later for its instant.
    for (int k = 0; k * 0.25 <= s_.horizon; ++k) Probe(k * 0.25);
    for (size_t i = 0; i < s_.actions.size(); ++i) {
      sim_.ScheduleAt(s_.actions[i].at,
                      [this, i] { Perform(s_.actions[i], i); });
    }
    sim_.RunUntil(s_.horizon);
    Audit();
    Outcome out;
    out.log = std::move(log_);
    for (int64_t n = 0; n < s_.npros; ++n) {
      out.lock_busy.push_back(BusyTime(n, ServiceClass::kLock));
      out.txn_busy.push_back(BusyTime(n, ServiceClass::kTransaction));
      out.lock_done.push_back(Completed(n, ServiceClass::kLock));
      out.txn_done.push_back(Completed(n, ServiceClass::kTransaction));
      out.txn_queued.push_back(TxnQueued(n));
    }
    const BusyUnionTracker& tracker =
        pooled_ ? pool_.busy_union() : ref_union_;
    out.any_busy = tracker.AnyBusyTime(sim_.Now());
    out.lock_union = tracker.LockBusyTime(sim_.Now());
    out.events = sim_.ExecutedEvents();
    out.shared_completed = shared_completed_;
    out.audit_failures = capture.count();
    return out;
  }

 private:
  void Probe(double at) {
    const size_t id = kProbeId + probes_++;
    sim_.ScheduleAt(at, [this, id] { log_.push_back({id, sim_.Now()}); });
  }

  void Perform(const Action& a, size_t id) {
    switch (a.kind) {
      case Action::kReset:
        if (pooled_) {
          pool_.ResetStats();
        } else {
          for (RefServer& node : ref_) node.ResetStats();
          ref_union_.ResetWindow(sim_.Now());
        }
        break;
      case Action::kTxn:
        if (pooled_) {
          pool_.Submit(a.node, a.service, [this, a, id] { Done(a, id); });
        } else {
          ref_[static_cast<size_t>(a.node)].Submit(
              ServiceClass::kTransaction, a.service,
              [this, a, id] { Done(a, id); });
        }
        break;
      case Action::kShared:
      case Action::kFanOut:
        if (pooled_) {
          pool_.SubmitShared(a.service, [this, a, id] { Done(a, id); },
                             a.kind == Action::kShared
                                 ? EpochEnd::kOneEvent
                                 : EpochEnd::kEventPerNode);
        } else {
          // One kLock job per node; the last node's completion is the
          // job's.
          auto remaining = std::make_shared<int64_t>(s_.npros);
          for (RefServer& node : ref_) {
            node.Submit(ServiceClass::kLock, a.service,
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
    // A probe scheduled mid-run draws its sequence number among the
    // pool's reservations, so the log checks their interleaving too.
    const double next_quarter = 0.25 * std::ceil(sim_.Now() * 4.0);
    Probe(next_quarter + 0.25 * static_cast<double>(id % 3));
    if (a.follow_up >= 0) {
      const size_t f = static_cast<size_t>(a.follow_up);
      Perform(s_.follow_ups[f], s_.actions.size() + f);
    }
  }

  void Audit() const {
    if (!pooled_) return;
    pool_.CheckConsistency();
    sim_.CheckConsistency();
  }

  double BusyTime(int64_t n, ServiceClass cls) const {
    return pooled_ ? pool_.node(n).BusyTime(cls)
                   : ref_[static_cast<size_t>(n)].BusyTime(cls);
  }
  uint64_t Completed(int64_t n, ServiceClass cls) const {
    return pooled_ ? pool_.node(n).CompletedJobs(cls)
                   : ref_[static_cast<size_t>(n)].CompletedJobs(cls);
  }
  size_t TxnQueued(int64_t n) const {
    const ServiceClass txn = ServiceClass::kTransaction;
    return pooled_ ? pool_.node(n).QueueLength(txn)
                   : ref_[static_cast<size_t>(n)].QueueLength(txn);
  }

  const Scenario& s_;
  const bool pooled_;
  Simulator sim_;
  ServerPool pool_;
  BusyUnionTracker ref_union_;
  std::deque<RefServer> ref_;
  std::vector<Logged> log_;
  size_t probes_ = 0;
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
          << "firing " << i << ": " << fan.log[i].id << "@"
          << fan.log[i].time << " vs " << pool.log[i].id << "@"
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
  pool.Submit(1, 4.0, [&] { txn_done = sim.Now(); });
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

TEST(ServerPoolTest, EpochCostsOneCancelAndOneScheduleWhateverTheNodeCount) {
  Simulator sim;
  ServerPool pool(&sim, "cpu", 16);
  for (int64_t n = 0; n < 16; ++n) pool.Submit(n, 4.0 + 0.25 * n, [] {});
  const uint64_t scheduled = sim.ScheduledEvents();
  const uint64_t cancelled = sim.CancelledEvents();
  pool.SubmitShared(1.0, [] {});
  EXPECT_EQ(sim.ScheduledEvents() - scheduled, 1u);
  EXPECT_EQ(sim.CancelledEvents() - cancelled, 1u);
  // The epoch's end resumes all 16 nodes and re-arms once.
  sim.Step();
  EXPECT_EQ(sim.Now(), 1.0);
  EXPECT_EQ(sim.ScheduledEvents() - scheduled, 2u);
  sim.RunUntilEmpty();
  EXPECT_EQ(sim.ExecutedEvents(), 17u);
  EXPECT_EQ(sim.ScheduledEvents() - scheduled, 17u);
  EXPECT_EQ(sim.CancelledEvents() - cancelled, 1u);
}

TEST(ServerPoolTest, NegativeShareIsRejected) {
  Simulator sim;
  ServerPool pool(&sim, "cpu", 2);
  EXPECT_DEATH(pool.SubmitShared(-1.0, [] {}), "negative");
}

}  // namespace
}  // namespace granulock::sim
