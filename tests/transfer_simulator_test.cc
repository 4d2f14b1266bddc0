#include "db/transfer_simulator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

namespace granulock::db {
namespace {

model::SystemConfig TransferConfig() {
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  cfg.dbsize = 200;  // accounts
  cfg.ltot = 20;
  cfg.ntrans = 10;
  cfg.npros = 4;
  cfg.maxtransize = 2;  // informational; the engine fixes size at 2
  cfg.tmax = 1500.0;
  return cfg;
}

TransferSimulator::Report MustRun(const model::SystemConfig& cfg,
                                  uint64_t seed,
                                  TransferSimulator::Options options = {}) {
  auto result = TransferSimulator::RunOnce(cfg, seed, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.value_or(TransferSimulator::Report{});
}

TEST(TransferSimulatorTest, CompletesTransfers) {
  const auto report = MustRun(TransferConfig(), 1);
  EXPECT_GT(report.metrics.totcom, 0);
  EXPECT_GT(report.metrics.throughput, 0.0);
  EXPECT_GT(report.writes_applied, 0);
}

TEST(TransferSimulatorTest, LockingConservesMoney) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const auto report = MustRun(TransferConfig(), seed);
    EXPECT_TRUE(report.conserved) << "seed " << seed << ": "
                                  << report.initial_total << " -> "
                                  << report.final_total;
  }
}

class TransferGranularityTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(TransferGranularityTest, LockingConservesMoneyAtEveryGranularity) {
  model::SystemConfig cfg = TransferConfig();
  cfg.ltot = GetParam();
  const auto report = MustRun(cfg, 7);
  EXPECT_TRUE(report.conserved)
      << report.initial_total << " -> " << report.final_total;
  EXPECT_GT(report.metrics.totcom, 0);
}

INSTANTIATE_TEST_SUITE_P(Ltot, TransferGranularityTest,
                         ::testing::Values<int64_t>(1, 2, 10, 50, 200));

TEST(TransferSimulatorTest, NoLockingLosesUpdatesUnderContention) {
  // Few accounts, many concurrent transfers: unprotected read-then-write
  // windows overlap constantly, so money is (deterministically, given the
  // seed) not conserved.
  model::SystemConfig cfg = TransferConfig();
  cfg.dbsize = 5;
  cfg.ltot = 5;
  cfg.ntrans = 20;
  TransferSimulator::Options options;
  options.concurrency_control =
      TransferSimulator::ConcurrencyControl::kNoLocking;
  const auto report = MustRun(cfg, 1, options);
  EXPECT_FALSE(report.conserved)
      << "expected lost updates: " << report.initial_total << " -> "
      << report.final_total;
  EXPECT_GT(report.metrics.totcom, 0);
  EXPECT_EQ(report.metrics.lock_requests, 0);
}

TEST(TransferSimulatorTest, NoLockingIsFasterButWrong) {
  model::SystemConfig cfg = TransferConfig();
  cfg.dbsize = 20;
  cfg.ltot = 1;  // whole-database lock: locking serializes hard
  cfg.ntrans = 20;
  TransferSimulator::Options nolock;
  nolock.concurrency_control =
      TransferSimulator::ConcurrencyControl::kNoLocking;
  const auto locked = MustRun(cfg, 1);
  const auto unlocked = MustRun(cfg, 1, nolock);
  EXPECT_GT(unlocked.metrics.throughput, locked.metrics.throughput);
  EXPECT_TRUE(locked.conserved);
  EXPECT_FALSE(unlocked.conserved);
}

TEST(TransferSimulatorTest, FineGranularityHelpsSmallTransactions) {
  // Transfers touch 2 of 200 accounts: the paper's small-random-access
  // case, where fine granularity wins.
  model::SystemConfig cfg = TransferConfig();
  cfg.ntrans = 20;
  cfg.ltot = 1;
  const double serial = MustRun(cfg, 3).metrics.throughput;
  cfg.ltot = 200;
  const double fine = MustRun(cfg, 3).metrics.throughput;
  EXPECT_GT(fine, serial);
}

TEST(TransferSimulatorTest, HotSpotIncreasesContention) {
  model::SystemConfig cfg = TransferConfig();
  cfg.ntrans = 20;
  cfg.ltot = 200;
  TransferSimulator::Options uniform;
  TransferSimulator::Options hot;
  hot.hot_fraction = 1.0;  // every transfer debits account 0
  const auto r_uniform = MustRun(cfg, 5, uniform);
  const auto r_hot = MustRun(cfg, 5, hot);
  EXPECT_GT(r_hot.metrics.denial_rate, r_uniform.metrics.denial_rate);
  EXPECT_LT(r_hot.metrics.throughput, r_uniform.metrics.throughput);
  EXPECT_TRUE(r_hot.conserved);
}

TEST(TransferSimulatorTest, ZipfSkewIncreasesContention) {
  model::SystemConfig cfg = TransferConfig();
  cfg.ntrans = 20;
  cfg.ltot = 200;
  TransferSimulator::Options uniform;
  TransferSimulator::Options skewed;
  skewed.zipf_theta = 0.99;
  const auto r_uniform = MustRun(cfg, 5, uniform);
  const auto r_skewed = MustRun(cfg, 5, skewed);
  EXPECT_GT(r_skewed.metrics.denial_rate, r_uniform.metrics.denial_rate);
  EXPECT_TRUE(r_skewed.conserved);
}

TEST(TransferSimulatorTest, InvalidZipfThetaRejected) {
  TransferSimulator::Options options;
  options.zipf_theta = 1.0;
  auto result = TransferSimulator::RunOnce(TransferConfig(), 1, options);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TransferSimulatorTest, WriteCountMatchesCompletions) {
  const auto report = MustRun(TransferConfig(), 9);
  // Each completed transfer writes exactly two records; transfers still
  // in flight at tmax may have written at most two more each.
  EXPECT_GE(report.writes_applied, 2 * report.metrics.totcom);
  EXPECT_LE(report.writes_applied,
            2 * report.metrics.totcom + 2 * TransferConfig().ntrans);
}

TEST(TransferSimulatorTest, DeterministicForSeed) {
  const auto a = MustRun(TransferConfig(), 11);
  const auto b = MustRun(TransferConfig(), 11);
  EXPECT_EQ(a.metrics.totcom, b.metrics.totcom);
  EXPECT_EQ(a.final_total, b.final_total);
}

TEST(TransferSimulatorTest, RejectsTinyDatabases) {
  model::SystemConfig cfg = TransferConfig();
  cfg.dbsize = 1;
  cfg.ltot = 1;
  cfg.maxtransize = 1;
  auto result = TransferSimulator::RunOnce(cfg, 1);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TransferSimulatorTest, RejectsBadHotFraction) {
  TransferSimulator::Options options;
  options.hot_fraction = 2.0;
  auto result = TransferSimulator::RunOnce(TransferConfig(), 1, options);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TransferSimulatorTest, RunTwiceFails) {
  TransferSimulator simulator(TransferConfig(), 1);
  EXPECT_TRUE(simulator.Run().ok());
  EXPECT_EQ(simulator.Run().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(TransferSimulatorTest, InvariantMetricsHold) {
  const auto report = MustRun(TransferConfig(), 13);
  const core::SimulationMetrics& m = report.metrics;
  EXPECT_GE(m.totcpus, m.lockcpus - 1e-9);
  EXPECT_LE(m.totcpus, m.measured_time + 1e-6);
  EXPECT_LE(m.cpu_utilization, 1.0 + 1e-9);
  EXPECT_LE(m.io_utilization, 1.0 + 1e-9);
  EXPECT_LE(m.lock_denials, m.lock_requests);
}

// ---------------------------------------------------------------------------
// Golden regression: every metric of the report except `events_executed`,
// at full precision, captured from the engine while its lock-cost phases
// still fanned out one `kLock` job per node. No bench baseline covers this
// engine, so these rows are what proves the lock-epoch pool left its
// results bit-identical. The engine's lock manager is always serialized
// (one request in flight), so there is no pipelined row; the hot-spot rows
// block often and so exercise the pump right at epoch boundaries. Warmup
// 100 resets the statistics while lock epochs are in flight.

// One "name=value " token per pinned field; 17 significant digits
// round-trip every double exactly.
std::string PinnedMetrics(const TransferSimulator::Report& report) {
  const core::SimulationMetrics& m = report.metrics;
  std::ostringstream out;
  out.precision(17);
#define GRANULOCK_PIN_FIELD(name, kind)             \
  if (std::strcmp(#name, "events_executed") != 0) { \
    out << #name << '=' << m.name << ' ';           \
  }
  GRANULOCK_METRICS_FIELDS(GRANULOCK_PIN_FIELD)
#undef GRANULOCK_PIN_FIELD
  out << "initial_total=" << report.initial_total << ' '
      << "final_total=" << report.final_total << ' '
      << "in_flight_imbalance=" << report.in_flight_imbalance << ' '
      << "conserved=" << report.conserved << ' '
      << "writes_applied=" << report.writes_applied << ' ';
  return out.str();
}

struct TransferGoldenRow {
  const char* name;
  int64_t npros;
  int64_t ltot;
  double hot_fraction;
  TransferSimulator::ConcurrencyControl cc;
  const char* pinned;
};

TEST(TransferGoldenTest, LockEpochsKeepEveryMetricBitIdentical) {
  using CC = TransferSimulator::ConcurrencyControl;
  const TransferGoldenRow rows[] = {
      {"locking_npros1", 1, 20, 0.0, CC::kConservativeLocking,
       "totcpus=116.7299999999553 totios=1400 lockcpus=38.929999999970008 "
       "lockios=778.39999999990926 usefulcpus=77.799999999985289 "
       "usefulios=621.60000000009074 totcom=776 "
       "throughput=0.55428571428571427 response_time=18.01752577319753 "
       "totcpus_sum=116.7299999999553 totios_sum=1400 "
       "lockcpus_sum=38.929999999970008 lockios_sum=778.39999999990926 "
       "measured_time=1400 response_time_stddev=10.264833901803422 "
       "response_p50=15.600000000001899 response_p95=36.649999999997917 "
       "response_p99=58.850000000006048 lock_requests=1977 "
       "lock_denials=1200 denial_rate=0.60698027314112291 "
       "avg_active=4.7220214285716313 avg_blocked=4.0829000000001567 "
       "avg_pending=0.61127142857115691 "
       "cpu_utilization=0.083378571428539494 io_utilization=1 "
       "deadlock_aborts=0 txn_restarts=0 txn_sacrificed=0 "
       "avg_admission_held=0 phase_pending_wait=0 phase_lock_wait=0 "
       "phase_io_service=0 phase_cpu_service=0 phase_sync_wait=0 "
       "initial_total=200000 final_total=200000 in_flight_imbalance=0 "
       "conserved=1 writes_applied=1660 "},
      {"locking_npros8", 8, 20, 0.0, CC::kConservativeLocking,
       "totcpus=392.72625000039125 totios=1399.9100000000003 "
       "lockcpus=27.48625000041821 lockios=549.76374999985364 "
       "usefulcpus=45.654999999996633 usefulios=106.26828125001833 "
       "totcom=4602 throughput=3.2871428571428569 "
       "response_time=3.0423603867880047 totcpus_sum=680.09000000325852 "
       "totios_sum=8079.6549999993595 lockcpus_sum=219.89000000334568 "
       "lockios_sum=4398.1099999988292 measured_time=1400 "
       "response_time_stddev=1.8578266750216097 "
       "response_p50=2.547499999999701 response_p95=6.6337499999986562 "
       "response_p99=9.342062499998022 lock_requests=11169 "
       "lock_denials=6569 denial_rate=0.58814576058733992 "
       "avg_active=4.8033026785710575 avg_blocked=4.3126258928567651 "
       "avg_pending=0.47175000000032752 "
       "cpu_utilization=0.060722321428862365 "
       "io_utilization=0.72139776785708565 deadlock_aborts=0 "
       "txn_restarts=0 txn_sacrificed=0 avg_admission_held=0 "
       "phase_pending_wait=0 phase_lock_wait=0 phase_io_service=0 "
       "phase_cpu_service=0 phase_sync_wait=0 initial_total=200000 "
       "final_total=200004 in_flight_imbalance=4 conserved=1 "
       "writes_applied=9835 "},
      {"hot_npros1", 1, 5, 0.3, CC::kConservativeLocking,
       "totcpus=96.509999999951006 totios=1391.7600000000023 "
       "lockcpus=51.709999999960004 lockios=1034.200000000056 "
       "usefulcpus=44.799999999991002 usefulios=357.55999999994629 "
       "totcom=446 throughput=0.31857142857142856 "
       "response_time=31.329641255607644 totcpus_sum=96.509999999951006 "
       "totios_sum=1391.760000000002 lockcpus_sum=51.709999999960004 "
       "lockios_sum=1034.200000000056 measured_time=1400 "
       "response_time_stddev=22.934337023392168 "
       "response_p50=25.700000000003229 response_p95=79.037500000001756 "
       "response_p99=104.02450000000042 lock_requests=2753 "
       "lock_denials=2306 denial_rate=0.83763167453686882 "
       "avg_active=1.6891499999999373 avg_blocked=4.8809500000000581 "
       "avg_pending=2.6542500000000153 "
       "cpu_utilization=0.068935714285679295 "
       "io_utilization=0.99411428571428717 deadlock_aborts=0 "
       "txn_restarts=0 txn_sacrificed=0 avg_admission_held=0 "
       "phase_pending_wait=0 phase_lock_wait=0 phase_io_service=0 "
       "phase_cpu_service=0 phase_sync_wait=0 initial_total=200000 "
       "final_total=199997 in_flight_imbalance=-3 conserved=1 "
       "writes_applied=963 "},
      {"hot_npros8", 8, 5, 0.3, CC::kConservativeLocking,
       "totcpus=221.40500000049155 totios=1341.4587500000275 "
       "lockcpus=31.566250000486946 lockios=631.36999999984778 "
       "usefulcpus=23.729843750000576 usefulios=88.761093750022468 "
       "totcom=2174 throughput=1.5528571428571429 "
       "response_time=6.4354421573129086 totcpus_sum=469.93000000385314 "
       "totios_sum=6789.8687499990356 lockcpus_sum=252.53000000389557 "
       "lockios_sum=5050.9599999987831 measured_time=1400 "
       "response_time_stddev=4.8672593750239059 "
       "response_p50=5.4331249999993929 response_p95=15.167624999996985 "
       "response_p99=23.765599999996237 lock_requests=13352 "
       "lock_denials=11177 denial_rate=0.83710305572198918 "
       "avg_active=1.6799741071426264 avg_blocked=6.1401776785705211 "
       "avg_pending=1.7063223214293166 "
       "cpu_utilization=0.041958035714629742 "
       "io_utilization=0.60623828124991386 deadlock_aborts=0 "
       "txn_restarts=0 txn_sacrificed=0 avg_admission_held=0 "
       "phase_pending_wait=0 phase_lock_wait=0 phase_io_service=0 "
       "phase_cpu_service=0 phase_sync_wait=0 initial_total=200000 "
       "final_total=200000 in_flight_imbalance=0 conserved=1 "
       "writes_applied=4676 "},
      {"nolock_npros8", 8, 20, 0.0, CC::kNoLocking,
       "totcpus=745.29999999969095 totios=1400 lockcpus=0 lockios=0 "
       "usefulcpus=93.162499999961369 usefulios=175 totcom=9879 "
       "throughput=7.0564285714285715 response_time=1.4179572831260245 "
       "totcpus_sum=987.89999999961628 totios_sum=7902.8999999999733 "
       "lockcpus_sum=0 lockios_sum=0 measured_time=1400 "
       "response_time_stddev=0.61975104057635122 "
       "response_p50=1.3000000000002956 response_p95=2.6000000000001187 "
       "response_p99=3.2000000000007276 lock_requests=0 lock_denials=0 "
       "denial_rate=0 avg_active=9.9999999999994298 avg_blocked=0 "
       "avg_pending=0 cpu_utilization=0.088205357142822877 "
       "io_utilization=0.70561607142856908 deadlock_aborts=0 "
       "txn_restarts=0 txn_sacrificed=0 avg_admission_held=0 "
       "phase_pending_wait=0 phase_lock_wait=0 phase_io_service=0 "
       "phase_cpu_service=0 phase_sync_wait=0 initial_total=200000 "
       "final_total=200052 in_flight_imbalance=9 conserved=0 "
       "writes_applied=21153 "},
  };
  for (const TransferGoldenRow& row : rows) {
    model::SystemConfig cfg = TransferConfig();
    cfg.npros = row.npros;
    cfg.ltot = row.ltot;
    cfg.warmup = 100.0;
    TransferSimulator::Options options;
    options.hot_fraction = row.hot_fraction;
    options.concurrency_control = row.cc;
    EXPECT_EQ(PinnedMetrics(MustRun(cfg, 2024, options)), row.pinned)
        << row.name;
  }
}

}  // namespace
}  // namespace granulock::db
