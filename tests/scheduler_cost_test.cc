// Machine-free cost gate for the event core: pool-level completions keep
// the simulator's scheduled-event count within 1.5x its executed-event
// count on the two heaviest lock-epoch shapes, a Figure 12 cell (npros 20,
// 200 live transactions) and a Figure 2 cell at npros 30, both at the
// `--quick` horizon. With one completion event per node and job these
// cells schedule 5.9x and 1.8x the events they execute; with pool-level
// completions, 1.24x and 1.03x. The counts are read from the kernel's
// `sim.events_*` gauges, so the test also covers their publication.

#include <gtest/gtest.h>

#include <cstdint>

#include "core/granularity_simulator.h"
#include "model/config.h"
#include "obs/hooks.h"
#include "obs/registry.h"
#include "workload/workload.h"

namespace granulock {
namespace {

struct Cost {
  double executed = 0.0;
  double scheduled = 0.0;
  double cancelled = 0.0;
};

Cost RunCell(const model::SystemConfig& cfg) {
  obs::MetricsRegistry registry;
  core::GranularitySimulator::Options options;
  options.obs = obs::Hooks{&registry, nullptr, nullptr, nullptr};
  const auto m = core::GranularitySimulator::RunOnce(
      cfg, workload::WorkloadSpec::Base(cfg), /*seed=*/42, options);
  EXPECT_TRUE(m.ok()) << m.status();
  Cost cost;
  cost.executed = registry.GetGauge("sim.events_executed")->value();
  cost.scheduled = registry.GetGauge("sim.events_scheduled")->value();
  cost.cancelled = registry.GetGauge("sim.events_cancelled")->value();
  EXPECT_EQ(cost.executed, static_cast<double>(m->events_executed));
  // Every scheduled event fires, is cancelled, or is still pending.
  EXPECT_GE(cost.scheduled, cost.executed + cost.cancelled);
  return cost;
}

TEST(SchedulerCostTest, Fig12CellSchedulesUnderOneAndAHalfPerEvent) {
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  cfg.ntrans = 200;
  cfg.npros = 20;
  cfg.maxtransize = 500;
  cfg.ltot = 100;
  cfg.tmax = 1000.0;
  const Cost cost = RunCell(cfg);
  ASSERT_GT(cost.executed, 0.0);
  EXPECT_LT(cost.scheduled / cost.executed, 1.5)
      << "scheduled=" << cost.scheduled << " executed=" << cost.executed
      << " cancelled=" << cost.cancelled;
}

TEST(SchedulerCostTest, Fig02Npros30CellSchedulesUnderOneAndAHalfPerEvent) {
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  cfg.npros = 30;
  cfg.ltot = 100;
  cfg.tmax = 1000.0;
  const Cost cost = RunCell(cfg);
  ASSERT_GT(cost.executed, 0.0);
  EXPECT_LT(cost.scheduled / cost.executed, 1.5)
      << "scheduled=" << cost.scheduled << " executed=" << cost.executed
      << " cancelled=" << cost.cancelled;
}

}  // namespace
}  // namespace granulock
