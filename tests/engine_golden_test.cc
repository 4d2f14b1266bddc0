// Golden regression rows for the conservative engines' option corners.
//
// Each row runs one configuration twice: bare, and with every obs sink
// attached (registry, spans, sampler, contention profiler). Both runs must
// reproduce the pinned `SimulationMetrics` at 17 significant digits, which
// round-trips every double exactly; `events_executed` is pinned too. The
// observed run also pins the registry counters, the per-column sums of the
// sampler rows, the profiler totals and the span count, so the obs plumbing
// is held to the same values as the simulation itself.
//
// The rows cover what no bench baseline does: the granularity engine's
// admission cap, adaptive admission, retry-at-head requeueing, pipelined
// lock manager, think time and random partitioning, and the explicit
// engine's flat and hierarchical strategies with their options. A few
// incremental-engine rows hold its obs plumbing, policies and admission
// controller to the same standard.

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/granularity_simulator.h"
#include "core/metrics.h"
#include "db/contention_policy.h"
#include "db/explicit_simulator.h"
#include "db/incremental_simulator.h"
#include "model/config.h"
#include "obs/contention.h"
#include "obs/hooks.h"
#include "obs/registry.h"
#include "obs/span_trace.h"
#include "obs/time_series.h"
#include "util/status.h"
#include "workload/workload.h"

namespace granulock {
namespace {

// One "name=value " token per SimulationMetrics field.
std::string PinnedMetrics(const core::SimulationMetrics& m) {
  std::ostringstream out;
  out.precision(17);
#define GRANULOCK_PIN_FIELD(name, kind) out << #name << '=' << m.name << ' ';
  GRANULOCK_METRICS_FIELDS(GRANULOCK_PIN_FIELD)
#undef GRANULOCK_PIN_FIELD
  return out.str();
}

// The sinks of one observed run and the values they collected.
struct ObsSinks {
  obs::MetricsRegistry registry;
  obs::SpanRecorder spans;
  obs::TimeSeriesSampler sampler{40.0};
  obs::ContentionProfiler contention;

  obs::Hooks hooks() {
    return obs::Hooks{&registry, &spans, &sampler, &contention};
  }

  std::string Pinned() const {
    std::ostringstream out;
    out.precision(17);
    for (const auto& [name, value] : registry.TakeSnapshot().counters) {
      out << name << '=' << value << ' ';
    }
    std::vector<double> sums(sampler.columns().size(), 0.0);
    for (const auto& row : sampler.Rows()) {
      for (size_t i = 0; i < row.values.size(); ++i) sums[i] += row.values[i];
    }
    for (size_t i = 0; i < sums.size(); ++i) {
      out << "sum(" << sampler.columns()[i] << ")=" << sums[i] << ' ';
    }
    out << "rows=" << sampler.pushed() << ' '
        << "waits=" << contention.total_waits() << ' '
        << "grants=" << contention.total_grants() << ' '
        << "wait_time=" << contention.total_wait_time() << ' '
        << "blocked_frac=" << contention.MeanBlockedFraction() << ' '
        << "occupancy=" << contention.MeanLockOccupancy() << ' '
        << "spans=" << spans.spans().size() << ' ';
    return out.str();
  }
};

model::SystemConfig GoldenConfig() {
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  cfg.npros = 4;
  cfg.ltot = 50;
  cfg.maxtransize = 100;
  cfg.tmax = 800.0;
  return cfg;
}

struct GoldenRow {
  const char* name;
  const char* metrics;
  const char* observed;
};

// Runs `run(hooks)` bare and observed and checks both against `row`.
template <typename RunFn>
void ExpectRow(const GoldenRow& row, RunFn run) {
  const Result<core::SimulationMetrics> bare = run(obs::Hooks{});
  ASSERT_TRUE(bare.ok()) << row.name << ": " << bare.status().ToString();
  EXPECT_EQ(PinnedMetrics(*bare), row.metrics) << row.name;

  ObsSinks sinks;
  const Result<core::SimulationMetrics> observed = run(sinks.hooks());
  ASSERT_TRUE(observed.ok()) << row.name;
  EXPECT_EQ(PinnedMetrics(*observed), row.metrics) << row.name << " observed";
  EXPECT_EQ(sinks.Pinned(), row.observed) << row.name;
}

// ---------------------------------------------------------------------------
// Granularity engine.

struct GranularityCase {
  model::SystemConfig cfg = GoldenConfig();
  model::Placement placement = model::Placement::kBest;
  workload::PartitioningMethod partitioning =
      workload::PartitioningMethod::kHorizontal;
  core::GranularitySimulator::Options options;

  workload::WorkloadSpec Spec() const {
    workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
    spec.placement = placement;
    spec.partitioning = partitioning;
    return spec;
  }
};

GranularityCase GranularityCaseFor(const std::string& name) {
  GranularityCase c;
  if (name == "max_active") {
    c.options.max_active = 3;
  } else if (name == "adaptive_admission") {
    c.cfg.ltot = 10;
    c.cfg.ntrans = 20;
    c.options.adaptive_admission = true;
    c.options.adaptation_interval = 50.0;
    c.options.target_denial_rate = 0.2;
  } else if (name == "retry_at_head") {
    c.cfg.ltot = 10;
    c.options.requeue_blocked_at_tail = false;
  } else if (name == "pipelined") {
    c.options.serialize_lock_manager = false;
    c.cfg.warmup = 100.0;
  } else if (name == "think_time") {
    c.cfg.think_time = 5.0;
  } else if (name == "random_partitioning") {
    c.cfg.ltot = 200;
    c.placement = model::Placement::kRandom;
    c.partitioning = workload::PartitioningMethod::kRandom;
  }
  return c;
}

TEST(GranularityGoldenTest, OptionCornersKeepEveryMetricBitIdentical) {
  const GoldenRow rows[] = {
      {"max_active",
       "totcpus=195.96500000000566 totios=799.37749999999994 "
       "lockcpus=0.80250000000550159 lockios=16.049999999996714 "
       "usefulcpus=48.790625000000041 usefulios=195.83187500000082 "
       "totcom=311 throughput=0.38874999999999998 "
       "response_time=25.078030546623712 totcpus_sum=783.86000000002264 "
       "totios_sum=3197.5099999999993 lockcpus_sum=3.2100000000220064 "
       "lockios_sum=64.199999999986858 measured_time=800 "
       "response_time_stddev=5.7629701543448961 "
       "response_p50=25.087499999999995 response_p95=32.23124999999996 "
       "response_p99=44.954000000000178 lock_requests=321 lock_denials=7 "
       "denial_rate=0.021806853582554516 avg_active=2.9748718749999954 "
       "avg_blocked=0.035590624999999855 avg_pending=6.9122218750000251 "
       "cpu_utilization=0.24495625000000706 "
       "io_utilization=0.99922187499999982 deadlock_aborts=0 "
       "txn_restarts=0 txn_sacrificed=0 avg_admission_held=0 "
       "events_executed=3140 phase_pending_wait=17.332274919614076 "
       "phase_lock_wait=0.14523311897106767 "
       "phase_io_service=6.9208038585208547 "
       "phase_cpu_service=0.67971864951768757 phase_sync_wait=0 ",
       "engine.lock_denials=7 engine.lock_grants=314 "
       "engine.lock_requests=321 engine.subtxns_completed=1244 "
       "engine.txn_completed=311 engine.txn_created=321 sum(active)=60 "
       "sum(blocked)=0 sum(pending)=140 "
       "sum(throughput)=7.7750000000000004 "
       "sum(cpu0_util)=4.8991250000001401 "
       "sum(cpu1_util)=4.8991250000001401 "
       "sum(cpu2_util)=4.8991250000001401 "
       "sum(cpu3_util)=4.8991250000001401 "
       "sum(disk0_util)=19.984437499999995 "
       "sum(disk1_util)=19.984437499999995 "
       "sum(disk2_util)=19.984437499999995 "
       "sum(disk3_util)=19.984437499999995 rows=20 waits=7 grants=314 "
       "wait_time=28.472499999999883 blocked_frac=0 "
       "occupancy=0.060000000000000026 spans=4374 "},
      {"adaptive_admission",
       "totcpus=192.69750000001079 totios=795.36749999999972 "
       "lockcpus=1.4550000000069541 lockios=29.099999999995706 "
       "usefulcpus=47.810625000000961 usefulios=191.566875000001 "
       "totcom=321 throughput=0.40125 response_time=47.088123052959283 "
       "totcpus_sum=770.79000000004305 totios_sum=3181.4699999999989 "
       "lockcpus_sum=5.8200000000278163 lockios_sum=116.39999999998282 "
       "measured_time=800 response_time_stddev=26.105192125315881 "
       "response_p50=40.552499999998986 response_p95=91.265000000000498 "
       "response_p99=139.74299999999914 lock_requests=582 "
       "lock_denials=258 denial_rate=0.44329896907216493 "
       "avg_active=4.3629406250000002 avg_blocked=2.8418593750000025 "
       "avg_pending=12.519506249999951 "
       "cpu_utilization=0.24087187500001345 "
       "io_utilization=0.99420937499999962 deadlock_aborts=0 "
       "txn_restarts=0 txn_sacrificed=0 avg_admission_held=0 "
       "events_executed=3772 phase_pending_wait=29.180358255451509 "
       "phase_lock_wait=7.1273987538940995 "
       "phase_io_service=10.121300623052932 "
       "phase_cpu_service=0.65906542056074779 phase_sync_wait=0 ",
       "engine.lock_denials=258 engine.lock_grants=324 "
       "engine.lock_requests=582 engine.subtxns_completed=1284 "
       "engine.txn_completed=321 engine.txn_created=341 sum(active)=83 "
       "sum(blocked)=59 sum(pending)=256 "
       "sum(throughput)=8.0250000000000004 "
       "sum(cpu0_util)=4.8174375000002696 "
       "sum(cpu1_util)=4.8174375000002696 "
       "sum(cpu2_util)=4.8174375000002696 "
       "sum(cpu3_util)=4.8174375000002696 "
       "sum(disk0_util)=19.884187499999992 "
       "sum(disk1_util)=19.884187499999992 "
       "sum(disk2_util)=19.884187499999992 "
       "sum(disk3_util)=19.884187499999992 rows=20 waits=258 grants=324 "
       "wait_time=2263.4225000000029 blocked_frac=0.14062499999999997 "
       "occupancy=0.46249999999999991 spans=5019 "},
      {"retry_at_head",
       "totcpus=192.79250000001196 totios=799.99749999999995 "
       "lockcpus=1.6550000000122274 lockios=33.09999999999247 "
       "usefulcpus=47.784374999999933 usefulios=191.72437500000186 "
       "totcom=314 throughput=0.39250000000000002 "
       "response_time=24.753511146496606 totcpus_sum=771.17000000004793 "
       "totios_sum=3199.9900000000002 lockcpus_sum=6.6200000000489094 "
       "lockios_sum=132.39999999996988 measured_time=800 "
       "response_time_stddev=13.297925667913857 "
       "response_p50=20.368749999999466 response_p95=53.581249999999571 "
       "response_p99=61.994124999999805 lock_requests=662 "
       "lock_denials=342 denial_rate=0.5166163141993958 "
       "avg_active=6.0836218749999729 avg_blocked=3.7778312499999998 "
       "avg_pending=0.038853125000005644 "
       "cpu_utilization=0.24099062500001497 "
       "io_utilization=0.99999687500000012 deadlock_aborts=0 "
       "txn_restarts=0 txn_sacrificed=0 avg_admission_held=0 "
       "events_executed=3846 phase_pending_wait=0.094976114649695173 "
       "phase_lock_wait=9.2746019108279771 "
       "phase_io_service=14.704856687897928 "
       "phase_cpu_service=0.67907643312101995 phase_sync_wait=0 ",
       "engine.lock_denials=342 engine.lock_grants=320 "
       "engine.lock_requests=662 engine.subtxns_completed=1256 "
       "engine.txn_completed=314 engine.txn_created=324 sum(active)=129 "
       "sum(blocked)=68 sum(pending)=1 sum(throughput)=7.8500000000000005 "
       "sum(cpu0_util)=4.8198125000002996 "
       "sum(cpu1_util)=4.8198125000002996 "
       "sum(cpu2_util)=4.8198125000002996 "
       "sum(cpu3_util)=4.8198125000002996 "
       "sum(disk0_util)=19.999937500000001 "
       "sum(disk1_util)=19.999937500000001 "
       "sum(disk2_util)=19.999937500000001 "
       "sum(disk3_util)=19.999937500000001 rows=20 waits=342 grants=320 "
       "wait_time=3004.1749999999702 blocked_frac=0.41875000000000007 "
       "occupancy=0.58124999999999993 spans=5088 "},
      {"pipelined",
       "totcpus=172.03000000000617 totios=700 "
       "lockcpus=0.78000000000622549 lockios=15.599999999996399 "
       "usefulcpus=42.812499999999986 usefulios=171.1000000000009 "
       "totcom=267 throughput=0.38142857142857145 "
       "response_time=26.231367041198389 totcpus_sum=688.12000000002467 "
       "totios_sum=2800 lockcpus_sum=3.120000000024902 "
       "lockios_sum=62.399999999985596 measured_time=700 "
       "response_time_stddev=6.9170806930396571 "
       "response_p50=25.662499999999682 response_p95=39.401249999999479 "
       "response_p99=46.504750000000186 lock_requests=312 lock_denials=46 "
       "denial_rate=0.14743589743589744 avg_active=9.1597749999999927 "
       "avg_blocked=0.81284285714286331 avg_pending=0 "
       "cpu_utilization=0.24575714285715167 io_utilization=1 "
       "deadlock_aborts=0 txn_restarts=0 txn_sacrificed=0 "
       "avg_admission_held=0 events_executed=3229 phase_pending_wait=0 "
       "phase_lock_wait=2.1091760299625451 "
       "phase_io_service=23.430627340823857 "
       "phase_cpu_service=0.69156367041198763 phase_sync_wait=0 ",
       "engine.lock_denials=56 engine.lock_grants=317 "
       "engine.lock_requests=373 engine.subtxns_completed=1236 "
       "engine.txn_completed=309 engine.txn_created=319 sum(active)=180 "
       "sum(blocked)=19 sum(pending)=0 sum(throughput)=7.5249999999999995 "
       "sum(cpu0_util)=4.7831250000001519 "
       "sum(cpu1_util)=4.7831250000001519 "
       "sum(cpu2_util)=4.7831250000001519 "
       "sum(cpu3_util)=4.7831250000001519 "
       "sum(disk0_util)=19.499937500000001 "
       "sum(disk1_util)=19.499937500000001 "
       "sum(disk2_util)=19.499937500000001 "
       "sum(disk3_util)=19.499937500000001 rows=20 waits=56 grants=317 "
       "wait_time=678.25749999999732 blocked_frac=0.09375 "
       "occupancy=0.18125000000000002 spans=4452 "},
      {"think_time",
       "totcpus=196.29500000000954 totios=799.99749999999995 "
       "lockcpus=0.88500000000636136 lockios=17.699999999996113 "
       "usefulcpus=48.852500000000795 usefulios=195.57437500000097 "
       "totcom=310 throughput=0.38750000000000001 "
       "response_time=20.487701346646244 totcpus_sum=785.18000000003815 "
       "totios_sum=3199.9899999999998 lockcpus_sum=3.5400000000254455 "
       "lockios_sum=70.79999999998445 measured_time=800 "
       "response_time_stddev=6.4254282489841792 "
       "response_p50=19.707906021695187 response_p95=31.467067430611031 "
       "response_p99=39.012183275190857 lock_requests=354 lock_denials=35 "
       "denial_rate=0.098870056497175146 avg_active=7.550239162103046 "
       "avg_blocked=0.49997024967453513 "
       "avg_pending=0.00033769432125815515 "
       "cpu_utilization=0.24536875000001193 "
       "io_utilization=0.9999968749999999 deadlock_aborts=0 "
       "txn_restarts=0 txn_sacrificed=0 avg_admission_held=0 "
       "events_executed=3511 phase_pending_wait=0.00087146921615007726 "
       "phase_lock_wait=1.2146039273817044 "
       "phase_io_service=18.589978568603097 "
       "phase_cpu_service=0.68224738144528974 phase_sync_wait=0 ",
       "engine.lock_denials=35 engine.lock_grants=319 "
       "engine.lock_requests=354 engine.subtxns_completed=1240 "
       "engine.txn_completed=310 engine.txn_created=319 sum(active)=152 "
       "sum(blocked)=9 sum(pending)=0 sum(throughput)=7.7499999999999991 "
       "sum(cpu0_util)=4.9073750000002381 "
       "sum(cpu1_util)=4.9073750000002381 "
       "sum(cpu2_util)=4.9073750000002381 "
       "sum(cpu3_util)=4.9073750000002381 "
       "sum(disk0_util)=19.999937499999998 "
       "sum(disk1_util)=19.999937499999998 "
       "sum(disk2_util)=19.999937499999998 "
       "sum(disk3_util)=19.999937499999998 rows=20 waits=35 grants=319 "
       "wait_time=399.9761997396281 blocked_frac=0.049999999999999996 "
       "occupancy=0.155 spans=4432 "},
      {"random_partitioning",
       "totcpus=157.86900709805687 totios=799.9544998203321 "
       "lockcpus=26.390815551994777 lockios=528.93483591919789 "
       "usefulcpus=32.86954788651552 usefulios=67.754915975283552 "
       "totcom=70 throughput=0.087499999999999994 "
       "response_time=101.51104256044781 totcpus_sum=283.03826220797987 "
       "totios_sum=2827.953388882876 lockcpus_sum=105.56326220797911 "
       "lockios_sum=2115.7393436767916 measured_time=800 "
       "response_time_stddev=71.854991544098056 "
       "response_p50=81.597068859569745 response_p95=255.65969412546298 "
       "response_p99=329.4479813431185 lock_requests=239 lock_denials=163 "
       "denial_rate=0.68200836820083677 avg_active=3.2589509616781345 "
       "avg_blocked=4.4289880097490766 avg_pending=1.5616539642337994 "
       "cpu_utilization=0.088449456939993704 "
       "io_utilization=0.88373543402589871 deadlock_aborts=0 "
       "txn_restarts=0 txn_sacrificed=0 avg_admission_held=0 "
       "events_executed=826 phase_pending_wait=15.482569196384571 "
       "phase_lock_wait=50.000253574417279 "
       "phase_io_service=27.94597238068646 "
       "phase_cpu_service=1.3727287934295349 "
       "phase_sync_wait=6.7095186155299968 ",
       "engine.lock_denials=163 engine.lock_grants=75 "
       "engine.lock_requests=239 engine.subtxns_completed=170 "
       "engine.txn_completed=70 engine.txn_created=80 sum(active)=63 "
       "sum(blocked)=95 sum(pending)=28 "
       "sum(throughput)=1.7500000000000002 "
       "sum(cpu0_util)=1.8690412221332096 "
       "sum(cpu1_util)=1.814457888799873 "
       "sum(cpu2_util)=1.8494578887998752 "
       "sum(cpu3_util)=1.542999555466539 "
       "sum(disk0_util)=18.077860519426668 "
       "sum(disk1_util)=17.855602511992856 "
       "sum(disk2_util)=17.995602511992853 "
       "sum(disk3_util)=16.769769178659523 rows=20 waits=163 grants=3224 "
       "wait_time=3488.6857076052374 blocked_frac=0.48125000000000007 "
       "occupancy=0.80499999999999994 spans=982 "},
  };
  for (const GoldenRow& row : rows) {
    const GranularityCase c = GranularityCaseFor(row.name);
    ExpectRow(row, [&c](const obs::Hooks& hooks) {
      core::GranularitySimulator::Options options = c.options;
      options.obs = hooks;
      return core::GranularitySimulator::RunOnce(c.cfg, c.Spec(), 2024,
                                                 options);
    });
  }
}

// ---------------------------------------------------------------------------
// Explicit engine.

struct ExplicitCase {
  model::SystemConfig cfg = GoldenConfig();
  db::ExplicitSimulator::Options options;
};

ExplicitCase ExplicitCaseFor(const std::string& name) {
  ExplicitCase c;
  if (name == "hierarchical") {
    c.options.strategy = db::ExplicitSimulator::LockingStrategy::kHierarchical;
    c.options.coarse_threshold = 200;
    c.options.num_files = 5;
    c.options.escalation_threshold = 4;
  } else if (name == "read_fraction") {
    c.cfg.ltot = 20;
    c.options.read_fraction = 0.3;
  } else if (name == "warmup") {
    c.cfg.warmup = 100.0;
  } else if (name == "think_time") {
    c.cfg.think_time = 5.0;
  }
  return c;
}

TEST(ExplicitGoldenTest, OptionCornersKeepEveryMetricBitIdentical) {
  const GoldenRow rows[] = {
      {"flat",
       "totcpus=195.78750000001307 totios=799.99750000000006 "
       "lockcpus=1.0025000000075126 lockios=20.049999999995286 "
       "usefulcpus=48.696250000001392 usefulios=194.98687500000119 "
       "totcom=322 throughput=0.40250000000000002 "
       "response_time=24.237236024844574 totcpus_sum=783.15000000005227 "
       "totios_sum=3199.9899999999998 lockcpus_sum=4.0100000000300504 "
       "lockios_sum=80.199999999981145 measured_time=800 "
       "response_time_stddev=7.631684683352165 "
       "response_p50=22.912499999999881 response_p95=38.999749999998812 "
       "response_p99=49.863624999999104 lock_requests=401 lock_denials=70 "
       "denial_rate=0.1745635910224439 avg_active=8.9024437500000086 "
       "avg_blocked=1.0091906249999967 avg_pending=0.0058000000000008626 "
       "cpu_utilization=0.24473437500001632 "
       "io_utilization=0.9999968749999999 deadlock_aborts=0 "
       "txn_restarts=0 txn_sacrificed=0 avg_admission_held=0 "
       "events_executed=5798 phase_pending_wait=0.01375776397515731 "
       "phase_lock_wait=2.4328881987577482 "
       "phase_io_service=21.130590062111661 "
       "phase_cpu_service=0.66000000000000414 phase_sync_wait=0 ",
       "engine.lock_denials=70 engine.lock_grants=331 "
       "engine.lock_requests=401 engine.subtxns_completed=1288 "
       "engine.txn_completed=322 engine.txn_created=332 sum(active)=177 "
       "sum(blocked)=23 sum(pending)=0 sum(throughput)=8.0499999999999989 "
       "sum(cpu0_util)=4.8946875000003267 "
       "sum(cpu1_util)=4.8946875000003267 "
       "sum(cpu2_util)=4.8946875000003267 "
       "sum(cpu3_util)=4.8946875000003267 "
       "sum(disk0_util)=19.999937499999998 "
       "sum(disk1_util)=19.999937499999998 "
       "sum(disk2_util)=19.999937499999998 "
       "sum(disk3_util)=19.999937499999998 rows=20 waits=70 grants=331 "
       "wait_time=807.13499999999226 blocked_frac=0.125 "
       "occupancy=0.17500000000000002 spans=4669 "},
      {"hierarchical",
       "totcpus=187.69000000001253 totios=799.99250000000006 "
       "lockcpus=2.8725000000057559 lockios=57.449999999994716 "
       "usefulcpus=46.204375000001697 usefulios=185.63562500000134 "
       "totcom=309 throughput=0.38624999999999998 "
       "response_time=25.228398058252228 totcpus_sum=750.76000000005001 "
       "totios_sum=3199.9700000000003 lockcpus_sum=11.490000000023024 "
       "lockios_sum=229.79999999997887 measured_time=800 "
       "response_time_stddev=7.8093058056212357 "
       "response_p50=23.887500000000045 response_p95=40.507499999999752 "
       "response_p99=51.14749999999961 lock_requests=383 lock_denials=65 "
       "denial_rate=0.16971279373368145 avg_active=8.8814687500000087 "
       "avg_blocked=0.96569062499999836 avg_pending=0.021187500000000518 "
       "cpu_utilization=0.23461250000001563 "
       "io_utilization=0.99999062500000013 deadlock_aborts=0 "
       "txn_restarts=0 txn_sacrificed=0 avg_admission_held=0 "
       "events_executed=5550 phase_pending_wait=0.05081715210356065 "
       "phase_lock_wait=2.5722330097087154 "
       "phase_io_service=21.951998381876841 "
       "phase_cpu_service=0.65334951456311052 phase_sync_wait=0 ",
       "engine.lock_denials=65 engine.lock_grants=318 "
       "engine.lock_requests=383 engine.subtxns_completed=1236 "
       "engine.txn_completed=309 engine.txn_created=319 sum(active)=177 "
       "sum(blocked)=18 sum(pending)=1 sum(throughput)=7.7249999999999988 "
       "sum(cpu0_util)=4.6922500000003122 "
       "sum(cpu1_util)=4.6922500000003122 "
       "sum(cpu2_util)=4.6922500000003122 "
       "sum(cpu3_util)=4.6922500000003122 "
       "sum(disk0_util)=19.999812500000004 "
       "sum(disk1_util)=19.999812500000004 "
       "sum(disk2_util)=19.999812500000004 "
       "sum(disk3_util)=19.999812500000004 rows=20 waits=65 grants=954 "
       "wait_time=758.7749999999927 blocked_frac=0.087500000000000022 "
       "occupancy=0.18000000000000002 spans=4477 "},
      {"read_fraction",
       "totcpus=195.22500000000707 totios=799.99749999999995 "
       "lockcpus=1.0750000000076816 lockios=21.499999999995104 "
       "usefulcpus=48.537499999999845 usefulios=194.62437500000121 "
       "totcom=312 throughput=0.39000000000000001 "
       "response_time=24.86082532051271 totcpus_sum=780.90000000002829 "
       "totios_sum=3199.9899999999998 lockcpus_sum=4.3000000000307264 "
       "lockios_sum=85.999999999980417 measured_time=800 "
       "response_time_stddev=10.305604546471921 "
       "response_p50=23.68249999999999 response_p95=44.282500000000248 "
       "response_p99=58.499250000000174 lock_requests=430 "
       "lock_denials=110 denial_rate=0.2558139534883721 "
       "avg_active=8.2665687500000118 avg_blocked=1.6392218749999978 "
       "avg_pending=0.0097406250000008597 "
       "cpu_utilization=0.24403125000000883 "
       "io_utilization=0.9999968749999999 deadlock_aborts=0 "
       "txn_restarts=0 txn_sacrificed=0 avg_admission_held=0 "
       "events_executed=5946 phase_pending_wait=0.024174679487181723 "
       "phase_lock_wait=4.0352163461538257 "
       "phase_io_service=20.122347756410125 "
       "phase_cpu_service=0.67908653846153777 phase_sync_wait=0 ",
       "engine.lock_denials=110 engine.lock_grants=320 "
       "engine.lock_requests=430 engine.subtxns_completed=1248 "
       "engine.txn_completed=312 engine.txn_created=322 sum(active)=162 "
       "sum(blocked)=36 sum(pending)=0 sum(throughput)=7.7999999999999989 "
       "sum(cpu0_util)=4.8806250000001778 "
       "sum(cpu1_util)=4.8806250000001778 "
       "sum(cpu2_util)=4.8806250000001778 "
       "sum(cpu3_util)=4.8806250000001778 "
       "sum(disk0_util)=19.999937499999998 "
       "sum(disk1_util)=19.999937499999998 "
       "sum(disk2_util)=19.999937499999998 "
       "sum(disk3_util)=19.999937499999998 rows=20 waits=110 grants=320 "
       "wait_time=1299.1649999999904 blocked_frac=0.16250000000000006 "
       "occupancy=0.40625000000000011 spans=4602 "},
      {"warmup",
       "totcpus=171.97500000001315 totios=700 "
       "lockcpus=0.85250000000758064 lockios=17.049999999995379 "
       "usefulcpus=42.780625000001393 usefulios=170.73750000000115 "
       "totcom=278 throughput=0.39714285714285713 "
       "response_time=25.163669064748031 totcpus_sum=687.90000000005261 "
       "totios_sum=2800 lockcpus_sum=3.4100000000303226 "
       "lockios_sum=68.199999999981515 measured_time=700 "
       "response_time_stddev=7.3961422816231774 "
       "response_p50=23.806249999999721 response_p95=39.471875000000075 "
       "response_p99=50.320249999999142 lock_requests=341 lock_denials=64 "
       "denial_rate=0.18768328445747801 avg_active=8.9009785714285776 "
       "avg_blocked=1.0674999999999963 avg_pending=0.005946428571429619 "
       "cpu_utilization=0.24567857142859023 io_utilization=1 "
       "deadlock_aborts=0 txn_restarts=0 txn_sacrificed=0 "
       "avg_admission_held=0 events_executed=5799 "
       "phase_pending_wait=0.014406474820146375 "
       "phase_lock_wait=2.6591276978417109 "
       "phase_io_service=21.818866906474657 "
       "phase_cpu_service=0.67126798561151535 phase_sync_wait=0 ",
       "engine.lock_denials=70 engine.lock_grants=331 "
       "engine.lock_requests=401 engine.subtxns_completed=1288 "
       "engine.txn_completed=322 engine.txn_created=332 sum(active)=177 "
       "sum(blocked)=23 sum(pending)=0 sum(throughput)=7.875 "
       "sum(cpu0_util)=4.7729375000003271 "
       "sum(cpu1_util)=4.7729375000003271 "
       "sum(cpu2_util)=4.7729375000003271 "
       "sum(cpu3_util)=4.7729375000003271 "
       "sum(disk0_util)=19.499937500000001 "
       "sum(disk1_util)=19.499937500000001 "
       "sum(disk2_util)=19.499937500000001 "
       "sum(disk3_util)=19.499937500000001 rows=20 waits=70 grants=331 "
       "wait_time=807.13499999999226 blocked_frac=0.125 "
       "occupancy=0.17500000000000002 spans=4669 "},
      {"think_time",
       "totcpus=196.09750000000582 totios=799.99749999999995 "
       "lockcpus=0.89750000000639485 lockios=17.949999999996027 "
       "usefulcpus=48.799999999999855 usefulios=195.51187500000097 "
       "totcom=308 throughput=0.38500000000000001 "
       "response_time=20.696793357850474 totcpus_sum=784.39000000002329 "
       "totios_sum=3199.9900000000002 lockcpus_sum=3.5900000000255794 "
       "lockios_sum=71.799999999984109 measured_time=800 "
       "response_time_stddev=6.7694068081979601 "
       "response_p50=19.991062492091899 response_p95=32.29995796653877 "
       "response_p99=43.089247553942315 lock_requests=359 lock_denials=45 "
       "denial_rate=0.12534818941504178 avg_active=7.4910047745466128 "
       "avg_blocked=0.54298484621896415 "
       "avg_pending=0.00034901826890018639 "
       "cpu_utilization=0.24512187500000729 "
       "io_utilization=0.99999687500000012 deadlock_aborts=0 "
       "txn_restarts=0 txn_sacrificed=0 avg_admission_held=0 "
       "events_executed=5650 phase_pending_wait=0.00090654095818230266 "
       "phase_lock_wait=1.4329810524629818 "
       "phase_io_service=18.567792128065669 "
       "phase_cpu_service=0.69511363636363799 phase_sync_wait=0 ",
       "engine.lock_denials=45 engine.lock_grants=314 "
       "engine.lock_requests=359 engine.subtxns_completed=1232 "
       "engine.txn_completed=308 engine.txn_created=314 sum(active)=150 "
       "sum(blocked)=11 sum(pending)=0 sum(throughput)=7.7000000000000002 "
       "sum(cpu0_util)=4.9024375000001452 "
       "sum(cpu1_util)=4.9024375000001452 "
       "sum(cpu2_util)=4.9024375000001452 "
       "sum(cpu3_util)=4.9024375000001452 "
       "sum(disk0_util)=19.999937500000001 "
       "sum(disk1_util)=19.999937500000001 "
       "sum(disk2_util)=19.999937500000001 "
       "sum(disk3_util)=19.999937500000001 rows=20 waits=45 grants=314 "
       "wait_time=434.38787697517131 blocked_frac=0.049999999999999996 "
       "occupancy=0.13750000000000001 spans=4414 "},
  };
  for (const GoldenRow& row : rows) {
    const ExplicitCase c = ExplicitCaseFor(row.name);
    ExpectRow(row, [&c](const obs::Hooks& hooks) {
      db::ExplicitSimulator::Options options = c.options;
      options.obs = hooks;
      return db::ExplicitSimulator::RunOnce(
          c.cfg, workload::WorkloadSpec::Base(c.cfg), 2024, options);
    });
  }
}

// ---------------------------------------------------------------------------
// Incremental engine.

struct IncrementalCase {
  model::SystemConfig cfg = GoldenConfig();
  db::IncrementalSimulator::Options options;
};

IncrementalCase IncrementalCaseFor(const std::string& name) {
  IncrementalCase c;
  c.cfg.maxtransize = 60;
  if (name == "wound_wait") {
    c.options.contention.policy = db::ContentionPolicyKind::kWoundWait;
    c.options.read_fraction = 0.3;
  } else if (name == "admission") {
    c.cfg.ntrans = 20;
    c.cfg.warmup = 100.0;
    c.options.contention.admission.enabled = true;
    c.options.contention.admission.interval = 50.0;
  }
  return c;
}

TEST(IncrementalGoldenTest, PolicyCornersKeepEveryMetricBitIdentical) {
  const GoldenRow rows[] = {
      {"detect",
       "totcpus=123.82409350764176 totios=748.65687238117357 "
       "lockcpus=15.832500000117426 lockios=316.64999999992727 "
       "usefulcpus=26.997898376881086 usefulios=108.00171809531157 "
       "totcom=49 throughput=0.061249999999999999 "
       "response_time=98.920821415335297 totcpus_sum=495.29637403056705 "
       "totios_sum=2994.6274895246943 lockcpus_sum=63.330000000469703 "
       "lockios_sum=1266.5999999997091 measured_time=800 "
       "response_time_stddev=143.03909806169654 "
       "response_p50=25.52324925231045 response_p95=436.01228532771341 "
       "response_p99=532.25270063877326 lock_requests=6333 "
       "lock_denials=1370 denial_rate=0.21632717511447971 "
       "avg_active=1.9161030238890795 avg_blocked=1.9187875268905521 "
       "avg_pending=0 cpu_utilization=0.1547801168845522 "
       "io_utilization=0.935821090476467 deadlock_aborts=477 "
       "txn_restarts=477 txn_sacrificed=0 avg_admission_held=0 "
       "events_executed=59963 phase_pending_wait=0 "
       "phase_lock_wait=83.921393755997357 "
       "phase_io_service=13.649144474045261 "
       "phase_cpu_service=1.3502831852926769 phase_sync_wait=0 ",
       "engine.deadlock_aborts=477 engine.lock_denials=1370 "
       "engine.lock_grants=5853 engine.lock_requests=6333 "
       "engine.subtxns_completed=23408 engine.txn_completed=49 "
       "engine.txn_created=59 sum(active)=32 sum(blocked)=42 "
       "sum(pending)=0 sum(throughput)=1.2250000000000003 "
       "sum(cpu0_util)=3.095602337691044 sum(cpu1_util)=3.095602337691044 "
       "sum(cpu2_util)=3.095602337691044 sum(cpu3_util)=3.095602337691044 "
       "sum(disk0_util)=18.716421809529344 "
       "sum(disk1_util)=18.716421809529344 "
       "sum(disk2_util)=18.716421809529344 "
       "sum(disk3_util)=18.716421809529344 rows=20 waits=893 grants=5853 "
       "wait_time=1523.0410067832925 blocked_frac=0.20625000000000002 "
       "occupancy=0.3125 spans=76077 "},
      {"wound_wait",
       "totcpus=125.27065512283752 totios=763.38707754576672 "
       "lockcpus=16.392500000124013 lockios=327.84999999992266 "
       "usefulcpus=27.219538780678377 usefulios=108.88426938646101 "
       "totcom=135 throughput=0.16875000000000001 "
       "response_time=55.626519795349765 totcpus_sum=501.0826204913501 "
       "totios_sum=3053.5483101830669 lockcpus_sum=65.570000000496051 "
       "lockios_sum=1311.3999999996906 measured_time=800 "
       "response_time_stddev=27.939737619143745 "
       "response_p50=59.231918873112477 response_p95=93.82447410304826 "
       "response_p99=108.02828392848608 lock_requests=6557 "
       "lock_denials=1114 denial_rate=0.16989476894921457 "
       "avg_active=2.2281550898861431 avg_blocked=0.95836391304341551 "
       "avg_pending=0 cpu_utilization=0.15658831890354691 "
       "io_utilization=0.95423384693220836 deadlock_aborts=590 "
       "txn_restarts=590 txn_sacrificed=0 avg_admission_held=0 "
       "events_executed=64023 phase_pending_wait=0 "
       "phase_lock_wait=47.533061112779087 "
       "phase_io_service=9.1300522812824614 "
       "phase_cpu_service=0.76084903188585473 phase_sync_wait=0 ",
       "engine.deadlock_aborts=590 engine.lock_denials=1114 "
       "engine.lock_grants=6292 engine.lock_requests=6557 "
       "engine.subtxns_completed=25156 engine.txn_completed=135 "
       "engine.txn_created=145 sum(active)=48 sum(blocked)=20 "
       "sum(pending)=0 sum(throughput)=3.3749999999999991 "
       "sum(cpu0_util)=3.1317663780709384 "
       "sum(cpu1_util)=3.1317663780709384 "
       "sum(cpu2_util)=3.1317663780709384 "
       "sum(cpu3_util)=3.1317663780709384 "
       "sum(disk0_util)=19.084676938644165 "
       "sum(disk1_util)=19.084676938644165 "
       "sum(disk2_util)=19.084676938644165 "
       "sum(disk3_util)=19.084676938644165 rows=20 waits=877 grants=6292 "
       "wait_time=766.69113043473237 blocked_frac=0.10000000000000002 "
       "occupancy=0.34625 spans=81764 "},
      {"admission",
       "totcpus=103.07629699172283 totios=613.08628847410807 "
       "lockcpus=12.547500000106083 lockios=250.99716212284915 "
       "usefulcpus=22.632199247904186 usefulios=90.522281587814732 "
       "totcom=132 throughput=0.18857142857142858 "
       "response_time=113.50097825118227 totcpus_sum=412.30518796689131 "
       "totios_sum=2452.3451538964327 lockcpus_sum=50.190000000424334 "
       "lockios_sum=1003.9886484913966 measured_time=700 "
       "response_time_stddev=78.41671106273327 "
       "response_p50=77.44035749205716 response_p95=301.37577189758213 "
       "response_p99=354.36475124534093 lock_requests=5020 "
       "lock_denials=506 denial_rate=0.10079681274900398 "
       "avg_active=1.3420510211567529 avg_blocked=0.90489242409077986 "
       "avg_pending=14.685911530687962 "
       "cpu_utilization=0.14725185284531833 "
       "io_utilization=0.87583755496301174 deadlock_aborts=180 "
       "txn_restarts=180 txn_sacrificed=0 "
       "avg_admission_held=14.685911530687962 events_executed=56780 "
       "phase_pending_wait=72.882112605629587 "
       "phase_lock_wait=34.081658116281204 "
       "phase_io_service=5.7595064720411058 "
       "phase_cpu_service=0.77770105723037553 phase_sync_wait=0 ",
       "engine.deadlock_aborts=288 engine.lock_denials=844 "
       "engine.lock_grants=5588 engine.lock_requests=5877 "
       "engine.subtxns_completed=22352 engine.txn_completed=137 "
       "engine.txn_created=157 sum(active)=27 sum(blocked)=18 "
       "sum(pending)=267 sum(throughput)=3.3999999999999999 "
       "sum(cpu0_util)=2.8873569047994079 "
       "sum(cpu1_util)=2.8873569047994079 "
       "sum(cpu2_util)=2.8873569047994079 "
       "sum(cpu3_util)=2.8873569047994079 "
       "sum(disk0_util)=17.254634318317073 "
       "sum(disk1_util)=17.254634318317073 "
       "sum(disk2_util)=17.254634318317073 "
       "sum(disk3_util)=17.254634318317073 rows=20 waits=556 grants=5588 "
       "wait_time=1201.4251291629421 blocked_frac=0.078125 "
       "occupancy=0.29500000000000004 spans=72644 "},
  };
  for (const GoldenRow& row : rows) {
    const IncrementalCase c = IncrementalCaseFor(row.name);
    ExpectRow(row, [&c](const obs::Hooks& hooks) {
      workload::WorkloadSpec spec = workload::WorkloadSpec::Base(c.cfg);
      spec.placement = model::Placement::kRandom;
      db::IncrementalSimulator::Options options = c.options;
      options.obs = hooks;
      return db::IncrementalSimulator::RunOnce(c.cfg, spec, 2024, options);
    });
  }
}

}  // namespace
}  // namespace granulock
