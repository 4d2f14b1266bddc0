// Ablation: the paper's probabilistic (Ries–Stonebraker) conflict model vs
// an explicit lock table over concrete granules.
//
// The paper never validates its conflict approximation against a real lock
// table; this bench does. Both engines simulate the identical closed
// system (Table 1 parameters, npros = 10, best placement, horizontal
// partitioning); they differ only in how lock conflicts are decided:
//
//  * probabilistic — requester blocked by active txn j with prob Lj/ltot;
//  * explicit      — requester blocked iff its concrete granule set
//                    intersects an active transaction's set.
//
// What to look for: the two throughput curves should have the same shape
// and nearby optima. Best placement makes the probabilistic model slightly
// pessimistic (contiguous granule runs overlap *less* than independent
// uniform marks at low lock counts), so the explicit curve sits a little
// above the probabilistic one around the optimum.

#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "db/explicit_simulator.h"

int main(int argc, char** argv) {
  using namespace granulock;
  const bench::BenchArgs args = bench::ParseArgsOrDie(argc, argv);
  model::SystemConfig base = model::SystemConfig::Table1Defaults();
  base.npros = 10;
  bench::PrintBanner("Ablation: conflict model",
                     "Probabilistic conflict approximation (paper) vs "
                     "explicit lock table (npros=10, best placement)",
                     base, args);

  const std::vector<int64_t> lock_counts =
      core::StandardLockSweep(base.dbsize);
  // Checkpoint/containment wrapper: series 0 = probabilistic, 1 = explicit.
  model::SystemConfig fp_cfg = base;
  args.Apply(&fp_cfg);
  bench::CellRunner cells("ablation_conflict_model", args,
                          fp_cfg.ToString() + ";base_workload;explicit_table");
  const uint64_t seed = static_cast<uint64_t>(args.seed);
  TablePrinter table({"locks", "probabilistic", "explicit", "prob denial",
                      "expl denial"});
  int64_t best_prob = 1, best_expl = 1;
  double best_prob_tp = -1.0, best_expl_tp = -1.0;
  for (size_t p = 0; p < lock_counts.size(); ++p) {
    const int64_t ltot = lock_counts[p];
    model::SystemConfig cfg = base;
    cfg.ltot = ltot;
    args.Apply(&cfg);
    const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);

    auto prob = cells.Run(0, static_cast<int>(p), ltot, seed,
                          [&](const fault::CellWatchdog* wd) {
                            core::GranularitySimulator::Options opt;
                            opt.watchdog = wd;
                            return core::GranularitySimulator::RunOnce(
                                cfg, spec, seed, opt);
                          });
    auto expl = cells.Run(1, static_cast<int>(p), ltot, seed,
                          [&](const fault::CellWatchdog* wd) {
                            db::ExplicitSimulator::Options opt;
                            opt.watchdog = wd;
                            return db::ExplicitSimulator::RunOnce(cfg, spec,
                                                                  seed, opt);
                          });
    if (prob.ok() && prob->throughput > best_prob_tp) {
      best_prob_tp = prob->throughput;
      best_prob = ltot;
    }
    if (expl.ok() && expl->throughput > best_expl_tp) {
      best_expl_tp = expl->throughput;
      best_expl = ltot;
    }
    table.AddRow({StrFormat("%lld", (long long)ltot),
                  prob.ok() ? StrFormat("%.5g", prob->throughput)
                            : std::string("-"),
                  expl.ok() ? StrFormat("%.5g", expl->throughput)
                            : std::string("-"),
                  prob.ok() ? StrFormat("%.3f", prob->denial_rate)
                            : std::string("-"),
                  expl.ok() ? StrFormat("%.3f", expl->denial_rate)
                            : std::string("-")});
  }
  cells.Finish();
  if (args.csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  std::printf(
      "\noptimal ltot: probabilistic=%lld (tp %.5g), explicit=%lld (tp "
      "%.5g)\n",
      (long long)best_prob, best_prob_tp, (long long)best_expl, best_expl_tp);
  bench::MaybeWriteTableJsonReport("ablation_conflict_model",
                                   {{"throughput", &table}}, args);
  return 0;
}
