// The 13 registered paper-reproduction experiments. Each definition is the
// declarative replacement of one of the standalone bench/ binaries this
// subsystem retired; the aggregation kernels port those mains' arithmetic
// verbatim so `hcrf_sched repro` reproduces their numbers. Reference
// anchors live in paper_ref.cpp, keyed by the (row, metric) names emitted
// here.
#include <string>
#include <vector>

#include "experiment/experiment.h"
#include "experiment/paper_ref.h"
#include "hwmodel/characterize.h"

namespace hcrf::experiment {

const perf::LoopMetrics& ExperimentData::At(std::size_t machine,
                                            std::size_t engine,
                                            std::size_t loop) const {
  return cells[(machine * def->engines.size() + engine) * loops.size() + loop];
}

perf::SuiteMetrics ExperimentData::Sum(std::size_t machine,
                                       std::size_t engine) const {
  const std::size_t base =
      (machine * def->engines.size() + engine) * loops.size();
  const std::vector<perf::LoopMetrics> row(
      cells.begin() + static_cast<std::ptrdiff_t>(base),
      cells.begin() + static_cast<std::ptrdiff_t>(base + loops.size()));
  return perf::Aggregate(row);
}

namespace {

/// bench::MakeMachine's contract: baseline resources (8 FUs + 4 memory
/// ports), the named RF organization and, for bounded register counts,
/// the clock/latency table of the paper-calibrated hardware model.
MachineConfig Machine(const std::string& rf_name, bool characterize = true) {
  MachineConfig m = MachineConfig::WithRF(RFConfig::Parse(rf_name));
  if (characterize) {
    m = hw::ApplyCharacterization(m, hw::RFModelMode::kPaperTable);
  }
  return m;
}

void Push(std::vector<MetricValue>& out, std::string row, const char* metric,
          double value) {
  out.push_back(MetricValue{std::move(row), metric, value});
}

// ---------------------------------------------------------------------------
// Figure 1: IPC vs machine resources (monolithic RF, unbounded registers).
// ---------------------------------------------------------------------------

std::vector<MetricValue> Fig1Aggregate(const ExperimentData& d) {
  std::vector<MetricValue> out;
  for (std::size_t m = 0; m < d.def->machines.size(); ++m) {
    const MachineVariant& mv = d.def->machines[m];
    const perf::SuiteMetrics sm = d.Sum(m, 0);
    const double ipc = sm.IPC();
    Push(out, mv.label, "ipc", ipc);
    Push(out, mv.label, "efficiency",
         ipc / (mv.machine.num_fus + mv.machine.num_mem_ports));
  }
  return out;
}

Experiment MakeFig1() {
  Experiment e;
  e.name = "fig1";
  e.title = "IPC vs machine resources (monolithic RF, unbounded registers)";
  e.workload = {"synth", 0, 8};
  const int shapes[][2] = {{4, 2}, {6, 3}, {8, 4}, {10, 5}, {12, 6}};
  for (const auto& s : shapes) {
    MachineConfig m = MachineConfig::WithRF(RFConfig::Parse("Sinf"));
    m.num_fus = s[0];
    m.num_mem_ports = s[1];
    e.machines.push_back(
        {std::to_string(s[0]) + "+" + std::to_string(s[1]), m});
  }
  e.engines.push_back({});
  e.aggregate = Fig1Aggregate;
  return e;
}

// ---------------------------------------------------------------------------
// Figure 4: CDF of per-bank LoadR/StoreR port demand (unbounded registers
// and bandwidth) — the experiment behind the lp-sp design rule.
// ---------------------------------------------------------------------------

std::vector<MetricValue> Fig4Aggregate(const ExperimentData& d) {
  std::vector<MetricValue> out;
  for (std::size_t m = 0; m < d.def->machines.size(); ++m) {
    const MachineVariant& mv = d.def->machines[m];
    const int x = mv.machine.rf.clusters;
    std::vector<double> lp_demand;
    std::vector<double> sp_demand;
    for (std::size_t l = 0; l < d.loops.size(); ++l) {
      const perf::LoopMetrics& lm = d.At(m, 0, l);
      if (!lm.ok) continue;
      lp_demand.push_back(static_cast<double>(lm.loadr_ops) /
                          (static_cast<double>(lm.ii) * x));
      sp_demand.push_back(static_cast<double>(lm.storer_ops) /
                          (static_cast<double>(lm.ii) * x));
    }
    const auto cdf = [](const std::vector<double>& v, int k) {
      long c = 0;
      for (double demand : v) {
        if (demand <= k + 1e-9) ++c;
      }
      return v.empty() ? 0.0
                       : 100.0 * static_cast<double>(c) /
                             static_cast<double>(v.size());
    };
    for (int k = 0; k <= 4; ++k) {
      Push(out, mv.label, ("lp_le" + std::to_string(k)).c_str(),
           cdf(lp_demand, k));
    }
    for (int k = 0; k <= 4; ++k) {
      Push(out, mv.label, ("sp_le" + std::to_string(k)).c_str(),
           cdf(sp_demand, k));
    }
  }
  return out;
}

Experiment MakeFig4() {
  Experiment e;
  e.name = "fig4";
  e.title = "CDF of per-bank LoadR/StoreR port demand (lp-sp design rule)";
  e.workload = {"synth", 0, 8};
  for (int x : {1, 2, 4, 8}) {
    const std::string name = std::to_string(x) + "CinfSinf/inf-inf";
    e.machines.push_back(
        {std::to_string(x) + "C", Machine(name, /*characterize=*/false)});
  }
  e.engines.push_back({});
  e.aggregate = Fig4Aggregate;
  return e;
}

// ---------------------------------------------------------------------------
// Figure 6: real memory + selective binding prefetching, relative to the
// useful cycles / time of the S64 baseline (machines[0]).
// ---------------------------------------------------------------------------

std::vector<MetricValue> Fig6Aggregate(const ExperimentData& d) {
  std::vector<MetricValue> out;
  const perf::SuiteMetrics bm = d.Sum(0, 0);
  const MachineConfig& base = d.def->machines[0].machine;
  const double base_cycles = static_cast<double>(bm.useful_cycles);
  const double base_time = base_cycles * base.clock_ns;
  const double base_total =
      static_cast<double>(bm.useful_cycles + bm.stall_cycles) * base.clock_ns;
  for (std::size_t m = 0; m < d.def->machines.size(); ++m) {
    const MachineVariant& mv = d.def->machines[m];
    const perf::SuiteMetrics sm = d.Sum(m, 0);
    const double total =
        static_cast<double>(sm.useful_cycles + sm.stall_cycles) *
        mv.machine.clock_ns;
    Push(out, mv.label, "cyc_useful",
         static_cast<double>(sm.useful_cycles) / base_cycles);
    Push(out, mv.label, "cyc_stall",
         static_cast<double>(sm.stall_cycles) / base_cycles);
    Push(out, mv.label, "time_useful",
         static_cast<double>(sm.useful_cycles) * mv.machine.clock_ns /
             base_time);
    Push(out, mv.label, "time_stall",
         static_cast<double>(sm.stall_cycles) * mv.machine.clock_ns /
             base_time);
    Push(out, mv.label, "speedup", base_total / total);
    Push(out, mv.label, "failed", sm.failed);
  }
  return out;
}

Experiment MakeFig6() {
  Experiment e;
  e.name = "fig6";
  e.title = "Real memory + selective binding prefetching (relative to S64)";
  e.workload = {"synth", 0, 8};
  for (const char* name : {"S64", "2C64/1-1", "4C32/1-1", "1C32S64/4-2",
                           "2C32S32/3-1", "4C32S16/1-1", "8C16S16/1-1"}) {
    e.machines.push_back({RFConfig::Parse(name).ShortName(), Machine(name)});
  }
  EngineVariant ev;
  ev.label = "selective";
  ev.prefetch = memsim::PrefetchMode::kSelective;
  ev.simulate_memory = true;
  e.engines.push_back(std::move(ev));
  e.aggregate = Fig6Aggregate;
  return e;
}

// ---------------------------------------------------------------------------
// Table 1: classification of loops by what bounds their II, for three
// equal-capacity (128-register) organizations.
// ---------------------------------------------------------------------------

std::vector<MetricValue> Table1Aggregate(const ExperimentData& d) {
  std::vector<MetricValue> out;
  std::vector<double> totals;
  for (std::size_t m = 0; m < d.def->machines.size(); ++m) {
    const MachineVariant& mv = d.def->machines[m];
    const perf::SuiteMetrics sm = d.Sum(m, 0);
    const char* pct_metrics[4] = {"pct_fu", "pct_mem", "pct_rec", "pct_comm"};
    const char* cyc_metrics[4] = {"cyc_fu_e9", "cyc_mem_e9", "cyc_rec_e9",
                                  "cyc_comm_e9"};
    for (int b = 0; b < 4; ++b) {
      Push(out, mv.label, pct_metrics[b],
           100.0 * sm.bound_count[static_cast<std::size_t>(b)] /
               std::max(1, sm.num_loops - sm.failed));
      Push(out, mv.label, cyc_metrics[b],
           static_cast<double>(sm.bound_cycles[static_cast<std::size_t>(b)]) /
               1e9);
    }
    Push(out, mv.label, "exec_cycles_e9",
         static_cast<double>(sm.ExecCycles()) / 1e9);
    Push(out, mv.label, "failed", sm.failed);
    totals.push_back(static_cast<double>(sm.ExecCycles()));
  }
  Push(out, "4C32/S128", "cycles_rel", totals[1] / totals[0]);
  Push(out, "1C64S64/S128", "cycles_rel", totals[2] / totals[0]);
  return out;
}

Experiment MakeTable1() {
  Experiment e;
  e.name = "table1";
  e.title = "Loop classification by II bound, 128-register organizations";
  e.workload = {"synth", 0, 8};
  for (const char* name : {"S128", "4C32", "1C64S64"}) {
    e.machines.push_back({name, Machine(name)});
  }
  e.engines.push_back({});
  e.aggregate = Table1Aggregate;
  return e;
}

// ---------------------------------------------------------------------------
// Table 2: access time and area of three equal-capacity organizations at
// lp=sp=1, from the analytic register-file model. Hardware-model only.
// ---------------------------------------------------------------------------

std::vector<MetricValue> Table2Aggregate(const ExperimentData& d) {
  (void)d;
  std::vector<MetricValue> out;
  for (const char* name : {"S128", "4C32", "1C64S64"}) {
    MachineConfig m = MachineConfig::WithRF(RFConfig::Parse(name));
    // Table 2 uses lp=sp=1 for all organizations.
    if (m.rf.HasClusters()) {
      m.rf.lp = 1;
      m.rf.sp = 1;
    }
    const hw::Characterization c =
        hw::Characterize(m, hw::RFModelMode::kAnalytic);
    Push(out, name, "access_c_ns", c.cluster_bank.access_ns);
    Push(out, name, "access_s_ns", c.shared_bank.access_ns);
    Push(out, name, "area", c.total_area_mlambda2);
  }
  return out;
}

Experiment MakeTable2() {
  Experiment e;
  e.name = "table2";
  e.title = "Analytic RF model: access time and area at 128 registers";
  e.aggregate = Table2Aggregate;
  return e;
}

// ---------------------------------------------------------------------------
// Table 3: static evaluation with unlimited registers, unlimited and
// limited communication bandwidth.
// ---------------------------------------------------------------------------

std::vector<MetricValue> Table3Aggregate(const ExperimentData& d) {
  std::vector<MetricValue> out;
  for (std::size_t m = 0; m < d.def->machines.size(); ++m) {
    const MachineVariant& mv = d.def->machines[m];
    const perf::SuiteMetrics sm = d.Sum(m, 0);
    Push(out, mv.label, "pct_mii", sm.PctAtMII());
    Push(out, mv.label, "sigma_ii", static_cast<double>(sm.sum_ii));
    Push(out, mv.label, "failed", sm.failed);
  }
  return out;
}

Experiment MakeTable3() {
  Experiment e;
  e.name = "table3";
  e.title = "Static evaluation: unlimited registers, ideal memory";
  e.workload = {"synth", 0, 8};
  for (const char* name :
       {"Sinf", "1CinfSinf/inf-inf", "2Cinf/inf-inf", "2CinfSinf/inf-inf",
        "4Cinf/inf-inf", "4CinfSinf/inf-inf", "8CinfSinf/inf-inf",
        "1CinfSinf/4-2", "2Cinf/1-1", "2CinfSinf/3-1", "4Cinf/1-1",
        "4CinfSinf/2-1", "8CinfSinf/1-1"}) {
    e.machines.push_back({name, Machine(name, /*characterize=*/false)});
  }
  e.engines.push_back({});
  e.aggregate = Table3Aggregate;
  return e;
}

// ---------------------------------------------------------------------------
// Table 4: MIRS_HC (iterative) vs the non-iterative [36]-style comparator
// on the hierarchical non-clustered RF. Per-engine scheduling failures are
// counted explicitly: a loop is only compared when BOTH engines scheduled
// it, and every exclusion is reported (noniter_only / mirs_only / both) —
// the old standalone bench counted only the non-iterative engine's
// failures and silently dropped rows where the iterative one failed.
// ---------------------------------------------------------------------------

std::vector<MetricValue> Table4Aggregate(const ExperimentData& d) {
  long n_better = 0, n_equal = 0, n_worse = 0;
  long sii_nb_a = 0, sii_nb_b = 0;  // where the non-iterative engine wins
  long sii_eq = 0;
  long sii_mb_a = 0, sii_mb_b = 0;  // where MIRS_HC wins
  long tot_a = 0, tot_b = 0;
  long failed_a_only = 0, failed_b_only = 0, failed_both = 0;
  long compared = 0;
  for (std::size_t l = 0; l < d.loops.size(); ++l) {
    const perf::LoopMetrics& a = d.At(0, 0, l);  // non-iterative
    const perf::LoopMetrics& b = d.At(0, 1, l);  // MIRS_HC
    if (!a.ok || !b.ok) {
      if (!a.ok && !b.ok) {
        ++failed_both;
      } else if (!a.ok) {
        ++failed_a_only;
      } else {
        ++failed_b_only;
      }
      continue;
    }
    ++compared;
    tot_a += a.ii;
    tot_b += b.ii;
    if (a.ii < b.ii) {
      ++n_better;
      sii_nb_a += a.ii;
      sii_nb_b += b.ii;
    } else if (a.ii == b.ii) {
      ++n_equal;
      sii_eq += a.ii;
    } else {
      ++n_worse;
      sii_mb_a += a.ii;
      sii_mb_b += b.ii;
    }
  }
  std::vector<MetricValue> out;
  Push(out, "noniter_better", "loops", static_cast<double>(n_better));
  Push(out, "noniter_better", "sii_noniter", static_cast<double>(sii_nb_a));
  Push(out, "noniter_better", "sii_mirs", static_cast<double>(sii_nb_b));
  Push(out, "equal", "loops", static_cast<double>(n_equal));
  Push(out, "equal", "sii", static_cast<double>(sii_eq));
  Push(out, "mirs_better", "loops", static_cast<double>(n_worse));
  Push(out, "mirs_better", "sii_noniter", static_cast<double>(sii_mb_a));
  Push(out, "mirs_better", "sii_mirs", static_cast<double>(sii_mb_b));
  Push(out, "total", "loops", static_cast<double>(d.loops.size()));
  Push(out, "total", "sii_noniter", static_cast<double>(tot_a));
  Push(out, "total", "sii_mirs", static_cast<double>(tot_b));
  Push(out, "failures", "noniter_only", static_cast<double>(failed_a_only));
  Push(out, "failures", "mirs_only", static_cast<double>(failed_b_only));
  Push(out, "failures", "both", static_cast<double>(failed_both));
  Push(out, "failures", "compared", static_cast<double>(compared));
  Push(out, "summary", "sii_reduction", static_cast<double>(tot_a - tot_b));
  return out;
}

Experiment MakeTable4() {
  Experiment e;
  e.name = "table4";
  e.title = "MIRS_HC vs non-iterative [36] on the hierarchical RF (1C32S64)";
  e.workload = {"synth", 0, 8};
  e.machines.push_back({"1C32S64", Machine("1C32S64/4-2")});
  EngineVariant noniter;
  noniter.label = "noniter";
  noniter.options.iterative = false;
  e.engines.push_back(std::move(noniter));
  EngineVariant mirs;
  mirs.label = "mirs_hc";
  e.engines.push_back(std::move(mirs));
  e.aggregate = Table4Aggregate;
  return e;
}

// ---------------------------------------------------------------------------
// Table 5: hardware evaluation of all 15 configurations under both model
// modes. Hardware-model only.
// ---------------------------------------------------------------------------

std::vector<MetricValue> Table5Aggregate(const ExperimentData& d) {
  (void)d;
  std::vector<MetricValue> out;
  const struct {
    hw::RFModelMode mode;
    const char* suffix;
  } modes[] = {{hw::RFModelMode::kAnalytic, "/analytic"},
               {hw::RFModelMode::kPaperTable, "/paper"}};
  for (const auto& mode : modes) {
    for (const PaperConfig& pc : kPaperConfigs) {
      const MachineConfig m = MachineConfig::WithRF(RFConfig::Parse(pc.name));
      const hw::Characterization c = hw::Characterize(m, mode.mode);
      const std::string row = std::string(pc.label) + mode.suffix;
      Push(out, row, "access_c_ns", c.cluster_bank.access_ns);
      Push(out, row, "access_s_ns", c.shared_bank.access_ns);
      Push(out, row, "area", c.total_area_mlambda2);
      Push(out, row, "depth_fo4", c.logic_depth_fo4);
      Push(out, row, "clock_ns", c.clock_ns);
      Push(out, row, "lat_mem", c.lat.load_hit);
      Push(out, row, "lat_fu", c.lat.fadd);
    }
  }
  return out;
}

Experiment MakeTable5() {
  Experiment e;
  e.name = "table5";
  e.title = "Hardware evaluation of the 15 RF configurations";
  e.aggregate = Table5Aggregate;
  return e;
}

// ---------------------------------------------------------------------------
// Table 6: ideal-memory evaluation of the 15 configurations, relative to
// the monolithic S64 baseline (machines[1]).
// ---------------------------------------------------------------------------

std::vector<MetricValue> Table6Aggregate(const ExperimentData& d) {
  std::vector<MetricValue> out;
  const perf::SuiteMetrics base_sm = d.Sum(1, 0);  // S64
  const double base_time =
      base_sm.ExecTimeSeconds(d.def->machines[1].machine.clock_ns);
  for (std::size_t m = 0; m < d.def->machines.size(); ++m) {
    const MachineVariant& mv = d.def->machines[m];
    const perf::SuiteMetrics sm = d.Sum(m, 0);
    const double time = sm.ExecTimeSeconds(mv.machine.clock_ns);
    Push(out, mv.label, "exec_rel",
         static_cast<double>(sm.ExecCycles()) /
             static_cast<double>(base_sm.ExecCycles()));
    Push(out, mv.label, "traffic_rel",
         static_cast<double>(sm.mem_traffic) /
             static_cast<double>(base_sm.mem_traffic));
    Push(out, mv.label, "time_rel", time / base_time);
    Push(out, mv.label, "speedup", base_time / time);
    Push(out, mv.label, "failed", sm.failed);
  }
  return out;
}

Experiment MakeTable6() {
  Experiment e;
  e.name = "table6";
  e.title = "Performance evaluation, ideal memory (relative to S64)";
  e.workload = {"synth", 0, 8};
  for (const PaperConfig& pc : kPaperConfigs) {
    e.machines.push_back({pc.label, Machine(pc.name)});
  }
  e.engines.push_back({});
  e.aggregate = Table6Aggregate;
  return e;
}

// ---------------------------------------------------------------------------
// Ablations: knobs the paper does not publish. Shared row shape.
// ---------------------------------------------------------------------------

void PushSuiteRow(std::vector<MetricValue>& out, const std::string& row,
                  const perf::SuiteMetrics& sm) {
  Push(out, row, "sigma_ii", static_cast<double>(sm.sum_ii));
  Push(out, row, "pct_mii", sm.PctAtMII());
  Push(out, row, "failed", sm.failed);
}

std::vector<MetricValue> AblationBudgetAggregate(const ExperimentData& d) {
  std::vector<MetricValue> out;
  for (std::size_t e = 0; e < d.def->engines.size(); ++e) {
    PushSuiteRow(out, d.def->engines[e].label, d.Sum(0, e));
  }
  return out;
}

Experiment MakeAblationBudget() {
  Experiment e;
  e.name = "ablation_budget";
  e.title = "Budget_Ratio of the iterative backtracking (default: 6)";
  e.workload = {"synth", 300, 8};
  e.machines.push_back({"4C16S64", Machine("4C16S64/2-1")});
  for (double ratio : {1.0, 2.0, 4.0, 6.0, 8.0, 16.0}) {
    EngineVariant ev;
    ev.label = "ratio=" + std::to_string(static_cast<int>(ratio));
    ev.options.budget_ratio = ratio;
    e.engines.push_back(std::move(ev));
  }
  e.aggregate = AblationBudgetAggregate;
  return e;
}

std::vector<MetricValue> AblationClusterAggregate(const ExperimentData& d) {
  std::vector<MetricValue> out;
  for (std::size_t m = 0; m < d.def->machines.size(); ++m) {
    for (std::size_t e = 0; e < d.def->engines.size(); ++e) {
      const std::string row =
          d.def->machines[m].label + "/" + d.def->engines[e].label;
      const perf::SuiteMetrics sm = d.Sum(m, e);
      PushSuiteRow(out, row, sm);
      Push(out, row, "ejections", static_cast<double>(sm.ejections));
      Push(out, row, "restarts", static_cast<double>(sm.ii_restarts));
    }
  }
  return out;
}

Experiment MakeAblationClusterSel() {
  Experiment e;
  e.name = "ablation_cluster_sel";
  e.title = "Select_Cluster heuristic vs round-robin and first-fit";
  e.workload = {"synth", 300, 8};
  e.machines.push_back({"4C32", Machine("4C32/1-1")});
  e.machines.push_back({"4C16S64", Machine("4C16S64/2-1")});
  for (core::ClusterPolicy p :
       {core::ClusterPolicy::kBalanced, core::ClusterPolicy::kRoundRobin,
        core::ClusterPolicy::kFirstFit}) {
    EngineVariant ev;
    ev.label = std::string(core::ToString(p));
    ev.options.cluster_policy = p;
    e.engines.push_back(std::move(ev));
  }
  e.aggregate = AblationClusterAggregate;
  return e;
}

std::vector<MetricValue> AblationBusesAggregate(const ExperimentData& d) {
  std::vector<MetricValue> out;
  for (std::size_t m = 0; m < d.def->machines.size(); ++m) {
    PushSuiteRow(out, d.def->machines[m].label, d.Sum(m, 0));
  }
  return out;
}

Experiment MakeAblationBuses() {
  Experiment e;
  e.name = "ablation_buses";
  e.title = "Inter-cluster bus count on the pure clustered 4C32 (default x/2)";
  e.workload = {"synth", 300, 8};
  for (int nb : {1, 2, 3, 4}) {
    MachineConfig m = Machine("4C32/1-1");
    m.rf.buses = nb;  // after characterization, as the ablation did
    e.machines.push_back({"buses=" + std::to_string(nb), m});
  }
  e.engines.push_back({});
  e.aggregate = AblationBusesAggregate;
  return e;
}

std::vector<MetricValue> AblationPrefetchAggregate(const ExperimentData& d) {
  std::vector<MetricValue> out;
  for (std::size_t m = 0; m < d.def->machines.size(); ++m) {
    for (std::size_t e = 0; e < d.def->engines.size(); ++e) {
      const std::string row =
          d.def->machines[m].label + "/" + d.def->engines[e].label;
      const perf::SuiteMetrics sm = d.Sum(m, e);
      Push(out, row, "useful_cycles", static_cast<double>(sm.useful_cycles));
      Push(out, row, "stall_cycles", static_cast<double>(sm.stall_cycles));
      Push(out, row, "sigma_ii", static_cast<double>(sm.sum_ii));
      Push(out, row, "failed", sm.failed);
    }
  }
  return out;
}

Experiment MakeAblationPrefetch() {
  Experiment e;
  e.name = "ablation_prefetch";
  e.title = "Binding-prefetch policy under real memory";
  e.workload = {"synth", 300, 8};
  for (const char* name : {"S64", "4C32/1-1", "4C32S16/1-1"}) {
    e.machines.push_back({RFConfig::Parse(name).ShortName(), Machine(name)});
  }
  for (memsim::PrefetchMode mode :
       {memsim::PrefetchMode::kNone, memsim::PrefetchMode::kAll,
        memsim::PrefetchMode::kSelective}) {
    EngineVariant ev;
    ev.label = std::string(ToString(mode));
    ev.prefetch = mode;
    ev.simulate_memory = true;
    e.engines.push_back(std::move(ev));
  }
  e.aggregate = AblationPrefetchAggregate;
  return e;
}

}  // namespace

const std::vector<Experiment>& Registry() {
  static const std::vector<Experiment>* registry = [] {
    auto* r = new std::vector<Experiment>();
    r->push_back(MakeFig1());
    r->push_back(MakeFig4());
    r->push_back(MakeFig6());
    r->push_back(MakeTable1());
    r->push_back(MakeTable2());
    r->push_back(MakeTable3());
    r->push_back(MakeTable4());
    r->push_back(MakeTable5());
    r->push_back(MakeTable6());
    r->push_back(MakeAblationBudget());
    r->push_back(MakeAblationClusterSel());
    r->push_back(MakeAblationBuses());
    r->push_back(MakeAblationPrefetch());
    return r;
  }();
  return *registry;
}

const Experiment* FindExperiment(std::string_view name) {
  for (const Experiment& e : Registry()) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

}  // namespace hcrf::experiment
