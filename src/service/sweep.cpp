#include "service/sweep.h"

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>

#include "hwmodel/characterize.h"
#include "io/hcl.h"
#include "io/scanner.h"
#include "service/session.h"
#include "workload/suite_cache.h"

namespace hcrf::service {

namespace {

namespace fs = std::filesystem;

// Suite names a spec may reference; must stay in sync with
// workload::SharedSuiteByName (the executor resolves through it).
bool IsKnownSuite(std::string_view name) {
  return name == "kernels" || name == "synth";
}

std::string JoinInts(const std::vector<int>& values) {
  std::string out;
  for (int v : values) {
    out += ' ';
    out += std::to_string(v);
  }
  return out;
}

void ParseGridAxis(const io::Scanner& sc, const io::TokLine& tl,
                   std::vector<int>* axis, int min_value) {
  if (!axis->empty()) {
    io::Fail(sc.file(), tl.number,
             "duplicate 'grid " + std::string(tl.toks[1]) + "' axis");
  }
  if (tl.toks.size() < 3) {
    io::Fail(sc.file(), tl.number, "'grid' axis needs at least one value");
  }
  for (size_t i = 2; i < tl.toks.size(); ++i) {
    const int v = io::ScanInt(sc, tl.number, tl.toks[i], "grid value");
    if (v < min_value) {
      io::Fail(sc.file(), tl.number,
               "grid value " + std::to_string(v) + " below minimum " +
                   std::to_string(min_value));
    }
    axis->push_back(v);
  }
}

}  // namespace

SweepSpec ParseSweepSpec(std::string_view text, std::string_view filename) {
  io::Scanner sc(text, filename);
  io::ExpectHeader(sc, "sweep");
  SweepSpec spec;
  int first_grid_line = 0;
  while (true) {
    if (sc.Done()) io::Fail(filename, sc.LastLine(), "missing 'end'");
    const io::TokLine& tl = sc.Next();
    const std::string_view d = tl.toks[0];
    if (d == "end") {
      io::WantToks(sc, tl, 1);
      if (!sc.Done()) {
        io::Fail(filename, sc.Peek().number, "content after 'end'");
      }
      break;
    }
    if (d == "name") {
      io::WantToks(sc, tl, 2);
      spec.name = std::string(tl.toks[1]);
    } else if (d == "suite") {
      io::WantToks(sc, tl, 2);
      if (!IsKnownSuite(tl.toks[1])) {
        io::Fail(filename, tl.number,
                 "unknown suite '" + std::string(tl.toks[1]) +
                     "' (expected kernels or synth)");
      }
      spec.suites.emplace_back(tl.toks[1]);
    } else if (d == "graph") {
      io::WantToks(sc, tl, 2);
      spec.graphs.emplace_back(tl.toks[1]);
    } else if (d == "rf") {
      io::WantToks(sc, tl, 2);
      try {
        RFConfig::Parse(tl.toks[1]);
      } catch (const std::invalid_argument& e) {
        io::Fail(filename, tl.number, e.what());
      }
      spec.rfs.emplace_back(tl.toks[1]);
    } else if (d == "grid") {
      if (tl.toks.size() < 2) {
        io::Fail(filename, tl.number, "'grid' needs an axis name");
      }
      if (first_grid_line == 0) first_grid_line = tl.number;
      if (tl.toks[1] == "clusters") {
        ParseGridAxis(sc, tl, &spec.grid_clusters, 1);
      } else if (tl.toks[1] == "cluster_regs") {
        ParseGridAxis(sc, tl, &spec.grid_cluster_regs, 1);
      } else if (tl.toks[1] == "shared_regs") {
        ParseGridAxis(sc, tl, &spec.grid_shared_regs, 0);
      } else {
        io::Fail(filename, tl.number,
                 "unknown grid axis '" + std::string(tl.toks[1]) + "'");
      }
    } else if (d == "fus") {
      io::WantToks(sc, tl, 2);
      spec.num_fus = io::ScanInt(sc, tl.number, tl.toks[1], d);
    } else if (d == "mem_ports") {
      io::WantToks(sc, tl, 2);
      spec.num_mem_ports = io::ScanInt(sc, tl.number, tl.toks[1], d);
    } else if (d == "characterize") {
      io::WantToks(sc, tl, 2);
      spec.characterize = io::ScanInt(sc, tl.number, tl.toks[1], d) != 0;
    } else if (d == "budget") {
      io::WantToks(sc, tl, 2);
      spec.budget_ratio = io::ScanDouble(sc, tl.number, tl.toks[1], d);
    } else if (d == "max_ii") {
      io::WantToks(sc, tl, 2);
      spec.max_ii = io::ScanInt(sc, tl.number, tl.toks[1], d);
    } else if (d == "iterative") {
      io::WantToks(sc, tl, 2);
      spec.iterative = io::ScanInt(sc, tl.number, tl.toks[1], d) != 0;
    } else if (d == "policy") {
      io::WantToks(sc, tl, 2);
      spec.policy = io::ClusterPolicyFromName(tl.toks[1]);
      if (!spec.policy) {
        io::Fail(filename, tl.number,
                 "unknown cluster policy '" + std::string(tl.toks[1]) + "'");
      }
    } else {
      io::Fail(filename, tl.number,
               "unknown directive '" + std::string(d) + "'");
    }
  }

  const bool has_grid = !spec.grid_clusters.empty() ||
                        !spec.grid_cluster_regs.empty() ||
                        !spec.grid_shared_regs.empty();
  if (has_grid && (spec.grid_clusters.empty() ||
                   spec.grid_cluster_regs.empty() ||
                   spec.grid_shared_regs.empty())) {
    io::Fail(filename, first_grid_line,
             "a grid needs all three axes (clusters, cluster_regs, "
             "shared_regs)");
  }
  if (spec.suites.empty() && spec.graphs.empty()) {
    io::Fail(filename, sc.LastLine(),
             "a sweep needs at least one 'suite' or 'graph'");
  }
  if (spec.rfs.empty() && !has_grid) {
    io::Fail(filename, sc.LastLine(),
             "a sweep needs at least one 'rf' or a grid");
  }
  return spec;
}

std::string DumpSweepSpec(const SweepSpec& spec) {
  std::string out = "hcl 1 sweep\n";
  if (!spec.name.empty()) out += "name " + spec.name + "\n";
  for (const std::string& s : spec.suites) out += "suite " + s + "\n";
  for (const std::string& g : spec.graphs) out += "graph " + g + "\n";
  for (const std::string& rf : spec.rfs) out += "rf " + rf + "\n";
  if (!spec.grid_clusters.empty()) {
    out += "grid clusters" + JoinInts(spec.grid_clusters) + "\n";
    out += "grid cluster_regs" + JoinInts(spec.grid_cluster_regs) + "\n";
    out += "grid shared_regs" + JoinInts(spec.grid_shared_regs) + "\n";
  }
  if (spec.num_fus) out += "fus " + std::to_string(*spec.num_fus) + "\n";
  if (spec.num_mem_ports) {
    out += "mem_ports " + std::to_string(*spec.num_mem_ports) + "\n";
  }
  out += std::string("characterize ") + (spec.characterize ? "1" : "0") + "\n";
  if (spec.budget_ratio) {
    out += "budget " + io::FormatDouble(*spec.budget_ratio) + "\n";
  }
  if (spec.max_ii) out += "max_ii " + std::to_string(*spec.max_ii) + "\n";
  if (spec.iterative) {
    out += std::string("iterative ") + (*spec.iterative ? "1" : "0") + "\n";
  }
  if (spec.policy) {
    out += "policy " + std::string(core::ToString(*spec.policy)) + "\n";
  }
  out += "end\n";
  return out;
}

SweepSpec LoadSweepSpecFile(const std::string& path) {
  return ParseSweepSpec(io::ReadFile(path), path);
}

SweepPlan ExpandSweepMachines(const SweepSpec& spec) {
  MachineConfig base;
  if (spec.num_fus) base.num_fus = *spec.num_fus;
  if (spec.num_mem_ports) base.num_mem_ports = *spec.num_mem_ports;

  // The organization axis: explicit names first, then the grid cross
  // product. Grid entries go through RFConfig::Parse on a constructed
  // name so port defaults and bus counts stay single-sourced.
  std::vector<RFConfig> rfs;
  for (const std::string& name : spec.rfs) rfs.push_back(RFConfig::Parse(name));
  for (int c : spec.grid_clusters) {
    for (int y : spec.grid_cluster_regs) {
      for (int z : spec.grid_shared_regs) {
        std::string name = std::to_string(c) + "C" + std::to_string(y);
        if (z > 0) {
          name += 'S';
          name += std::to_string(z);
        }
        rfs.push_back(RFConfig::Parse(name));
      }
    }
  }

  SweepPlan plan;
  for (const RFConfig& rf : rfs) {
    bool duplicate = false;
    for (const SweepMachine& sm : plan.machines) {
      if (sm.machine.rf == rf) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;

    MachineConfig m = base;
    m.rf = rf;
    std::string why;
    if (!m.IsValid(&why)) {
      plan.skipped.push_back(rf.Name() + ": " + why);
      continue;
    }
    if (spec.characterize && !rf.UnboundedClusterRegs() &&
        !rf.UnboundedSharedRegs()) {
      try {
        m = hw::ApplyCharacterization(m, hw::RFModelMode::kPaperTable);
      } catch (const std::exception& e) {
        plan.skipped.push_back(rf.Name() + ": " + e.what());
        continue;
      }
    }
    plan.machines.push_back(SweepMachine{rf.Name(), std::move(m)});
  }
  return plan;
}

SweepReport RunSweep(const SweepSpec& spec, const std::string& base_dir,
                     SchedulerService& session) {
  const SweepPlan plan = ExpandSweepMachines(spec);
  if (plan.machines.empty()) {
    std::string msg = "sweep expands to no valid organizations";
    for (const std::string& s : plan.skipped) msg += "\n  skipped " + s;
    throw std::runtime_error(msg);
  }

  // The workload axis: shared suites, then explicit graph files. One
  // shared instance per loop serves the whole organization grid (the
  // batch requests alias it, so memory stays O(loops), not O(cells)).
  std::vector<std::shared_ptr<const workload::Loop>> loops;
  std::vector<std::string> labels;
  for (const std::string& name : spec.suites) {
    const workload::Suite* suite = workload::SharedSuiteByName(name);
    if (suite == nullptr) {
      throw std::runtime_error("unknown suite '" + name + "'");
    }
    for (size_t i = 0; i < suite->size(); ++i) {
      const workload::Loop& loop = (*suite)[i];
      // Shared suites are process-static: alias, never copy.
      loops.push_back(std::shared_ptr<const workload::Loop>(
          std::shared_ptr<const void>(), &loop));
      labels.push_back(loop.ddg.name().empty()
                           ? name + "-" + std::to_string(i)
                           : loop.ddg.name());
    }
  }
  for (const std::string& rel : spec.graphs) {
    const std::string path = (fs::path(base_dir) / rel).string();
    auto loop = std::make_shared<const workload::Loop>(io::LoadLoopFile(path));
    labels.push_back(loop->ddg.name().empty()
                         ? fs::path(rel).stem().string()
                         : loop->ddg.name());
    loops.push_back(std::move(loop));
  }
  if (loops.empty()) {
    throw std::runtime_error("sweep workload is empty");
  }

  // Organization-major expansion: one flat batch keeps the worker pool
  // saturated across the whole grid instead of per-organization waves.
  std::vector<BatchRequest> requests;
  requests.reserve(plan.machines.size() * loops.size());
  for (const SweepMachine& sm : plan.machines) {
    for (size_t i = 0; i < loops.size(); ++i) {
      BatchRequest req;
      req.id = sm.org + "/" + labels[i];
      req.loop = loops[i];
      req.machine = sm.machine;
      if (spec.budget_ratio) req.options.budget_ratio = *spec.budget_ratio;
      if (spec.max_ii) req.options.max_ii = *spec.max_ii;
      if (spec.iterative) req.options.iterative = *spec.iterative;
      if (spec.policy) req.options.cluster_policy = *spec.policy;
      requests.push_back(std::move(req));
    }
  }

  SweepReport report;
  report.name = spec.name.empty() ? "sweep" : spec.name;
  for (const SweepMachine& sm : plan.machines) report.orgs.push_back(sm.org);
  report.loops = labels;
  report.skipped = plan.skipped;
  report.cells.resize(requests.size());
  // Each lane reduces its item to the cell's deterministic fields and
  // drops the schedule, so the sweep never holds the grid's results.
  const BatchReport batch = session.RunBatch(
      requests, [&](std::size_t k, BatchItem& item) {
        const core::ScheduleResult r = std::move(item.result);
        SweepCell& cell = report.cells[k];
        cell.org = plan.machines[k / loops.size()].org;
        cell.loop = labels[k % loops.size()];
        cell.ok = item.ok;
        cell.cache_hit = item.cache_hit;
        cell.error = item.error;
        cell.ii = r.ii;
        cell.mii = r.mii;
        cell.sc = r.sc;
        cell.bound = r.bound;
        cell.comm_ops = r.stats.comm_ops;
        cell.spill_ops = r.stats.spill_loads + r.stats.spill_stores;
      });
  report.cache = batch.cache;
  report.scheduled = batch.scheduled;
  report.hits = batch.hits;
  report.failed = batch.failed;
  report.seconds = batch.seconds;
  return report;
}

SweepReport RunSweep(const SweepSpec& spec, const std::string& base_dir,
                     const ServiceConfig& config) {
  SchedulerService session(config);
  SweepReport report = RunSweep(spec, base_dir, session);
  session.Drain();
  if (session.has_cache()) report.cache = session.tier_stats();
  return report;
}

std::string SweepCsv(const SweepReport& report) {
  std::string out = "org,loop,status,ii,mii,sc,bound,comm_ops,spill_ops\n";
  for (const SweepCell& c : report.cells) {
    out += c.org + "," + c.loop + "," + (c.ok ? "ok" : "failed") + "," +
           std::to_string(c.ii) + "," + std::to_string(c.mii) + "," +
           std::to_string(c.sc) + "," + std::string(core::ToString(c.bound)) +
           "," + std::to_string(c.comm_ops) + "," +
           std::to_string(c.spill_ops) + "\n";
  }
  return out;
}

std::string SweepMarkdown(const SweepReport& report) {
  std::string out = "# Sweep: " + report.name + "\n\n";
  out += std::to_string(report.orgs.size()) + " organizations x " +
         std::to_string(report.loops.size()) + " loops\n\n";

  // Per-organization aggregates over the ok cells.
  struct OrgAgg {
    long ok = 0, failed = 0;
    long sum_ii = 0, sum_mii = 0;
    double sum_ratio = 0.0;
    long bound[4] = {0, 0, 0, 0};
    long comm_ops = 0, spill_ops = 0;
  };
  std::map<std::string, OrgAgg> aggs;
  for (const SweepCell& c : report.cells) {
    OrgAgg& a = aggs[c.org];
    if (!c.ok) {
      ++a.failed;
      continue;
    }
    ++a.ok;
    a.sum_ii += c.ii;
    a.sum_mii += c.mii;
    a.sum_ratio += c.mii > 0 ? static_cast<double>(c.ii) / c.mii : 1.0;
    ++a.bound[static_cast<int>(c.bound)];
    a.comm_ops += c.comm_ops;
    a.spill_ops += c.spill_ops;
  }
  out +=
      "| organization | ok | failed | avg II/MII | sum II | sum MII | "
      "fu | mem | rec | comm | comm ops | spill ops |\n"
      "|---|---|---|---|---|---|---|---|---|---|---|---|\n";
  for (const std::string& org : report.orgs) {
    const OrgAgg& a = aggs[org];
    char avg_ratio[32] = "-";
    if (a.ok > 0) {
      std::snprintf(avg_ratio, sizeof avg_ratio, "%.3f",
                    a.sum_ratio / static_cast<double>(a.ok));
    }
    out += "| " + org + " | " + std::to_string(a.ok) + " | " +
           std::to_string(a.failed) + " | " + avg_ratio +
           " | " + std::to_string(a.sum_ii) + " | " +
           std::to_string(a.sum_mii) + " | " + std::to_string(a.bound[0]) +
           " | " + std::to_string(a.bound[1]) + " | " +
           std::to_string(a.bound[2]) + " | " + std::to_string(a.bound[3]) +
           " | " + std::to_string(a.comm_ops) + " | " +
           std::to_string(a.spill_ops) + " |\n";
  }

  // The II matrix: the shape of the paper's Tables 2/5.
  out += "\n## Achieved II (MII) per loop\n\n| loop |";
  for (const std::string& org : report.orgs) out += " " + org + " |";
  out += "\n|---|";
  for (size_t m = 0; m < report.orgs.size(); ++m) out += "---|";
  out += "\n";
  for (size_t i = 0; i < report.loops.size(); ++i) {
    out += "| " + report.loops[i] + " |";
    for (size_t m = 0; m < report.orgs.size(); ++m) {
      const SweepCell& c = report.cells[m * report.loops.size() + i];
      if (c.ok) {
        out += ' ';
        out += std::to_string(c.ii);
        out += " (";
        out += std::to_string(c.mii);
        out += ") |";
      } else {
        out += " failed |";
      }
    }
    out += "\n";
  }

  if (!report.skipped.empty()) {
    out += "\n## Skipped grid combinations\n\n";
    for (const std::string& s : report.skipped) {
      out += "- ";
      out += s;
      out += '\n';
    }
  }
  return out;
}

}  // namespace hcrf::service
