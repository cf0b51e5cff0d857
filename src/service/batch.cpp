#include "service/batch.h"

#include <filesystem>
#include <memory>

#include "hwmodel/characterize.h"
#include "io/hcl.h"
#include "io/scanner.h"
#include "service/session.h"

namespace hcrf::service {

namespace {

namespace fs = std::filesystem;

ManifestEntry ParseRequestLine(const io::Scanner& sc, const io::TokLine& tl) {
  if (tl.toks.size() % 2 != 1) {
    io::Fail(sc.file(), tl.number, "'request' expects key/value pairs");
  }
  ManifestEntry e;
  e.line = tl.number;
  for (size_t i = 1; i + 1 < tl.toks.size(); i += 2) {
    const std::string_view key = tl.toks[i];
    const std::string_view val = tl.toks[i + 1];
    if (key == "graph") {
      e.graph = std::string(val);
    } else if (key == "machine") {
      e.machine = std::string(val);
    } else if (key == "rf") {
      e.rf = std::string(val);
      e.rf_set = true;
    } else if (key == "characterize") {
      e.characterize = io::ScanInt(sc, tl.number, val, key) != 0;
      e.characterize_set = true;
    } else if (key == "budget") {
      e.budget_ratio = io::ScanDouble(sc, tl.number, val, key);
    } else if (key == "max_ii") {
      e.max_ii = io::ScanInt(sc, tl.number, val, key);
    } else if (key == "iterative") {
      e.iterative = io::ScanInt(sc, tl.number, val, key) != 0;
    } else if (key == "policy") {
      e.policy = io::ClusterPolicyFromName(val);
      if (!e.policy) {
        io::Fail(sc.file(), tl.number,
                 "unknown cluster policy '" + std::string(val) + "'");
      }
    } else {
      io::Fail(sc.file(), tl.number,
               "unknown request field '" + std::string(key) + "'");
    }
  }
  if (e.graph.empty()) {
    io::Fail(sc.file(), tl.number, "'request' missing the 'graph' field");
  }
  if (!e.machine.empty() && (e.rf_set || e.characterize_set)) {
    io::Fail(sc.file(), tl.number,
             "'machine' is mutually exclusive with 'rf'/'characterize'");
  }
  return e;
}

}  // namespace

std::vector<ManifestEntry> ParseManifest(std::string_view text,
                                         std::string_view filename) {
  io::Scanner sc(text, filename);
  io::ExpectHeader(sc, "manifest");
  std::vector<ManifestEntry> entries;
  while (true) {
    if (sc.Done()) io::Fail(filename, sc.LastLine(), "missing 'end'");
    const io::TokLine& tl = sc.Next();
    if (tl.toks[0] == "end") {
      io::WantToks(sc, tl, 1);
      if (!sc.Done()) {
        io::Fail(filename, sc.Peek().number, "content after 'end'");
      }
      return entries;
    }
    if (tl.toks[0] != "request") {
      io::Fail(filename, tl.number,
               "unknown directive '" + std::string(tl.toks[0]) + "'");
    }
    entries.push_back(ParseRequestLine(sc, tl));
  }
}

std::vector<ManifestEntry> LoadManifestFile(const std::string& path) {
  return ParseManifest(io::ReadFile(path), path);
}

BatchRequest ResolveManifestEntry(const ManifestEntry& e,
                                  const std::string& base_dir) {
  const fs::path base(base_dir);
  BatchRequest req;
  req.loop = std::make_shared<workload::Loop>(
      io::LoadLoopFile((base / e.graph).string()));
  req.id = req.loop->ddg.name().empty() ? e.graph : req.loop->ddg.name();
  if (!e.machine.empty()) {
    req.machine = io::LoadMachineFile((base / e.machine).string());
  } else {
    req.machine = MachineConfig::WithRF(RFConfig::Parse(e.rf));
    if (e.characterize) {
      req.machine = hw::ApplyCharacterization(req.machine,
                                              hw::RFModelMode::kPaperTable);
    }
  }
  if (e.budget_ratio) req.options.budget_ratio = *e.budget_ratio;
  if (e.max_ii) req.options.max_ii = *e.max_ii;
  if (e.iterative) req.options.iterative = *e.iterative;
  if (e.policy) req.options.cluster_policy = *e.policy;
  return req;
}

// The free functions are the transient-session form: one SchedulerService
// per call, drained before reporting so the counters are exact even with
// write-behind (a fresh session's lifetime totals ARE the batch totals).

BatchReport RunBatch(const std::vector<BatchRequest>& requests,
                     const ServiceConfig& config) {
  SchedulerService session(config);
  BatchReport report = session.RunBatch(requests);
  session.Drain();
  report.cache = session.tier_stats();
  report.mem_cache = session.memory_stats();
  return report;
}

BatchReport RunManifest(const std::string& manifest_path,
                        const ServiceConfig& config) {
  SchedulerService session(config);
  BatchReport report = session.RunManifest(manifest_path);
  session.Drain();
  report.cache = session.tier_stats();
  report.mem_cache = session.memory_stats();
  return report;
}

}  // namespace hcrf::service
