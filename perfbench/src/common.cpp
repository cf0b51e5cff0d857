#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "hwmodel/characterize.h"
#include "io/hcl.h"
#include "sched/validate.h"
#include "service/session.h"

namespace perfbench {

using hcrf::core::ScheduleResult;
using hcrf::service::BatchRequest;

void RunResult::Fail(const std::string& what) {
  correct = false;
  ++tally.check_failures;
  if (check_errors.size() < 8) check_errors.push_back(what);
}

void RunResult::Set(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void PrintMetric(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  std::printf("  %-34s %16.6f %-6s%s%s\n", name.c_str(), value, unit.c_str(),
              note.empty() ? "" : "  ", note.c_str());
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(double t0_seconds) { return NowSeconds() - t0_seconds; }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

const std::vector<std::string>& PaperOrganizations() {
  static const std::vector<std::string> orgs = {
      "S128", "4C32", "1C64S64", "2C32S64", "4C16S64", "8C8S64"};
  return orgs;
}

MachineConfig CharacterizedMachine(const std::string& rf_name) {
  const MachineConfig m =
      MachineConfig::WithRF(hcrf::RFConfig::Parse(rf_name));
  return hcrf::hw::ApplyCharacterization(m, hcrf::hw::RFModelMode::kPaperTable);
}

std::vector<std::shared_ptr<const hcrf::workload::Loop>> LoadCorpus() {
  std::vector<std::shared_ptr<const hcrf::workload::Loop>> loops;
  for (const char* sub : {"corpus/kernels", "corpus/synth"}) {
    std::vector<std::string> files;
    for (const std::filesystem::directory_entry& e :
         std::filesystem::directory_iterator(sub)) {
      if (e.path().extension() == ".hcl") files.push_back(e.path().string());
    }
    std::sort(files.begin(), files.end());
    for (const std::string& f : files) {
      loops.push_back(std::make_shared<const hcrf::workload::Loop>(
          hcrf::io::LoadLoopFile(f)));
    }
  }
  if (loops.empty()) throw std::runtime_error("no corpus loops under corpus/");
  return loops;
}

namespace {

std::vector<hcrf::NodeId> Loads(const hcrf::DDG& g) {
  std::vector<hcrf::NodeId> loads;
  for (hcrf::NodeId v = 0; v < g.NumSlots(); ++v) {
    if (g.IsAlive(v) && g.node(v).op == hcrf::OpClass::kLoad) loads.push_back(v);
  }
  return loads;
}

}  // namespace

bool DeltaEligible(const hcrf::DDG& g, const std::string& org) {
  if (g.name() == "synth-stream-13" && org == "4C16S64") return false;
  return !Loads(g).empty();
}

Hardening DrawHardening(const BatchRequest& base, Stream& rng) {
  const std::vector<hcrf::NodeId> loads = Loads(base.loop->ddg);
  Hardening h;
  h.node = loads[static_cast<std::size_t>(
      rng.Uniform(0, static_cast<long>(loads.size()) - 1))];
  const hcrf::LatencyTable& lat = base.machine.lat;
  h.latency = static_cast<int>(
      rng.Uniform(lat.load_hit + 1, std::max(lat.load_miss, lat.load_hit + 1)));
  return h;
}

BatchRequest Hardened(BatchRequest base, const Hardening& h) {
  base.allow_warm_start = true;
  base.overrides.producer_latency.assign(
      static_cast<std::size_t>(base.loop->ddg.NumSlots()), 0);
  base.overrides.producer_latency[static_cast<std::size_t>(h.node)] = h.latency;
  return base;
}

std::vector<BatchRequest> MakeRequests(
    const std::vector<PoolEntry>& entries,
    const std::vector<MachineConfig>& machines) {
  std::vector<BatchRequest> requests;
  requests.reserve(entries.size());
  for (const PoolEntry& e : entries) {
    BatchRequest r;
    r.id = e.loop->ddg.name();
    r.loop = e.loop;
    r.machine = machines[static_cast<std::size_t>(e.org)];
    requests.push_back(std::move(r));
  }
  return requests;
}

std::uint64_t DumpDigest(const ScheduleResult& result) {
  Digest d;
  d.Add(hcrf::io::DumpResult(result));
  return d.value();
}

std::vector<std::uint64_t> ReferenceDigests(
    const std::vector<BatchRequest>& requests,
    std::vector<ScheduleResult>* results) {
  hcrf::service::ServiceConfig config;  // no tiers: always a cold schedule
  hcrf::service::SchedulerService session(config);
  hcrf::service::BatchReport report = session.RunBatch(requests);
  std::vector<std::uint64_t> digests;
  digests.reserve(report.items.size());
  for (hcrf::service::BatchItem& item : report.items) {
    digests.push_back(DumpDigest(item.result));
    if (results != nullptr) results->push_back(std::move(item.result));
  }
  return digests;
}

std::string ValidateResult(const ScheduleResult& result,
                           const MachineConfig& machine) {
  if (!result.ok) return "";
  const hcrf::sched::ValidationResult v = hcrf::sched::Validate(
      result.graph, result.schedule, machine, result.overrides);
  return v.ok ? "" : v.error;
}

double IiOverMii(const std::vector<ScheduleResult>& results) {
  double ii = 0;
  double mii = 0;
  for (const ScheduleResult& r : results) {
    if (!r.ok) continue;
    ii += r.ii;
    mii += r.mii;
  }
  return mii > 0 ? ii / mii : 0.0;
}

std::string ScratchDir() {
  return ".bench_build/run-" + std::to_string(::getpid());
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void PrintHostHeader(const Args& args, const std::string& stream_digest) {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) < 0) load[0] = -1;
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  const unsigned nproc = std::thread::hardware_concurrency();
  Digest host;
  host.Add(cpu);
  host.Add(static_cast<std::uint64_t>(nproc));
  host.Add(PERFBENCH_BUILD_TYPE);
  std::printf(
      "host: nproc=%u build=%s load1=%.2f cpu=\"%s\" host_id=%s\n"
      "run: workload=%s seed=%llu seconds=%g trace=%d stream_digest=%s\n",
      nproc, PERFBENCH_BUILD_TYPE, load[0], cpu.c_str(),
      Hex(host.value()).c_str(), args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, stream_digest.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
