// Design-space exploration: the paper's core argument is that the RF
// organization spans a trade-off surface between IPC, cycle time and area.
// This example sweeps a user-selectable set of organizations over a small
// workload, prints the trade-off table, and marks the Pareto-optimal
// configurations (execution time vs area) -- the "larger design
// exploration space" the abstract advertises.
//
//   $ ./examples/design_space [loops]      (default 120 synthetic loops)
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "hwmodel/characterize.h"
#include "perf/runner.h"
#include "service/session.h"
#include "workload/perfect_synth.h"

using namespace hcrf;

namespace {

struct Point {
  std::string name;
  double area = 0;
  double clock = 0;
  double cycles = 0;
  double time = 0;
  bool pareto = false;
};

}  // namespace

int main(int argc, char** argv) {
  const int nloops = argc > 1 ? std::atoi(argv[1]) : 120;
  workload::SynthParams params;
  params.num_loops = nloops;
  const workload::Suite suite = workload::PerfectSynthetic(params);

  const char* configs[] = {
      "S128",        "S64",         "S32",         "1C64S32/3-2",
      "1C32S64/4-2", "2C64/1-1",    "2C32/1-1",    "2C64S32/2-1",
      "2C32S32/3-1", "4C64/1-1",    "4C32/1-1",    "4C32S16/1-1",
      "4C16S16/2-1", "8C32S16/1-1", "8C16S16/1-1", "4C16S64/2-1",
      "8C16S32/1-1"};

  // One batch schedules every (organization, loop) pair.
  std::vector<Point> points;
  std::vector<MachineConfig> machines;
  std::vector<service::BatchRequest> requests;
  for (const char* name : configs) {
    MachineConfig m = MachineConfig::WithRF(RFConfig::Parse(name));
    const hw::Characterization c =
        hw::Characterize(m, hw::RFModelMode::kPaperTable);
    m = hw::ApplyCharacterization(m, hw::RFModelMode::kPaperTable);
    Point p;
    p.name = name;
    p.area = c.total_area_mlambda2;
    p.clock = c.clock_ns;
    points.push_back(p);
    machines.push_back(m);
    for (size_t i = 0; i < suite.size(); ++i) {
      service::BatchRequest req;
      // Non-owning alias: the suite outlives the batch.
      req.loop = std::shared_ptr<const workload::Loop>(
          std::shared_ptr<const void>(), &suite[i]);
      req.machine = m;
      requests.push_back(std::move(req));
    }
  }
  const service::BatchReport report =
      service::RunBatch(requests, service::ServiceConfig{});
  for (size_t c = 0; c < points.size(); ++c) {
    std::vector<perf::LoopMetrics> loops;
    for (size_t i = 0; i < suite.size(); ++i) {
      loops.push_back(perf::MetricsFromResult(
          suite[i], report.items[c * suite.size() + i].result));
    }
    const perf::SuiteMetrics sm = perf::Aggregate(loops);
    points[c].cycles = static_cast<double>(sm.ExecCycles());
    points[c].time = points[c].cycles * points[c].clock;
  }

  // Pareto front on (time, area), both minimized.
  for (Point& p : points) {
    p.pareto = true;
    for (const Point& q : points) {
      if (q.time <= p.time && q.area <= p.area &&
          (q.time < p.time || q.area < p.area)) {
        p.pareto = false;
        break;
      }
    }
  }

  std::printf("Design space over %d loops (ideal memory):\n\n", nloops);
  std::printf("%-14s %10s %9s %14s %12s %s\n", "config", "area Ml^2",
              "clock ns", "cycles", "time (ms)", "pareto");
  for (const Point& p : points) {
    std::printf("%-14s %10.2f %9.3f %14.0f %12.4f %s\n", p.name.c_str(),
                p.area, p.clock, p.cycles, p.time * 1e-6,
                p.pareto ? "  *" : "");
  }
  std::printf("\n'*' marks execution-time/area Pareto-optimal organizations."
              "\nHierarchical-clustered configurations should dominate the "
              "front, as in the paper.\n");
  return 0;
}
