// Engine-driver accounting and bookkeeping invariants: the Budget_Ratio
// grant cap boundary, the force-and-eject path never leaving stale
// placements for garbage-collected nodes in a final schedule, and the
// speculative II-racing driver staying bit-identical to the serial walk
// (schedules, stats, failures) under racing, cancellation and batch use.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "core/mirs.h"
#include "ddg/mii.h"
#include "experiment/paper_ref.h"
#include "hwmodel/characterize.h"
#include "io/hcl.h"
#include "service/batch.h"
#include "service/session.h"
#include "workload/suite_cache.h"

namespace hcrf {
namespace {

// The RF organizations of the paper's evaluation plus the hierarchical
// clustered proposal itself — one machine per engine family and port mix.
std::vector<std::string> PaperOrgs() {
  std::vector<std::string> orgs;
  for (const auto& cfg : experiment::kPaperConfigs) orgs.push_back(cfg.name);
  orgs.push_back("4C16S64/2-1");
  return orgs;
}

// Mirrors the manifest/bench construction: paper-notation RF applied to the
// baseline resources, run through the hardware model when register counts
// are bounded.
MachineConfig OrgMachine(const std::string& rf) {
  MachineConfig m = MachineConfig::WithRF(RFConfig::Parse(rf));
  if (!m.rf.UnboundedClusterRegs() && !m.rf.UnboundedSharedRegs()) {
    m = hw::ApplyCharacterization(m, hw::RFModelMode::kPaperTable);
  }
  return m;
}

void ExpectStatsEq(const core::ScheduleStats& a, const core::ScheduleStats& b,
                   const std::string& what) {
  EXPECT_EQ(a.attempts, b.attempts) << what;
  EXPECT_EQ(a.ejections, b.ejections) << what;
  EXPECT_EQ(a.force_places, b.force_places) << what;
  EXPECT_EQ(a.restarts, b.restarts) << what;
  EXPECT_EQ(a.comm_ops, b.comm_ops) << what;
  EXPECT_EQ(a.spill_stores, b.spill_stores) << what;
  EXPECT_EQ(a.spill_loads, b.spill_loads) << what;
  EXPECT_EQ(a.storer_ops, b.storer_ops) << what;
  EXPECT_EQ(a.loadr_ops, b.loadr_ops) << what;
  EXPECT_EQ(a.move_ops, b.move_ops) << what;
  EXPECT_EQ(a.spills_inserted, b.spills_inserted) << what;
  EXPECT_EQ(a.chains_built, b.chains_built) << what;
  EXPECT_EQ(a.chains_undone, b.chains_undone) << what;
  EXPECT_DOUBLE_EQ(a.budget_spent, b.budget_spent) << what;
  EXPECT_DOUBLE_EQ(a.budget_granted, b.budget_granted) << what;
}

TEST(BudgetAccount, GrantClampsToTheCapHeadroom) {
  core::BudgetAccount b;
  b.Start(10.0, 5.0);
  EXPECT_DOUBLE_EQ(b.Grant(3.0), 3.0);  // plenty of headroom
  EXPECT_DOUBLE_EQ(b.Grant(3.0), 2.0);  // clamped: only 2 of 5 remain
  EXPECT_DOUBLE_EQ(b.Grant(3.0), 0.0);  // cap reached
  EXPECT_DOUBLE_EQ(b.granted, 5.0);     // never overshoots grant_cap
  EXPECT_DOUBLE_EQ(b.remaining, 15.0);  // initial 10 + the 5 granted
  b.Spend(1.0);
  EXPECT_DOUBLE_EQ(b.remaining, 14.0);
}

TEST(BudgetAccount, ExactCapGrantThenNothing) {
  core::BudgetAccount b;
  b.Start(0.0, 6.0);
  EXPECT_DOUBLE_EQ(b.Grant(6.0), 6.0);
  EXPECT_DOUBLE_EQ(b.Grant(0.5), 0.0);
  EXPECT_DOUBLE_EQ(b.granted, 6.0);
}

// Regression: on pure clustered organizations, force-placing a Move could
// eject a victim whose ejection cascade dissolved the very chain the Move
// belonged to (comm GC tombstones it) — and the tombstone was then placed
// anyway. The stale placement serialized as a "placement of undefined
// node" that the strict result parser (and so the schedule cache) rejects.
TEST(EngineDriver, NoPlacementsForTombstonedNodes) {
  const workload::Suite& suite = workload::SharedSyntheticSuite();
  const workload::Loop* loop = nullptr;
  for (size_t i = 0; i < suite.size(); ++i) {
    if (suite[i].ddg.name() == "synth-stream-138") loop = &suite[i];
  }
  ASSERT_NE(loop, nullptr);
  const MachineConfig m = hw::ApplyCharacterization(
      MachineConfig::WithRF(RFConfig::Parse("4C32")),
      hw::RFModelMode::kPaperTable);
  const core::ScheduleResult r = core::MirsHC(loop->ddg, m, {});
  ASSERT_TRUE(r.ok);
  for (NodeId v = 0; v < r.graph.NumSlots(); ++v) {
    EXPECT_FALSE(r.schedule.IsScheduled(v) && !r.graph.IsAlive(v))
        << "tombstoned node " << v << " still scheduled";
  }
  // The canonical dump must survive its own strict re-parse bit-exactly —
  // the property every schedule-cache hit depends on.
  const std::string dump = io::DumpResult(r);
  EXPECT_EQ(io::DumpResult(io::ParseResult(dump)), dump);
}

// ---------------------------------------------------------------------------
// Speculative II racing (PR 6)
// ---------------------------------------------------------------------------

// The tentpole guarantee: racing candidate IIs commits exactly what the
// serial escalation walk would have committed — canonical dumps (II, every
// placement, transformed graph, stats block) bit-identical on the full
// kernel corpus across all 16 paper organizations, lazy and eager waves.
TEST(Speculation, BitIdenticalToSerialAcrossKernelCorpusAndPaperOrgs) {
  const workload::Suite& kernels = workload::SharedKernelSuite();
  for (const std::string& rf : PaperOrgs()) {
    const MachineConfig m = OrgMachine(rf);
    for (size_t i = 0; i < kernels.size(); ++i) {
      const std::string what = rf + " / " + kernels[i].ddg.name();
      core::MirsOptions serial;
      core::MirsOptions spec;
      spec.speculate_k = 4;
      spec.speculate_eager = (i % 2) == 0;
      const core::ScheduleResult a = core::MirsHC(kernels[i].ddg, m, serial);
      const core::ScheduleResult b = core::MirsHC(kernels[i].ddg, m, spec);
      ASSERT_EQ(a.ok, b.ok) << what;
      ExpectStatsEq(a.stats, b.stats, what);
      if (a.ok) {
        EXPECT_EQ(io::DumpResult(a), io::DumpResult(b)) << what;
      }
      // Telemetry is the speculative driver's own, never merged into the
      // serial-equivalent stats.
      EXPECT_EQ(a.spec.raced, 0) << what;
    }
  }
}

// Failure path: when no II up to max_ii admits a schedule, the speculative
// driver must report the same failure with the same accumulated counters
// (every candidate of the serial walk attempted, none beyond).
TEST(Speculation, FailurePathStatsMatchSerial) {
  const workload::Suite& kernels = workload::SharedKernelSuite();
  const MachineConfig m = OrgMachine("4C16S64/2-1");
  int exercised = 0;
  for (size_t i = 0; i < kernels.size(); ++i) {
    const core::ScheduleResult probe = core::MirsHC(kernels[i].ddg, m, {});
    ASSERT_TRUE(probe.ok);
    if (probe.ii == probe.mii) continue;  // needs a real escalation walk
    core::MirsOptions serial;
    serial.max_ii = probe.ii - 1;  // every candidate must now fail
    core::MirsOptions spec = serial;
    spec.speculate_k = 4;
    spec.speculate_eager = true;
    const core::ScheduleResult a = core::MirsHC(kernels[i].ddg, m, serial);
    const core::ScheduleResult b = core::MirsHC(kernels[i].ddg, m, spec);
    const std::string what = kernels[i].ddg.name();
    ASSERT_FALSE(a.ok) << what;
    ASSERT_FALSE(b.ok) << what;
    EXPECT_EQ(a.mii, b.mii) << what;
    ExpectStatsEq(a.stats, b.stats, what);
    EXPECT_GT(b.spec.raced, 0) << what;
    ++exercised;
  }
  // The hierarchical proposal's kernel runs are ejection-heavy; at least
  // one loop must escalate past its MII or this test checks nothing.
  EXPECT_GT(exercised, 0);
}

// Commits a cancellation token the moment a node is ejected: the attempt
// is then mid-ejection-cascade by construction when the cancellation lands.
class CommitOnEject final : public core::EventSink {
 public:
  explicit CommitOnEject(core::SpeculationToken& token) : token_(token) {}
  void OnEvent(core::SchedEvent e, NodeId, int) override {
    if (e == core::SchedEvent::kNodeEjected) token_.Commit(0);
  }

 private:
  core::SpeculationToken& token_;
};

// Cancellation stress: abort an attempt in the middle of an ejection
// cascade, then reuse the very same context — it must behave exactly like
// a fresh one (TryII resets everything the cascade half-mutated).
TEST(Speculation, CancellationMidEjectionCascadeLeavesContextReusable) {
  const workload::Suite& kernels = workload::SharedKernelSuite();
  const MachineConfig m = OrgMachine("4C16S64/2-1");
  const core::HrmsOrderPolicy ordering;
  const sched::LatencyOverrides no_overrides;
  core::MirsOptions plain;
  int exercised = 0;
  for (size_t i = 0; i < kernels.size(); ++i) {
    const DDG& ddg = kernels[i].ddg;
    const MIIInfo mii = ComputeMII(ddg, m);
    const std::vector<NodeId> order = ordering.Order(ddg, m);
    // Reference attempt: does this loop's first II eject at all?
    core::AttemptContext fresh(ddg, m, plain, no_overrides, order);
    const core::AttemptStatus want = fresh.TryII(mii.MII());
    if (fresh.instr().stats().ejections == 0) continue;
    const std::string what = ddg.name();

    core::SpeculationToken token;
    CommitOnEject sink(token);
    core::MirsOptions with_sink;
    with_sink.event_sink = &sink;
    core::AttemptContext ctx(ddg, m, with_sink, no_overrides, order);
    // Commit(0) on the first ejection beats any real II, so the attempt
    // must abort inside the cascade instead of finishing.
    ASSERT_EQ(ctx.TryII(mii.MII(), &token), core::AttemptStatus::kCancelled)
        << what;

    // Reuse after cancellation: same status, same per-attempt counters,
    // same schedule as an untouched context.
    ctx.instr().ResetStats();
    EXPECT_EQ(ctx.TryII(mii.MII()), want) << what;
    ExpectStatsEq(ctx.instr().stats(), fresh.instr().stats(), what);
    if (want == core::AttemptStatus::kScheduled) {
      // Re-run `fresh` too: Finalize moves the graph out, so both sides
      // must come from the TryII just before their Finalize.
      fresh.instr().ResetStats();
      ASSERT_EQ(fresh.TryII(mii.MII()), core::AttemptStatus::kScheduled);
      EXPECT_EQ(io::DumpResult(ctx.Finalize(mii, mii.MII())),
                io::DumpResult(fresh.Finalize(mii, mii.MII())))
          << what;
    }
    ++exercised;
  }
  EXPECT_GT(exercised, 0);
}

// Real races cancel nondeterministically (timing decides which losing
// attempts die mid-cascade); the committed result must not care. Hammer an
// ejection-heavy case with eager racing and require one canonical answer.
TEST(Speculation, RepeatedEagerRacesAreDeterministic) {
  const workload::Suite& kernels = workload::SharedKernelSuite();
  const MachineConfig m = OrgMachine("4C32/1-1");
  core::MirsOptions spec;
  spec.speculate_k = 4;
  spec.speculate_eager = true;
  for (size_t i = 0; i < kernels.size() && i < 4; ++i) {
    const core::ScheduleResult serial = core::MirsHC(kernels[i].ddg, m, {});
    ASSERT_TRUE(serial.ok);
    const std::string want = io::DumpResult(serial);
    for (int round = 0; round < 6; ++round) {
      const core::ScheduleResult r = core::MirsHC(kernels[i].ddg, m, spec);
      ASSERT_TRUE(r.ok);
      EXPECT_EQ(io::DumpResult(r), want)
          << kernels[i].ddg.name() << " round " << round;
    }
  }
}

// Regression for the nested-parallelism deadlock: a 1-thread batch runs
// serially on the caller while each request races on the WorkerPool. This
// must complete (not deadlock) and match the serial batch bit for bit; a
// parallel batch (lanes on pool workers opening nested racing fan-outs on
// the same pool) must too.
TEST(Speculation, RacesInsideSingleThreadAndParallelBatches) {
  const workload::Suite& kernels = workload::SharedKernelSuite();
  const MachineConfig m = OrgMachine("4C16S64/2-1");
  std::vector<service::BatchRequest> reqs;
  for (size_t i = 0; i < kernels.size() && i < 6; ++i) {
    service::BatchRequest req;
    req.loop = std::make_shared<workload::Loop>(kernels[i]);
    req.id = kernels[i].ddg.name();
    req.machine = m;
    reqs.push_back(std::move(req));
  }
  service::ServiceConfig serial_opt;
  serial_opt.threads = 1;
  service::ServiceConfig spec1_opt = serial_opt;
  spec1_opt.speculate_k = 4;
  spec1_opt.speculate_eager = true;
  service::ServiceConfig spec2_opt = spec1_opt;
  spec2_opt.threads = 2;

  const service::BatchReport a = service::RunBatch(reqs, serial_opt);
  const service::BatchReport b = service::RunBatch(reqs, spec1_opt);
  const service::BatchReport c = service::RunBatch(reqs, spec2_opt);
  ASSERT_EQ(a.items.size(), reqs.size());
  ASSERT_EQ(b.items.size(), reqs.size());
  ASSERT_EQ(c.items.size(), reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_TRUE(a.items[i].ok) << reqs[i].id;
    ASSERT_TRUE(b.items[i].ok) << reqs[i].id;
    ASSERT_TRUE(c.items[i].ok) << reqs[i].id;
    const std::string want = io::DumpResult(a.items[i].result);
    EXPECT_EQ(io::DumpResult(b.items[i].result), want) << reqs[i].id;
    EXPECT_EQ(io::DumpResult(c.items[i].result), want) << reqs[i].id;
  }
}

// Regression for the PR 6 restriction that an attached event sink forced
// the serial path: racing attempts now capture their callbacks privately
// and the driver replays them in escalation order after each wave, so the
// sink observes the exact serial sequence — same events, same order, same
// (node, ii) payloads, on a single thread — while racing still happens.
TEST(Speculation, EventSinkComposesWithRacing) {
  class RecordingSink final : public core::EventSink {
   public:
    void OnEvent(core::SchedEvent e, NodeId n, int ii) override {
      events.push_back({e, n, ii});
    }
    std::vector<std::tuple<core::SchedEvent, NodeId, int>> events;
  };
  const workload::Suite& kernels = workload::SharedKernelSuite();
  // Ejection-heavy organization so the walk escalates (several waves) and
  // the replayed stream includes restarts, not just one attempt's events.
  const MachineConfig m = OrgMachine("4C32/1-1");
  int raced_total = 0;
  for (size_t i = 0; i < kernels.size() && i < 6; ++i) {
    const std::string what = kernels[i].ddg.name();
    RecordingSink serial_sink;
    core::MirsOptions serial;
    serial.event_sink = &serial_sink;
    RecordingSink spec_sink;
    core::MirsOptions spec;
    spec.speculate_k = 4;
    spec.speculate_eager = true;
    spec.event_sink = &spec_sink;
    const core::ScheduleResult a = core::MirsHC(kernels[i].ddg, m, serial);
    const core::ScheduleResult b = core::MirsHC(kernels[i].ddg, m, spec);
    ASSERT_TRUE(a.ok) << what;
    ASSERT_TRUE(b.ok) << what;
    EXPECT_EQ(io::DumpResult(b), io::DumpResult(a)) << what;
    EXPECT_GT(serial_sink.events.size(), 0u) << what;
    EXPECT_EQ(spec_sink.events, serial_sink.events) << what;
    raced_total += b.spec.raced;
  }
  // The point of the regression test: the sink no longer disables racing.
  EXPECT_GT(raced_total, 0);
}

}  // namespace
}  // namespace hcrf
