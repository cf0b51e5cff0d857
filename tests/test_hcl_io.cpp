// .hcl serialization: canonical round-trips (dump -> parse -> dump is
// byte-identical), faithful reconstruction including tombstones, and
// strict line-numbered rejection of malformed input.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/mirs.h"
#include "hwmodel/characterize.h"
#include "io/hcl.h"
#include "perf/dual_hash.h"
#include "service/cache_tier.h"
#include "workload/kernels.h"
#include "workload/perfect_synth.h"
#include "workload/suite_cache.h"

namespace hcrf {
namespace {

TEST(HclLoop, KernelRoundTripsAreByteIdentical) {
  for (const workload::Loop& loop : workload::SharedKernelSuite().loops()) {
    const std::string once = io::DumpLoop(loop);
    const workload::Loop back = io::ParseLoop(once, loop.ddg.name());
    EXPECT_EQ(once, io::DumpLoop(back)) << loop.ddg.name();
    EXPECT_EQ(loop.trip, back.trip);
    EXPECT_EQ(loop.invocations, back.invocations);
    EXPECT_EQ(loop.ddg.NumNodes(), back.ddg.NumNodes());
    EXPECT_EQ(loop.ddg.NumEdges(), back.ddg.NumEdges());
    EXPECT_EQ(loop.ddg.num_invariants(), back.ddg.num_invariants());
  }
}

TEST(HclLoop, SyntheticSliceRoundTrips) {
  const workload::Suite slice =
      workload::SuiteSlice(workload::SharedSyntheticSuite(), 25);
  ASSERT_GT(slice.size(), 0u);
  for (const workload::Loop& loop : slice.loops()) {
    const std::string once = io::DumpLoop(loop);
    EXPECT_EQ(once, io::DumpLoop(io::ParseLoop(once))) << loop.ddg.name();
  }
}

TEST(HclLoop, TombstonesSurviveTheRoundTrip) {
  workload::Loop loop = workload::MakeDaxpy();
  DDG& g = loop.ddg;
  Node helper;
  helper.op = OpClass::kMove;
  helper.inserted = true;
  const NodeId a = g.AddNode(helper);
  const NodeId b = g.AddNode(helper);
  g.AddFlow(a, b);
  g.RemoveNode(a);  // tombstone in the middle of the id space

  const std::string once = io::DumpLoop(loop);
  const workload::Loop back = io::ParseLoop(once);
  EXPECT_EQ(g.NumSlots(), back.ddg.NumSlots());
  EXPECT_EQ(g.NumNodes(), back.ddg.NumNodes());
  EXPECT_FALSE(back.ddg.IsAlive(a));
  EXPECT_TRUE(back.ddg.IsAlive(b));
  EXPECT_TRUE(back.ddg.node(b).inserted);
  EXPECT_EQ(once, io::DumpLoop(back));
}

TEST(HclLoop, WhitespaceInNamesIsSanitizedToKeepDumpsParsable) {
  workload::Loop loop = workload::MakeDaxpy();
  loop.ddg.set_name("my loop\t1");
  const std::string once = io::DumpLoop(loop);
  const workload::Loop back = io::ParseLoop(once);
  EXPECT_EQ(back.ddg.name(), "my_loop_1");
  EXPECT_EQ(once, io::DumpLoop(back));
}

TEST(HclMachine, RoundTripPreservesEveryField) {
  for (const char* name : {"S128", "4C32/1-1", "1C64S64/4-2", "4C16S64/2-1"}) {
    MachineConfig m = MachineConfig::WithRF(RFConfig::Parse(name));
    m = hw::ApplyCharacterization(m, hw::RFModelMode::kPaperTable);
    const std::string once = io::DumpMachine(m);
    const MachineConfig back = io::ParseMachine(once, name);
    EXPECT_EQ(m.num_fus, back.num_fus);
    EXPECT_EQ(m.num_mem_ports, back.num_mem_ports);
    EXPECT_EQ(m.rf, back.rf);
    EXPECT_EQ(m.lat, back.lat);
    EXPECT_EQ(m.clock_ns, back.clock_ns);  // bit-exact via shortest repr
    EXPECT_EQ(once, io::DumpMachine(back));
  }
}

TEST(HclMachine, AcceptsPaperNotationRfNames) {
  const MachineConfig m = io::ParseMachine(
      "hcl 1 machine\nrf name 4C16S64\nend\n", "<test>");
  EXPECT_EQ(m.rf.clusters, 4);
  EXPECT_EQ(m.rf.cluster_regs, 16);
  EXPECT_EQ(m.rf.shared_regs, 64);
}

TEST(HclOptions, RoundTrips) {
  core::MirsOptions opt;
  opt.budget_ratio = 3.25;
  opt.max_ii = 512;
  opt.iterative = false;
  opt.cluster_policy = core::ClusterPolicy::kRoundRobin;
  const std::string once = io::DumpOptions(opt);
  const core::MirsOptions back = io::ParseOptions(once);
  EXPECT_EQ(back.budget_ratio, 3.25);
  EXPECT_EQ(back.max_ii, 512);
  EXPECT_FALSE(back.iterative);
  EXPECT_EQ(back.cluster_policy, core::ClusterPolicy::kRoundRobin);
  EXPECT_EQ(once, io::DumpOptions(back));
}

TEST(HclResult, ScheduleResultRoundTripsBitIdentically) {
  const MachineConfig m = MachineConfig::WithRF(RFConfig::Parse("4C16S64/2-1"));
  for (const workload::Loop& loop :
       {workload::MakeDaxpy(), workload::MakeHydro(), workload::MakeNorm2()}) {
    const core::ScheduleResult r = core::MirsHC(loop.ddg, m);
    ASSERT_TRUE(r.ok) << loop.ddg.name();
    const std::string once = io::DumpResult(r);
    const core::ScheduleResult back = io::ParseResult(once);
    EXPECT_EQ(once, io::DumpResult(back)) << loop.ddg.name();
    EXPECT_EQ(r.ii, back.ii);
    EXPECT_EQ(r.sc, back.sc);
    EXPECT_EQ(r.mii, back.mii);
    EXPECT_EQ(r.bound, back.bound);
    EXPECT_EQ(r.stats.attempts, back.stats.attempts);
    EXPECT_EQ(r.stats.budget_spent, back.stats.budget_spent);
    EXPECT_EQ(r.schedule.ii(), back.schedule.ii());
    EXPECT_EQ(r.schedule.NumScheduled(), back.schedule.NumScheduled());
    for (NodeId v = 0; v < r.graph.NumSlots(); ++v) {
      ASSERT_EQ(r.schedule.IsScheduled(v), back.schedule.IsScheduled(v));
      if (r.schedule.IsScheduled(v)) {
        EXPECT_EQ(r.schedule.CycleOf(v), back.schedule.CycleOf(v));
        EXPECT_EQ(r.schedule.ClusterOf(v), back.schedule.ClusterOf(v));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Malformed input: every rejection carries the offending line number.
// ---------------------------------------------------------------------------

int LineOfFailure(const std::string& text) {
  try {
    io::ParseLoop(text, "<test>");
  } catch (const io::HclError& e) {
    EXPECT_NE(std::string(e.what()).find("<test>:"), std::string::npos);
    return e.line();
  }
  return -1;  // no error raised
}

TEST(HclErrors, BadVersionIsRejected) {
  EXPECT_EQ(LineOfFailure("hcl 99 loop\nend\n"), 1);
}

TEST(HclErrors, BadMagicIsRejected) {
  EXPECT_EQ(LineOfFailure("xml 1 loop\nend\n"), 1);
}

TEST(HclErrors, WrongKindIsRejected) {
  EXPECT_EQ(LineOfFailure("hcl 1 machine\nend\n"), 1);
}

TEST(HclErrors, UnknownOpClassIsRejectedWithItsLine) {
  const std::string text =
      "hcl 1 loop\nslots 2\nnode 0 fadd\nnode 1 bogus\nend\n";
  EXPECT_EQ(LineOfFailure(text), 4);
  try {
    io::ParseLoop(text, "<test>");
    FAIL() << "expected HclError";
  } catch (const io::HclError& e) {
    EXPECT_NE(e.message().find("unknown op class 'bogus'"),
              std::string::npos);
  }
}

TEST(HclErrors, DanglingEdgeIsRejectedWithItsLine) {
  EXPECT_EQ(
      LineOfFailure("hcl 1 loop\nslots 2\nnode 0 fadd\nnode 1 fadd\n"
                    "edge 0 7 flow 0\nend\n"),
      5);
  // An edge to a declared-but-undefined (tombstoned) slot is dangling too.
  EXPECT_EQ(LineOfFailure("hcl 1 loop\nslots 3\nnode 0 fadd\nnode 1 fadd\n"
                          "edge 0 2 flow 0\nend\n"),
            5);
}

TEST(HclErrors, DuplicateNodeIdIsRejected) {
  EXPECT_EQ(
      LineOfFailure("hcl 1 loop\nslots 2\nnode 0 fadd\nnode 0 fmul\nend\n"),
      4);
}

TEST(HclErrors, ZeroDistanceSelfEdgeIsRejected) {
  EXPECT_EQ(LineOfFailure(
                "hcl 1 loop\nslots 1\nnode 0 fadd\nedge 0 0 flow 0\nend\n"),
            4);
}

TEST(HclErrors, ZeroDistanceCycleIsRejectedAtAnEdgeOnIt) {
  // 1 -> 2 -> 1 closes at distance 0: no schedule can order it. The error
  // names a node on the cycle at the line of the cycle's edge into it.
  const std::string text =
      "hcl 1 loop\nslots 4\nnode 0 load\nnode 1 fadd\nnode 2 fmul\n"
      "node 3 store\nedge 0 1 flow 0\nedge 1 2 flow 0\nedge 2 1 mem 0\n"
      "edge 2 3 flow 0\nedge 3 0 mem 1\nend\n";
  EXPECT_EQ(LineOfFailure(text), 9);
  try {
    io::ParseLoop(text, "<test>");
    FAIL() << "expected HclError";
  } catch (const io::HclError& e) {
    EXPECT_NE(
        e.message().find("zero-distance dependence cycle through node 1"),
        std::string::npos)
        << e.message();
  }
  // The same cycle carried by one iteration is a recurrence, and legal.
  EXPECT_NO_THROW(io::ParseLoop(
      "hcl 1 loop\nslots 2\nnode 0 fadd\nnode 1 fadd\nedge 0 1 flow 0\n"
      "edge 1 0 flow 1\nend\n"));
}

TEST(HclErrors, UnknownDependenceKindIsRejected) {
  EXPECT_EQ(LineOfFailure("hcl 1 loop\nslots 2\nnode 0 fadd\nnode 1 fadd\n"
                          "edge 0 1 sideways 0\nend\n"),
            5);
}

TEST(HclErrors, MissingEndIsRejected) {
  EXPECT_GT(LineOfFailure("hcl 1 loop\nslots 1\nnode 0 fadd\n"), 0);
}

TEST(HclErrors, ContentAfterEndIsRejected) {
  EXPECT_EQ(LineOfFailure("hcl 1 loop\nslots 0\nend\nslots 1\n"), 4);
}

TEST(HclErrors, UnknownDirectiveIsRejected) {
  EXPECT_EQ(LineOfFailure("hcl 1 loop\nfrobnicate 3\nend\n"), 2);
}

TEST(HclErrors, NodeBeforeSlotsIsRejected) {
  EXPECT_EQ(LineOfFailure("hcl 1 loop\nnode 0 fadd\nslots 1\nend\n"), 2);
}

// A node line may list its invariant uses in more than one `inv` group;
// the groups concatenate in order.
TEST(HclLoop, RepeatedInvGroupsConcatenate) {
  const workload::Loop loop = io::ParseLoop(
      "hcl 1 loop\ninvariants 3\nslots 2\nnode 0 fmul inv 1 2 inv 2 0 1\n"
      "node 1 fadd inv 1 1\nend\n");
  const std::span<const std::int32_t> uses = loop.ddg.InvariantUses(0);
  EXPECT_EQ(std::vector<std::int32_t>(uses.begin(), uses.end()),
            (std::vector<std::int32_t>{2, 0, 1}));
  EXPECT_EQ(loop.ddg.InvariantUses(1).size(), 1u);
}

TEST(HclErrors, CommentsAndBlankLinesAreIgnored) {
  const workload::Loop loop = io::ParseLoop(
      "# a hand-written file\nhcl 1 loop\n\nslots 1\n# mid comment\n"
      "node 0 fadd\nend\n");
  EXPECT_EQ(loop.ddg.NumNodes(), 1);
}

// ---------------------------------------------------------------------------
// Pinned writer output and corpus canonicality.
// ---------------------------------------------------------------------------

const std::vector<std::string>& PaperOrganizations() {
  static const std::vector<std::string> orgs = {
      "S128", "4C32", "1C64S64", "2C32S64", "4C16S64", "8C8S64"};
  return orgs;
}

MachineConfig PaperMachine(const std::string& org) {
  return hw::ApplyCharacterization(MachineConfig::WithRF(RFConfig::Parse(org)),
                                   hw::RFModelMode::kPaperTable);
}

// Digests of every writer's output over a fixed seeded PerfectSynthetic
// slice on the six paper organizations. Any byte a writer changes shows
// here. A digest moves with kHclVersion when a line's grammar or meaning
// changes, and alone when only the order of lines does (as when edges
// went from per-source order to insertion order).
TEST(HclGolden, WriterOutputIsPinned) {
  workload::SynthParams params;
  params.seed = 15;
  params.num_loops = 12;
  const workload::Suite slice = workload::PerfectSynthetic(params);
  ASSERT_EQ(slice.size(), 12u);

  std::string loops;
  for (const workload::Loop& loop : slice.loops()) loops += io::DumpLoop(loop);

  std::string machines;
  std::string results;
  for (const std::string& org : PaperOrganizations()) {
    const MachineConfig m = PaperMachine(org);
    machines += io::DumpMachine(m);
    for (const workload::Loop& loop : slice.loops()) {
      results += io::DumpResult(core::MirsHC(loop.ddg, m));
    }
  }
  // Override lines only appear when a schedule used latency overrides.
  const workload::Loop daxpy = workload::MakeDaxpy();
  sched::LatencyOverrides overrides;
  overrides.producer_latency.assign(
      static_cast<size_t>(daxpy.ddg.NumSlots()), 0);
  overrides.producer_latency[0] = 23;
  results += io::DumpResult(
      core::MirsHC(daxpy.ddg, PaperMachine("4C16S64"), {}, overrides));

  std::string options;
  for (const core::ClusterPolicy policy :
       {core::ClusterPolicy::kBalanced, core::ClusterPolicy::kRoundRobin,
        core::ClusterPolicy::kFirstFit}) {
    for (const double budget : {6.0, 0.1, 3.25, 1e-7, 12345.678}) {
      core::MirsOptions opt;
      opt.cluster_policy = policy;
      opt.budget_ratio = budget;
      opt.max_ii = budget < 1 ? 7 : 2048;
      opt.iterative = budget != 0.1;
      options += io::DumpOptions(opt);
    }
  }

  EXPECT_EQ(perf::Fnv1a(loops), 0x0fc3574dd448334eull) << loops.size();
  EXPECT_EQ(perf::Fnv1a(machines), 0xf0c2c2ba1a7db7f2ull) << machines.size();
  EXPECT_EQ(perf::Fnv1a(results), 0x780f4c698066122full) << results.size();
  EXPECT_EQ(perf::Fnv1a(options), 0x29a42e82cf2ef5a6ull) << options.size();
}

// A loop and its own .hcl round trip share one cache key, so they must
// schedule alike, or whichever fills the cache first decides what later
// hits return. Checks kernels + the first `synth_loops` synthetic loops on
// the paper organizations plus three register-bounded ones: per cell, the
// original and its round trip must have equal keys and equal result dumps.
void ExpectRoundTripsScheduleAlike(std::size_t synth_loops) {
  std::vector<const workload::Loop*> loops;
  const workload::Suite& kernels = workload::SharedKernelSuite();
  for (std::size_t i = 0; i < kernels.size(); ++i) loops.push_back(&kernels[i]);
  const workload::Suite& synth = workload::SharedSyntheticSuite();
  for (std::size_t i = 0; i < synth.size() && i < synth_loops; ++i) {
    loops.push_back(&synth[i]);
  }
  std::vector<std::string> orgs = PaperOrganizations();
  orgs.insert(orgs.end(), {"S64", "4C32/1-1", "4C16S64/2-1"});
  const core::MirsOptions opt;
  int cells = 0;
  int mismatches = 0;
  for (const std::string& org : orgs) {
    const MachineConfig m = PaperMachine(org);
    for (const workload::Loop* loop : loops) {
      const workload::Loop back = io::ParseLoop(io::DumpLoop(*loop));
      ++cells;
      const bool same_key = service::MakeCacheKey(loop->ddg, m, opt) ==
                            service::MakeCacheKey(back.ddg, m, opt);
      const bool same_result = io::DumpResult(core::MirsHC(loop->ddg, m)) ==
                               io::DumpResult(core::MirsHC(back.ddg, m));
      EXPECT_TRUE(same_key) << loop->ddg.name() << " on " << org;
      EXPECT_TRUE(same_result) << loop->ddg.name() << " on " << org;
      if (!same_key || !same_result) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << cells << " cells";
}

TEST(HclRoundTrip, LoopsScheduleLikeTheirRoundTrip) {
  ExpectRoundTripsScheduleAlike(64);
}

// The same check over the whole kernel and synthetic suites (11,430 cells,
// about 10 s in Release). Disabled in ctest; CI's round-trip job runs it
// with --gtest_also_run_disabled_tests.
TEST(HclRoundTrip, DISABLED_FullSuitesScheduleLikeTheirRoundTrip) {
  ExpectRoundTripsScheduleAlike(workload::SharedSyntheticSuite().size());
}

// Every checked-in corpus loop is already canonical: parsing and dumping
// it again reproduces the file byte for byte.
TEST(HclLoop, CorpusFilesAreCanonical) {
  namespace fs = std::filesystem;
  int files = 0;
  for (const char* sub : {"kernels", "synth"}) {
    for (const fs::directory_entry& e :
         fs::directory_iterator(fs::path(HCRF_CORPUS_DIR) / sub)) {
      if (e.path().extension() != ".hcl") continue;
      const std::string text = io::ReadFile(e.path().string());
      EXPECT_EQ(io::DumpLoop(io::ParseLoop(text, e.path().string())), text)
          << e.path();
      ++files;
    }
  }
  EXPECT_EQ(files, 28);
}

// ---------------------------------------------------------------------------
// Parser strictness: truncations and hand-edited (noisy) documents.
// ---------------------------------------------------------------------------

// One small hand-written document of each kind, in canonical form.
struct Doc {
  const char* kind;
  std::string text;
  /// A line edit whose error is only found at the closing 'end'/edge.
  std::string late_from = {};
  std::string late_to = {};
};

std::vector<Doc> SampleDocs() {
  return {
      {"loop",
       "hcl 1 loop\ntrip 100\ninvocations 3\nname t\ninvariants 1\n"
       "slots 4\nnode 0 load mem 0 0 8\nnode 1 fmul inv 1 0\n"
       "node 3 store mem 1 16 8\nedge 0 1 flow 0\nedge 1 3 flow 0\n"
       "edge 3 0 mem 1\nend\n",
       "edge 1 3 flow 0", "edge 1 2 flow 0"},
      {"machine",
       "hcl 1 machine\nfus 4\nmem_ports 2\n"
       "rf clusters 4 cregs 16 sregs 64 lp 2 sp 1 buses 2\nclock_ns 1.25\n"
       "lat fadd 4 fmul 4 fdiv 17 fsqrt 30 load_hit 2 store 1 load_miss 20 "
       "move 1 loadr 1 storer 1\nend\n",
       "fus 4", "fus 0"},
      {"options",
       "hcl 1 options\nbudget_ratio 6\nmax_ii 2048\niterative 1\n"
       "cluster_policy balanced\nend\n",
       "cluster_policy balanced", "cluster_policy sideways"},
      {"result",
       "hcl 1 result\nok 1\nii 2\nsc 3\nmii 2\nres_mii 2\nrec_mii 1\n"
       "bound FU\nmem_ops_per_iter 2\n"
       "stats attempts 5 ejections 0 force_places 0 restarts 0 comm_ops 1 "
       "spill_stores 0 spill_loads 0 storer_ops 0 loadr_ops 0 move_ops 1 "
       "spills_inserted 0 chains_built 1 chains_undone 0 budget_spent 5 "
       "budget_granted 18\noverrides 3\noverride 0 9\ngraph\nname t\n"
       "invariants 0\nslots 3\nnode 0 load mem 0 0 8\n"
       "node 1 move inserted\nnode 2 store mem 1 0 8\nedge 0 1 flow 0\n"
       "edge 1 2 flow 0\nendgraph\nschedule 2\nplace 0 0 0 0\n"
       "place 1 2 1 0\nplace 2 3 1 1\nend\n",
       "place 2 3 1 1", "place 7 3 1 1"},
  };
}

void ParseDoc(std::string_view kind, std::string_view text) {
  if (kind == "loop") {
    (void)io::ParseLoop(text, "<test>");
  } else if (kind == "machine") {
    (void)io::ParseMachine(text, "<test>");
  } else if (kind == "options") {
    (void)io::ParseOptions(text, "<test>");
  } else {
    (void)io::ParseResult(text, "<test>");
  }
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t begin = 0;
  while (begin < text.size()) {
    const size_t nl = text.find('\n', begin);
    lines.push_back(text.substr(begin, nl - begin));
    begin = nl + 1;
  }
  return lines;
}

TEST(HclStrictness, SampleDocumentsParse) {
  for (const Doc& doc : SampleDocs()) {
    EXPECT_NO_THROW(ParseDoc(doc.kind, doc.text)) << doc.kind;
  }
}

TEST(HclStrictness, EveryProperLinePrefixIsRejected) {
  std::vector<Doc> docs = SampleDocs();
  const workload::Loop hydro = workload::MakeHydro();
  const MachineConfig m = PaperMachine("4C16S64");
  docs.push_back({"loop", io::DumpLoop(hydro)});
  docs.push_back({"machine", io::DumpMachine(m)});
  docs.push_back({"options", io::DumpOptions(core::MirsOptions{})});
  docs.push_back({"result", io::DumpResult(core::MirsHC(hydro.ddg, m))});
  for (const Doc& doc : docs) {
    ASSERT_NO_THROW(ParseDoc(doc.kind, doc.text)) << doc.kind;
    size_t end = 0;  // the prefix holds every line before `end`
    while (end < doc.text.size()) {
      const std::string prefix = doc.text.substr(0, end);
      EXPECT_THROW(ParseDoc(doc.kind, prefix), io::HclError)
          << doc.kind << " prefix of " << prefix.size() << " bytes";
      end = doc.text.find('\n', end) + 1;
    }
  }
}

// Re-renders document lines the way a hand edit might: comment, blank and
// whitespace-only lines between directives, tab separators, CRLF ends.
std::string Noisy(const std::vector<std::string>& lines) {
  std::string out = "# hand-edited\r\n\r\n";
  for (size_t i = 0; i < lines.size(); ++i) {
    for (char c : lines[i]) {
      if (c == ' ') {
        out += i % 2 == 0 ? "\t" : " \t ";
      } else {
        out += c;
      }
    }
    out += "\r\n";
    if (i % 3 == 0) out += "  # note\r\n";
    if (i % 3 == 1) out += "\t\r\n";
  }
  return out;
}

std::string ErrorOf(std::string_view kind, const std::string& text) {
  try {
    ParseDoc(kind, text);
  } catch (const io::HclError& e) {
    return e.what();
  }
  return "<no error>";
}

// The messages and 1-based line numbers below were recorded from the
// two-pass tokenizer that preceded the single-pass scanner; blank,
// comment and whitespace-only lines count, CR and tabs separate tokens.
TEST(HclStrictness, NoisyDocumentsKeepTheirErrorLines) {
  std::vector<std::string> got;
  for (const Doc& doc : SampleDocs()) {
    const std::vector<std::string> lines = Lines(doc.text);
    const size_t mid = lines.size() / 2;
    got.push_back(ErrorOf(doc.kind, Noisy(lines)));

    std::vector<std::string> edited = lines;
    edited[mid] = "bogus " + edited[mid];
    got.push_back(ErrorOf(doc.kind, Noisy(edited)));

    edited = lines;
    edited[1] = edited[1].substr(0, edited[1].rfind(' ')) + " 7q";
    got.push_back(ErrorOf(doc.kind, Noisy(edited)));

    edited = lines;
    edited.pop_back();
    got.push_back(ErrorOf(doc.kind, Noisy(edited) + "# trailing\r\n\r\n"));

    edited = lines;
    edited.push_back(lines[1]);
    got.push_back(ErrorOf(doc.kind, Noisy(edited)));

    edited = lines;
    edited[0] = "hcl\t1  " + std::string(doc.kind) + " extra";
    got.push_back(ErrorOf(doc.kind, Noisy(edited)));

    edited = lines;
    for (std::string& line : edited) {
      if (line == doc.late_from) line = doc.late_to;
    }
    got.push_back(ErrorOf(doc.kind, Noisy(edited)));
  }
  const std::vector<std::string> want = {
      "<no error>",
      "<test>:13: unknown directive 'bogus'",
      "<test>:5: expected integer for trip, got '7q'",
      "<test>:22: missing 'end'",
      "<test>:25: content after 'end'",
      "<test>:3: expected header 'hcl <version> <kind>'",
      "<test>:20: dangling edge: destination node 2 is not defined",
      "<no error>",
      "<test>:8: unknown directive 'bogus'",
      "<test>:5: expected integer for fus, got '7q'",
      "<test>:12: missing 'end'",
      "<test>:15: content after 'end'",
      "<test>:3: expected header 'hcl <version> <kind>'",
      "<test>:13: invalid machine configuration: num_fus must be positive",
      "<no error>",
      "<test>:8: unknown directive 'bogus'",
      "<test>:5: expected number for budget_ratio, got '7q'",
      "<test>:10: missing 'end'",
      "<test>:13: content after 'end'",
      "<test>:3: expected header 'hcl <version> <kind>'",
      "<test>:10: unknown cluster policy 'sideways'",
      "<no error>",
      "<test>:25: unknown graph directive 'bogus'",
      "<test>:5: expected integer for ok, got '7q'",
      "<test>:45: missing 'end'",
      "<test>:48: content after 'end'",
      "<test>:3: expected header 'hcl <version> <kind>'",
      "<test>:47: placement of undefined node 7"};
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]) << i;
}

// ReadFile returns a file's bytes exactly, whatever they are.
TEST(HclFiles, ReadFileReturnsTheExactBytes) {
  const std::string dir = ::testing::TempDir() + "hcrf-readfile";
  std::filesystem::create_directories(dir);
  std::string big;
  for (int i = 0; i < 100000; ++i) big += static_cast<char>(i * 7 % 251);
  big += std::string("\0\r\n", 3);
  for (const std::string& text : {std::string(), std::string("x"), big}) {
    const std::string path = dir + "/f";
    io::WriteFileAtomic(path, text);
    EXPECT_EQ(io::ReadFile(path), text) << text.size();
  }
  EXPECT_THROW(io::ReadFile(dir + "/missing"), std::runtime_error);
  std::filesystem::remove_all(dir);
}

// Strict whole-token numeric parsing behind the CLI's validated flags:
// std::stoi-style silent truncation ("4abc" -> 4) must be rejected.
TEST(StrictNumbers, TryParseLong) {
  EXPECT_EQ(io::TryParseLong("42"), 42);
  EXPECT_EQ(io::TryParseLong("-7"), -7);
  EXPECT_EQ(io::TryParseLong("0"), 0);
  EXPECT_FALSE(io::TryParseLong("4abc").has_value());
  EXPECT_FALSE(io::TryParseLong("abc").has_value());
  EXPECT_FALSE(io::TryParseLong("4 ").has_value());
  EXPECT_FALSE(io::TryParseLong(" 4").has_value());
  EXPECT_FALSE(io::TryParseLong("").has_value());
  EXPECT_FALSE(io::TryParseLong("4.5").has_value());
  EXPECT_FALSE(io::TryParseLong("99999999999999999999").has_value());
}

TEST(StrictNumbers, TryParseDouble) {
  EXPECT_EQ(io::TryParseDouble("1.5"), 1.5);
  EXPECT_EQ(io::TryParseDouble("-2"), -2.0);
  EXPECT_EQ(io::TryParseDouble("1e3"), 1000.0);
  EXPECT_FALSE(io::TryParseDouble("1.5x").has_value());
  EXPECT_FALSE(io::TryParseDouble("x").has_value());
  EXPECT_FALSE(io::TryParseDouble("").has_value());
  EXPECT_FALSE(io::TryParseDouble("1.5 ").has_value());
}

}  // namespace
}  // namespace hcrf
