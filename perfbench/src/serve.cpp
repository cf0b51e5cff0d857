// serve-hot and serve-contended: an in-process service::Server (memory
// tier over a disk tier in a scratch directory, warmed during set-up) and
// closed loops of service::Client threads against it.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <type_traits>

#include "bench.h"
#include "io/hcl.h"
#include "perf/runner.h"
#include "service/client.h"
#include "service/server.h"
#include "spans.h"
#include "workload/perfect_synth.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using hcrf::core::ScheduleResult;
using hcrf::service::BatchRequest;
using hcrf::workload::Loop;
using LoopPtr = std::shared_ptr<const Loop>;

constexpr int kSetupRepeats = 5;
constexpr int kSeededPoolLoops = 256;  ///< PerfectSynthetic loops per seed.
constexpr int kFreshChunk = 256;       ///< Never-seen loops per generated chunk.
constexpr double kMissShare = 0.05;    ///< serve-hot: share of never-seen items.
constexpr int kHotClients = 2;
constexpr int kDeltaClients = 2;
constexpr int kContendedBatch = 48;    ///< serve-contended batch size.
constexpr int kFreshResident = 2048;   ///< Memory-tier room beyond the pool.

/// A generated loop as the daemon sees it: through the canonical .hcl
/// dump and parse. PerfectSynthetic loops can schedule differently after
/// that round trip although their dump and cache key are unchanged (the
/// parsed graph's internal order differs), so every loop a client submits
/// is canonicalized first and the references schedule the same graph.
Loop Canonical(const Loop& loop) {
  return hcrf::io::ParseLoop(hcrf::io::DumpLoop(loop));
}

/// Loops the daemon has never seen, generated on demand in seeded chunks,
/// so loop i is the same whichever client asks for it first. Only the two
/// newest chunks stay cached (clients claim increasing indices), so memory
/// does not grow with the run's throughput; an evicted chunk regenerates.
class FreshLoops {
 public:
  FreshLoops(std::uint64_t seed, int orgs) : seed_(seed), orgs_(orgs) {}

  /// Claims the next never-seen entry (loop + organization).
  std::pair<long, PoolEntry> Next() {
    const long i = next_.fetch_add(1);
    return {i, Entry(i)};
  }
  PoolEntry Entry(long i) {
    const long chunk = i / kFreshChunk;
    std::shared_ptr<const std::vector<LoopPtr>> loops;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = chunks_.find(chunk);
      if (it != chunks_.end()) {
        loops = it->second;
      } else {
        loops = Generate(chunk);
        if (chunks_.size() >= 2) chunks_.erase(chunks_.begin());
        chunks_.emplace(chunk, loops);
      }
    }
    PoolEntry e;
    e.loop = (*loops)[static_cast<std::size_t>(i % kFreshChunk)];
    e.org = static_cast<int>(Stream::Mix(seed_ + static_cast<std::uint64_t>(i)) %
                             static_cast<std::uint64_t>(orgs_));
    return e;
  }
  long claimed() const { return next_.load(); }

 private:
  std::shared_ptr<const std::vector<LoopPtr>> Generate(long chunk) const {
    hcrf::workload::SynthParams p;
    p.seed = Stream::Mix(seed_ ^ (0xf7e5ull + static_cast<std::uint64_t>(chunk)));
    p.num_loops = kFreshChunk;
    const hcrf::workload::Suite s = hcrf::workload::PerfectSynthetic(p);
    auto loops = std::make_shared<std::vector<LoopPtr>>();
    for (std::size_t k = 0; k < s.size(); ++k) {
      Loop l = s[k];
      l.ddg.set_name("fresh-" + std::to_string(chunk) + "-" +
                     std::to_string(k));
      loops->push_back(std::make_shared<const Loop>(Canonical(l)));
    }
    return loops;
  }

  std::uint64_t seed_;
  int orgs_;
  std::atomic<long> next_{0};
  std::mutex mu_;
  std::map<long, std::shared_ptr<const std::vector<LoopPtr>>> chunks_;
};

/// The warmed daemon and its inputs.
struct Daemon {
  std::vector<MachineConfig> machines;
  std::vector<PoolEntry> pool;
  std::vector<BatchRequest> pool_requests;
  std::vector<std::uint64_t> pool_ref;       ///< Reference dump digests.
  std::vector<ScheduleResult> pool_results;  ///< Cold reference results.
  std::size_t corpus_loops = 0;  ///< The pool's first loops, from corpus/.
  std::string dir;
  std::string socket;
  std::unique_ptr<hcrf::service::Server> server;
  std::thread serve_thread;

  void Stop() {
    if (server == nullptr) return;
    server->RequestStop();
    if (serve_thread.joinable()) serve_thread.join();
    server.reset();
  }
  ~Daemon() { Stop(); }
};

/// One set-up: suite generation, characterization, the pool, a daemon on a
/// fresh cache directory and its warm fill. Returns its wall seconds.
double SetUpDaemon(const Args& args, const std::string& dir, Daemon* d,
                   LayerTimes* times) {
  // Every set-up starts from a cold MII sweep cache.
  hcrf::perf::SetMiiCacheCapacity(hcrf::perf::SetMiiCacheCapacity(1));
  const double t0 = NowSeconds();
  d->machines.clear();
  for (const std::string& org : PaperOrganizations()) {
    const double c0 = NowSeconds();
    d->machines.push_back(CharacterizedMachine(org));
    times->characterize_us.push_back(SecondsSince(c0) * 1e6);
  }
  std::vector<LoopPtr> loops = LoadCorpus();
  d->corpus_loops = loops.size();
  {
    hcrf::workload::SynthParams p;
    p.seed = Stream::Mix(args.seed);
    p.num_loops = kSeededPoolLoops;
    const double s0 = NowSeconds();
    hcrf::workload::Suite s = hcrf::workload::PerfectSynthetic(p);
    times->synth_gen_s.push_back(SecondsSince(s0));
    for (std::size_t k = 0; k < s.size(); ++k) {
      Loop l = s[k];
      l.ddg.set_name("pool-" + std::to_string(k) + "-" + l.ddg.name());
      l = Canonical(l);
      loops.push_back(std::make_shared<const Loop>(std::move(l)));
    }
  }
  d->pool.clear();
  for (const LoopPtr& l : loops) {
    for (int o = 0; o < static_cast<int>(d->machines.size()); ++o) {
      d->pool.push_back(PoolEntry{l, o});
    }
  }
  d->pool_requests = MakeRequests(d->pool, d->machines);

  hcrf::service::ServerOptions opt;
  d->dir = dir;
  d->socket = dir + "/s";
  fs::create_directories(dir);
  opt.socket_path = d->socket;
  opt.max_inflight = 8;
  opt.service.cache_dir = dir + "/cache";
  // Room for the whole pool plus a bounded tail of never-seen results, so
  // residency (and RSS) stops growing with the run's throughput.
  opt.service.cache_mem_entries =
      static_cast<long>(d->pool_requests.size()) + kFreshResident;
  d->server = std::make_unique<hcrf::service::Server>(opt);
  d->server->Start();
  hcrf::service::Server* server = d->server.get();
  d->serve_thread = std::thread([server] { server->Serve(); });
  server->session().RunBatch(d->pool_requests);
  server->session().Drain();
  return SecondsSince(t0);
}

/// Set-up repeated kSetupRepeats times; the last daemon stays up. Reference
/// dumps of the pool are computed afterwards, outside the set-up time.
std::unique_ptr<Daemon> SetUp(const Args& args, const std::string& scratch,
                              std::vector<double>* setup_s,
                              LayerTimes* times) {
  std::unique_ptr<Daemon> d;
  for (int k = 0; k < kSetupRepeats; ++k) {
    if (d != nullptr) {
      d->Stop();
      fs::remove_all(d->dir);
    }
    d = std::make_unique<Daemon>();
    setup_s->push_back(
        SetUpDaemon(args, scratch + "/d" + std::to_string(k), d.get(), times));
  }
  d->pool_ref = ReferenceDigests(d->pool_requests, &d->pool_results);
  for (std::size_t i = 0; i < d->pool_results.size(); ++i) {
    const ScheduleResult& r = d->pool_results[i];
    if (!r.ok) continue;
    const std::string err = ValidateResult(r, d->pool_requests[i].machine);
    if (!err.empty()) {
      throw std::runtime_error("pool reference " + d->pool_requests[i].id +
                               " fails validation: " + err);
    }
  }
  return d;
}

std::string StreamDigest(const Daemon& d, const Args& args, int clients) {
  Digest dg;
  dg.Add(args.workload);
  for (const BatchRequest& r : d.pool_requests) {
    dg.Add(r.id);
    dg.Add(r.machine.Name());
    dg.Add(static_cast<std::uint64_t>(r.loop->ddg.NumSlots()));
  }
  FreshLoops fresh(args.seed, static_cast<int>(d.machines.size()));
  for (long i = 0; i < 4; ++i) {
    const PoolEntry e = fresh.Entry(i);
    dg.Add(hcrf::io::DumpLoop(*e.loop));
    dg.Add(static_cast<std::uint64_t>(e.org));
  }
  for (int c = 0; c < clients; ++c) {
    Stream s(args.seed, 100 + static_cast<std::uint64_t>(c));
    for (int k = 0; k < 256; ++k) dg.Add(static_cast<std::uint64_t>(s.Uniform(0, 1 << 30)));
  }
  return Hex(dg.value());
}

/// Digest stand-in for an unschedulable item (no result document).
constexpr std::uint64_t kUnscheduled = 0;
constexpr const char* kUnscheduledPrefix = "scheduling failed";

/// A never-seen reply item, checked once its reference is computed after
/// the run.
struct Pending {
  long fresh = -1;
  std::uint64_t digest = 0;
};

struct ClientLog {
  Tally tally;
  std::vector<double> rtt_us;
  std::vector<Pending> pending;
  std::vector<std::string> errors;
  long items = 0;
  long submits = 0;
};

void Record(ClientLog& log, const std::string& what) {
  ++log.tally.check_failures;
  if (log.errors.size() < 4) log.errors.push_back(what);
}

/// Checks one submit reply against the requests it answers.
void CheckReply(const hcrf::service::SubmitReply& reply,
                const std::vector<long>& pool_idx,
                const std::vector<long>& fresh_idx, const Daemon& d,
                ClientLog& log) {
  if (reply.busy) {
    ++log.tally.busy;
    return;
  }
  if (reply.items.size() != pool_idx.size()) {
    Record(log, "reply item count mismatch");
    return;
  }
  for (std::size_t k = 0; k < reply.items.size(); ++k) {
    const hcrf::service::wire::ReplyItem& it = reply.items[k];
    // An unschedulable loop comes back as a failed item whose message is
    // the engine's verdict; any other error payload is a failure.
    std::uint64_t dig = kUnscheduled;
    if (!it.error.empty()) {
      if (it.error.rfind(kUnscheduledPrefix, 0) != 0) {
        ++log.tally.errors;
        if (log.errors.size() < 4) log.errors.push_back(it.error);
        continue;
      }
      ++log.tally.unscheduled;
    } else {
      dig = DumpDigest(it.result);
    }
    if (fresh_idx[k] >= 0) {
      log.pending.push_back(Pending{fresh_idx[k], dig});
      continue;
    }
    const std::size_t p = static_cast<std::size_t>(pool_idx[k]);
    const std::uint64_t want =
        d.pool_results[p].ok ? d.pool_ref[p] : kUnscheduled;
    if (dig != want) {
      Record(log, "reply differs from reference: " + d.pool_requests[p].id);
    }
  }
}

/// References for every never-seen entry served, compared byte for byte,
/// kCheckSpan entries at a time: large enough to keep the reference batch
/// parallel, small enough to bound the check's own memory.
void CheckFresh(FreshLoops& fresh, const Daemon& d,
                const std::vector<ClientLog>& logs, RunResult* out) {
  std::map<long, std::uint64_t> served;
  for (const ClientLog& log : logs) {
    for (const Pending& p : log.pending) served[p.fresh] = p.digest;
  }
  constexpr long kCheckSpan = 8 * kFreshChunk;
  for (long begin = 0; begin < fresh.claimed(); begin += kCheckSpan) {
    const long end = std::min(fresh.claimed(), begin + kCheckSpan);
    std::vector<PoolEntry> entries;
    for (long i = begin; i < end; ++i) entries.push_back(fresh.Entry(i));
    const std::vector<BatchRequest> reqs = MakeRequests(entries, d.machines);
    std::vector<ScheduleResult> results;
    const std::vector<std::uint64_t> ref = ReferenceDigests(reqs, &results);
    for (std::size_t k = 0; k < results.size(); ++k) {
      const std::string err = ValidateResult(results[k], reqs[k].machine);
      if (!err.empty()) out->Fail("fresh " + reqs[k].id + " invalid: " + err);
      const auto it = served.find(begin + static_cast<long>(k));
      if (it != served.end() &&
          (results[k].ok ? ref[k] : kUnscheduled) != it->second) {
        out->Fail("fresh reply differs from reference: " + reqs[k].id);
      }
    }
  }
}

/// Runs `clients` closed-loop threads until `seconds` pass.
template <typename Body>
std::vector<ClientLog> RunClients(int clients, double seconds, Body body) {
  std::vector<ClientLog> logs(static_cast<std::size_t>(clients));
  const double end = NowSeconds() + seconds;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<std::size_t>(c)];
      try {
        body(c, end, log);
      } catch (const std::exception& e) {
        ++log.tally.thrown;
        if (log.errors.size() < 4) log.errors.push_back(e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return logs;
}

// ---- serve-hot --------------------------------------------------------------

struct HotPass {
  std::vector<ClientLog> logs;
  Summary rtt;
  double rss_mb = 0;  ///< Peak RSS when the traffic ended.
  double submits_per_s = 0;
  double items_per_s = 0;
};

HotPass HotTraffic(Daemon& d, FreshLoops& fresh, const Args& args,
                   double seconds, std::uint64_t stream_base) {
  const double t0 = NowSeconds();
  HotPass pass;
  pass.logs = RunClients(kHotClients, seconds, [&](int c, double end,
                                                   ClientLog& log) {
    hcrf::service::Client client(d.socket);
    Stream rng(args.seed, stream_base + static_cast<std::uint64_t>(c));
    long submit_id = 0;
    while (NowSeconds() < end) {
      const long b = rng.Uniform(1, 16);
      std::vector<BatchRequest> reqs;
      std::vector<long> pool_idx, fresh_idx;
      for (long k = 0; k < b; ++k) {
        if (rng.Chance(kMissShare)) {
          auto [i, e] = fresh.Next();
          reqs.push_back(MakeRequests({e}, d.machines)[0]);
          pool_idx.push_back(-1);
          fresh_idx.push_back(i);
        } else {
          const long p = rng.Uniform(0, static_cast<long>(d.pool.size()) - 1);
          reqs.push_back(d.pool_requests[static_cast<std::size_t>(p)]);
          pool_idx.push_back(p);
          fresh_idx.push_back(-1);
        }
      }
      log.tally.attempted += b;
      spans::SetRequest(static_cast<long>(c) * 1000000 + submit_id++);
      const double s0 = NowSeconds();
      hcrf::service::SubmitReply reply;
      {
        Span span("service", "submit");
        reply = client.Submit(reqs);
      }
      log.rtt_us.push_back(SecondsSince(s0) * 1e6);
      ++log.submits;
      log.items += b;
      CheckReply(reply, pool_idx, fresh_idx, d, log);
    }
  });
  const double wall = SecondsSince(t0);
  std::vector<double> all;
  long submits = 0, items = 0;
  for (const ClientLog& log : pass.logs) {
    all.insert(all.end(), log.rtt_us.begin(), log.rtt_us.end());
    submits += log.submits;
    items += log.items;
  }
  pass.rtt = Summarize(std::move(all));
  pass.rss_mb = PeakRssMb();
  pass.submits_per_s = static_cast<double>(submits) / wall;
  pass.items_per_s = static_cast<double>(items) / wall;
  return pass;
}

// ---- serve-contended --------------------------------------------------------

struct Perturbation {
  long pool = 0;
  int node = 0;
  int latency = 0;
  bool operator<(const Perturbation& o) const {
    return std::tie(pool, node, latency) < std::tie(o.pool, o.node, o.latency);
  }
};

struct DeltaOutcome {
  Perturbation p;
  bool ok = false;
  int ii = 0;
};

struct ContendedPass {
  std::vector<ClientLog> logs;  ///< [0] = the batch client.
  std::vector<std::vector<DeltaOutcome>> deltas;
  Summary delta_rtt;
  double rss_mb = 0;  ///< Peak RSS when the traffic ended.
  double loops_per_s = 0;
  double items_per_s = 0;
};

/// Delta targets: resident corpus entries the warm-start path handles
/// (see DeltaEligible).
std::vector<long> DeltaTargets(const Daemon& d) {
  std::vector<long> targets;
  const std::size_t orgs = d.machines.size();
  for (std::size_t i = 0; i < d.corpus_loops * orgs; ++i) {
    if (d.pool_results[i].ok &&
        DeltaEligible(d.pool[i].loop->ddg, PaperOrganizations()[i % orgs])) {
      targets.push_back(static_cast<long>(i));
    }
  }
  return targets;
}

BatchRequest DeltaRequest(const Daemon& d, const Perturbation& p) {
  return Hardened(d.pool_requests[static_cast<std::size_t>(p.pool)],
                  Hardening{p.node, p.latency});
}

/// The one perturbation of a delta target, drawn from the seed per target.
/// One what-if per loop x machine keeps the daemon's near-key seed for
/// that cell the resident base schedule (warm results are not cached; a
/// cold fallback is, and later repeats hit it exactly), so every delta is
/// a base-seeded warm start or an exact hit.
Perturbation TargetPerturbation(const Daemon& d, long target,
                                std::uint64_t seed) {
  Stream rng(seed, 1000 + static_cast<std::uint64_t>(target));
  const Hardening h =
      DrawHardening(d.pool_requests[static_cast<std::size_t>(target)], rng);
  return Perturbation{target, h.node, h.latency};
}

ContendedPass ContendedTraffic(Daemon& d, FreshLoops& fresh,
                               const std::vector<Perturbation>& targets,
                               const Args& args, double seconds,
                               std::uint64_t stream_base) {
  const double t0 = NowSeconds();
  ContendedPass pass;
  pass.deltas.resize(1 + kDeltaClients);
  std::atomic<bool> batch_done{false};
  pass.logs = RunClients(1 + kDeltaClients, seconds, [&](int c, double end,
                                                         ClientLog& log) {
    hcrf::service::Client client(d.socket);
    Stream rng(args.seed, stream_base + static_cast<std::uint64_t>(c));
    long submit_id = 0;
    if (c == 0) {
      // The batch client: large batches of never-seen loops.
      while (NowSeconds() < end) {
        std::vector<BatchRequest> reqs;
        std::vector<long> pool_idx, fresh_idx;
        for (int k = 0; k < kContendedBatch; ++k) {
          auto [i, e] = fresh.Next();
          reqs.push_back(MakeRequests({e}, d.machines)[0]);
          pool_idx.push_back(-1);
          fresh_idx.push_back(i);
        }
        log.tally.attempted += kContendedBatch;
        spans::SetRequest(submit_id++);
        const double s0 = NowSeconds();
        hcrf::service::SubmitReply reply;
        {
          Span span("service", "submit_batch");
          reply = client.Submit(reqs);
        }
        log.rtt_us.push_back(SecondsSince(s0) * 1e6);
        ++log.submits;
        log.items += kContendedBatch;
        CheckReply(reply, pool_idx, fresh_idx, d, log);
      }
      batch_done = true;
      return;
    }
    std::vector<DeltaOutcome>& outcomes = pass.deltas[static_cast<std::size_t>(c)];
    while (NowSeconds() < end && !batch_done) {
      const Perturbation& p = targets[static_cast<std::size_t>(
          rng.Uniform(0, static_cast<long>(targets.size()) - 1))];
      const BatchRequest req = DeltaRequest(d, p);
      ++log.tally.attempted;
      spans::SetRequest(static_cast<long>(c) * 1000000 + submit_id++);
      const double s0 = NowSeconds();
      hcrf::service::SubmitReply reply;
      {
        Span span("service", "submit_delta");
        reply = client.SubmitDelta({req});
      }
      log.rtt_us.push_back(SecondsSince(s0) * 1e6);
      ++log.submits;
      ++log.items;
      if (reply.busy) {
        ++log.tally.busy;
        continue;
      }
      if (reply.items.size() != 1) {
        Record(log, "delta reply item count mismatch");
        continue;
      }
      const std::string& error = reply.items[0].error;
      if (!error.empty() && error.rfind(kUnscheduledPrefix, 0) != 0) {
        ++log.tally.errors;
        if (log.errors.size() < 4) log.errors.push_back(error);
        continue;
      }
      const ScheduleResult& r = reply.items[0].result;
      if (r.ok) {
        const std::string err = ValidateResult(r, req.machine);
        if (!err.empty()) Record(log, "delta result invalid: " + err);
      } else {
        ++log.tally.unscheduled;
      }
      outcomes.push_back(DeltaOutcome{p, r.ok, r.ii});
    }
  });
  const double wall = SecondsSince(t0);
  std::vector<double> delta_rtt;
  long delta_items = 0;
  for (std::size_t c = 1; c < pass.logs.size(); ++c) {
    delta_rtt.insert(delta_rtt.end(), pass.logs[c].rtt_us.begin(),
                     pass.logs[c].rtt_us.end());
    delta_items += pass.logs[c].items;
  }
  pass.rss_mb = PeakRssMb();
  pass.delta_rtt = Summarize(std::move(delta_rtt));
  pass.loops_per_s = static_cast<double>(pass.logs[0].items) / wall;
  pass.items_per_s =
      static_cast<double>(pass.logs[0].items + delta_items) / wall;
  return pass;
}

/// Every delta's warm II must not exceed the cold II of the same
/// perturbation (cold references computed here, after the run).
void CheckDeltas(const Daemon& d, const ContendedPass& pass, RunResult* out) {
  std::set<Perturbation> distinct;
  for (const auto& v : pass.deltas) {
    for (const DeltaOutcome& o : v) distinct.insert(o.p);
  }
  const std::vector<Perturbation> keys(distinct.begin(), distinct.end());
  std::vector<BatchRequest> reqs;
  for (const Perturbation& p : keys) reqs.push_back(DeltaRequest(d, p));
  std::vector<ScheduleResult> cold;
  ReferenceDigests(reqs, &cold);
  for (const auto& v : pass.deltas) {
    for (const DeltaOutcome& o : v) {
      const std::size_t k = static_cast<std::size_t>(
          std::lower_bound(keys.begin(), keys.end(), o.p) - keys.begin());
      const ScheduleResult& c = cold[k];
      if (c.ok && (!o.ok || o.ii > c.ii)) {
        out->Fail("delta II " + std::to_string(o.ii) + " above cold II " +
                  std::to_string(c.ii) + " on " + reqs[k].id);
      }
    }
  }
}

void MergeLogs(const std::vector<ClientLog>& logs, RunResult* out) {
  for (const ClientLog& log : logs) {
    out->tally.Merge(log.tally);
    for (const std::string& e : log.errors) {
      out->correct = false;
      if (out->check_errors.size() < 8) out->check_errors.push_back(e);
    }
    if (log.tally.failed() > 0) out->correct = false;
  }
}

/// Shared body of both serve workloads.
template <typename Pass, typename Traffic, typename Headline, typename Report>
RunResult RunServe(const Args& args, int clients, Traffic traffic,
                   Headline headline, Report report) {
  RunResult out;
  const std::string scratch = ScratchDir();
  fs::remove_all(scratch);
  LayerTimes times;
  std::vector<double> setup_s;
  const double t_setup = NowSeconds();
  std::unique_ptr<Daemon> d = SetUp(args, scratch, &setup_s, &times);
  PrintHostHeader(args, StreamDigest(*d, args, clients));
  const double t_traffic = NowSeconds();
  FreshLoops fresh(args.seed, static_cast<int>(d->machines.size()));

  // Untraced traffic; a traced run follows it with the same traffic on
  // fresh streams of the same seed, spans armed.
  const double window = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<Pass> passes;
  passes.push_back(traffic(*d, fresh, window, 100));
  LayerSnapshot before;
  if (args.trace) {
    before = LayerSnapshot::Take();
    spans::SetEnabled(true);
    passes.push_back(traffic(*d, fresh, window, 200));
    spans::SetEnabled(false);
  }
  const double t_checks = NowSeconds();
  std::vector<ClientLog> logs;
  for (const Pass& p : passes) {
    MergeLogs(p.logs, &out);
    logs.insert(logs.end(), p.logs.begin(), p.logs.end());
    if constexpr (std::is_same_v<Pass, ContendedPass>) CheckDeltas(*d, p, &out);
  }
  CheckFresh(fresh, *d, logs, &out);

  const Pass& pass = passes.back();
  // Schedule quality over the seed-independent part of the pool (corpus
  // loops x paper organizations), so it repeats exactly on every run.
  const double ii_over_mii = IiOverMii(std::vector<ScheduleResult>(
      d->pool_results.begin(),
      d->pool_results.begin() +
          static_cast<long>(d->corpus_loops * d->machines.size())));
  report(passes.front(), ii_over_mii, Median(setup_s), out);
  if (args.trace) {
    LayerContext ctx;
    ctx.workload = args.workload;
    ctx.seed = args.seed;
    ctx.scratch = scratch;
    ctx.server = d->server.get();
    ctx.socket = d->socket;
    Stream rng(args.seed, 7);
    for (int k = 0; k < 1000; ++k) {
      ctx.sample.push_back(d->pool_requests[static_cast<std::size_t>(
          rng.Uniform(0, static_cast<long>(d->pool_requests.size()) - 1))]);
    }
    for (const long t : DeltaTargets(*d)) {
      ctx.delta_sample.push_back(d->pool_requests[static_cast<std::size_t>(t)]);
    }
    ctx.times = times;
    ctx.before = before;
    ctx.trace_overhead = headline(pass) / headline(passes.front());
    RunLayerWalk(ctx, &out);
  }
  const double t_teardown = NowSeconds();
  d->Stop();
  fs::remove_all(scratch);
  std::printf("run phases: set-up and references %.1f s, traffic %.1f s, "
              "checks and walk %.1f s, teardown %.1f s\n",
              t_traffic - t_setup, t_checks - t_traffic,
              t_teardown - t_checks, SecondsSince(t_teardown));
  return out;
}

}  // namespace

RunResult RunServeHot(const Args& args) {
  return RunServe<HotPass>(
      args, kHotClients,
      [&](Daemon& d, FreshLoops& fresh, double seconds, std::uint64_t base) {
        return HotTraffic(d, fresh, args, seconds, base);
      },
      [](const HotPass& p) { return p.rtt.p50; },
      [&](const HotPass& p, double ii_over_mii, double setup, RunResult& out) {
        const double rss = p.rss_mb;
        std::printf("serve-hot: %d closed-loop clients, batches of 1-16, "
                    "%.0f%% never-seen items\n",
                    kHotClients, kMissShare * 100);
        PrintMetric("setup_s", setup, "s", "median of " + std::to_string(kSetupRepeats) + " set-ups");
        PrintMetric("rtt_p50_us", p.rtt.p50, "us",
                    "n=" + std::to_string(p.rtt.n));
        PrintMetric("rtt_p99_us", p.rtt.p99, "us",
                    "n=" + std::to_string(p.rtt.n) +
                        (p.rtt.p99_ok ? "" : " (fewer than 1000 samples)"));
        PrintMetric("submits_per_s", p.submits_per_s, "1/s");
        PrintMetric("items_per_s", p.items_per_s, "1/s");
        PrintMetric("ii_over_mii", ii_over_mii, "ratio", "corpus x paper organizations");
        PrintMetric("peak_rss_mb", rss, "MiB");
        if (!p.rtt.p99_ok) out.Fail("rtt: fewer than 1000 samples");
        if (args.trace) return;
        out.Set("setup_s", setup, "s");
        out.Set("latency_p50_ms", p.rtt.p50 / 1e3, "ms");
        out.Set("latency_p99_ms", p.rtt.p99 / 1e3, "ms");
        out.Set("throughput_per_s", p.submits_per_s, "1/s");
        out.Set("ii_over_mii", ii_over_mii, "ratio");
        out.Set("peak_rss_mb", rss, "MiB");
      });
}

RunResult RunServeContended(const Args& args) {
  std::vector<Perturbation> targets;
  return RunServe<ContendedPass>(
      args, 1 + kDeltaClients,
      [&](Daemon& d, FreshLoops& fresh, double seconds, std::uint64_t base) {
        if (targets.empty()) {
          for (const long t : DeltaTargets(d)) {
            targets.push_back(TargetPerturbation(d, t, args.seed));
          }
        }
        return ContendedTraffic(d, fresh, targets, args, seconds, base);
      },
      [](const ContendedPass& p) { return p.delta_rtt.p50; },
      [&](const ContendedPass& p, double ii_over_mii, double setup,
          RunResult& out) {
        const double rss = p.rss_mb;
        std::printf("serve-contended: 1 batch client (%d never-seen loops per "
                    "submit), %d delta clients\n",
                    kContendedBatch, kDeltaClients);
        PrintMetric("setup_s", setup, "s", "median of " + std::to_string(kSetupRepeats) + " set-ups");
        PrintMetric("delta_rtt_p50_us", p.delta_rtt.p50, "us",
                    "n=" + std::to_string(p.delta_rtt.n));
        PrintMetric("delta_rtt_p99_us", p.delta_rtt.p99, "us",
                    "n=" + std::to_string(p.delta_rtt.n) +
                        (p.delta_rtt.p99_ok ? "" : " (fewer than 1000 samples)"));
        PrintMetric("loops_per_s", p.loops_per_s, "1/s", "batch client only");
        PrintMetric("items_per_s", p.items_per_s, "1/s", "batch + deltas");
        PrintMetric("ii_over_mii", ii_over_mii, "ratio", "corpus x paper organizations");
        PrintMetric("peak_rss_mb", rss, "MiB");
        if (!p.delta_rtt.p99_ok) out.Fail("delta rtt: fewer than 1000 samples");
        if (args.trace) return;
        out.Set("setup_s", setup, "s");
        out.Set("latency_p50_ms", p.delta_rtt.p50 / 1e3, "ms");
        out.Set("latency_p99_ms", p.delta_rtt.p99 / 1e3, "ms");
        out.Set("throughput_per_s", p.loops_per_s, "1/s");
        out.Set("ii_over_mii", ii_over_mii, "ratio");
        out.Set("peak_rss_mb", rss, "MiB");
      });
}

}  // namespace perfbench
