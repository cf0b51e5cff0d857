// Resident daemon loopback: a Server on a temp Unix socket, exercised
// through the Client. Results must be byte-identical to a direct
// RunBatch, warm resubmissions must be served by the memory tier with
// zero engine invocations, saturation must answer `busy` deterministically
// and a stop request must drain cleanly (write-behind settled, socket
// unlinked). Runs under TSan in CI.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/mirs.h"
#include "io/hcl.h"
#include "obs/metrics.h"
#include "service/batch.h"
#include "service/client.h"
#include "service/server.h"
#include "service/wire.h"
#include "workload/kernels.h"

namespace hcrf {
namespace {

namespace fs = std::filesystem;

class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = fs::path(::testing::TempDir()) /
            ("hcrf-daemon-" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(base_);
    fs::create_directories(base_);
  }
  void TearDown() override {
    StopServer();
    fs::remove_all(base_);
  }

  std::string SocketPath() const { return (base_ / "sock").string(); }
  std::string CacheDir() const { return (base_ / "cache").string(); }

  /// Binds, then serves on a background thread until StopServer().
  void StartServer(service::ServerOptions opt) {
    opt.socket_path = SocketPath();
    server_ = std::make_unique<service::Server>(opt);
    server_->Start();
    serve_thread_ = std::thread([this] { server_->Serve(); });
  }

  void StopServer() {
    if (server_ == nullptr) return;
    server_->RequestStop();
    if (serve_thread_.joinable()) serve_thread_.join();
    server_.reset();
  }

  fs::path base_;
  std::unique_ptr<service::Server> server_;
  std::thread serve_thread_;
};

/// Three kernels on the paper's proposed organization — the same request
/// set for the daemon and the direct-RunBatch reference.
std::vector<service::BatchRequest> KernelRequests() {
  const MachineConfig m = MachineConfig::WithRF(RFConfig::Parse("4C16S64/2-1"));
  std::vector<service::BatchRequest> requests;
  for (workload::Loop loop :
       {workload::MakeDaxpy(), workload::MakeDot(), workload::MakeVadd()}) {
    service::BatchRequest req;
    req.id = loop.ddg.name();
    req.loop = std::make_shared<const workload::Loop>(std::move(loop));
    req.machine = m;
    requests.push_back(std::move(req));
  }
  return requests;
}

TEST_F(DaemonTest, SubmitMatchesDirectRunBatchByteForByte) {
  service::ServerOptions opt;
  opt.service.cache_dir = CacheDir();
  opt.service.cache_mem_entries = 64;
  StartServer(opt);

  const std::vector<service::BatchRequest> requests = KernelRequests();
  const service::BatchReport direct =
      service::RunBatch(requests, service::ServiceConfig{});

  service::Client client(SocketPath());
  ASSERT_TRUE(client.Ping());
  const service::SubmitReply reply = client.Submit(requests);
  ASSERT_FALSE(reply.busy);
  ASSERT_EQ(reply.items.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(reply.items[i].ok) << reply.items[i].error;
    EXPECT_EQ(io::DumpResult(direct.items[i].result),
              io::DumpResult(reply.items[i].result))
        << requests[i].id;
  }
}

TEST_F(DaemonTest, WarmResubmitIsMemoryServedWithoutEngineRuns) {
  service::ServerOptions opt;
  opt.service.cache_dir = CacheDir();
  opt.service.cache_mem_entries = 64;
  StartServer(opt);

  const std::vector<service::BatchRequest> requests = KernelRequests();
  service::Client client(SocketPath());
  const service::SubmitReply cold = client.Submit(requests);
  ASSERT_FALSE(cold.busy);
  for (const auto& item : cold.items) EXPECT_FALSE(item.cache_hit);

  const long mem_hits_before = server_->session().memory_stats().hits;
  const long engine_runs_before = obs::GetCounter("engine.runs").value();
  const service::SubmitReply warm = client.Submit(requests);
  ASSERT_FALSE(warm.busy);
  ASSERT_EQ(warm.items.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_TRUE(warm.items[i].cache_hit) << requests[i].id;
    EXPECT_EQ(io::DumpResult(cold.items[i].result),
              io::DumpResult(warm.items[i].result));
  }
  EXPECT_GT(server_->session().memory_stats().hits, mem_hits_before);
  EXPECT_EQ(obs::GetCounter("engine.runs").value(), engine_runs_before);
}

TEST_F(DaemonTest, ConcurrentClientsAllServedIdentically) {
  service::ServerOptions opt;
  opt.max_inflight = 4;
  opt.service.cache_dir = CacheDir();
  opt.service.cache_mem_entries = 64;
  StartServer(opt);

  const std::vector<service::BatchRequest> requests = KernelRequests();
  const std::string socket = SocketPath();
  constexpr int kClients = 3;
  std::vector<service::SubmitReply> replies(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&socket, &requests, &replies, c] {
      service::Client client(socket);
      replies[c] = client.Submit(requests);
    });
  }
  for (std::thread& t : clients) t.join();

  for (const service::SubmitReply& reply : replies) {
    ASSERT_FALSE(reply.busy);  // max_inflight covers every client
    ASSERT_EQ(reply.items.size(), requests.size());
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    for (int c = 1; c < kClients; ++c) {
      EXPECT_EQ(io::DumpResult(replies[0].items[i].result),
                io::DumpResult(replies[c].items[i].result));
    }
  }
}

TEST_F(DaemonTest, SaturationAnswersBusy) {
  service::ServerOptions opt;
  opt.max_inflight = 1;
  opt.read_timeout_ms = 5000;  // a wedged slot frees itself eventually
  StartServer(opt);

  // Hold the single slot with a connection that never sends its request:
  // admission happens at accept time, so an idle connection occupies the
  // slot until it is closed (or times out). Unix sockets accept in FIFO
  // order, so the ping below is deterministically behind this connect.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string socket_path = SocketPath();
  ASSERT_LT(socket_path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int stall_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(stall_fd, 0);
  ASSERT_EQ(::connect(stall_fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  service::Client client(socket_path);
  EXPECT_FALSE(client.Ping());  // saturated: busy
  EXPECT_GE(server_->bounced(), 1);

  ::close(stall_fd);  // frees the slot once the handler notices EOF
  bool served = false;
  for (int i = 0; i < 200 && !served; ++i) {
    served = client.Ping();
    if (!served) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(served);
}

// `server.draining` reads 1 from the moment the accept loop stops until
// the drain is done, and 0 once Serve() returns. An admitted connection
// that never sends its request holds the drain open until it closes.
TEST_F(DaemonTest, DrainingGaugeReadsOneWhileServeDrains) {
  obs::Gauge& draining = obs::GetGauge("server.draining");
  const obs::Counter& connections = obs::GetCounter("server.connections");
  service::ServerOptions opt;
  opt.socket_path = SocketPath();
  opt.read_timeout_ms = 30000;  // longer than the test: the client closes
  server_ = std::make_unique<service::Server>(opt);
  server_->Start();
  std::atomic<bool> returned{false};
  serve_thread_ = std::thread([this, &returned] {
    server_->Serve();
    returned = true;
  });

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string socket_path = SocketPath();
  ASSERT_LT(socket_path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const long accepted = connections.value();
  const int idle_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(idle_fd, 0);
  ASSERT_EQ(::connect(idle_fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  // The handler counts the connection once it is admitted and running.
  for (int i = 0; i < 500 && connections.value() == accepted; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GT(connections.value(), accepted);
  EXPECT_EQ(draining.value(), 0);

  server_->RequestStop();
  for (int i = 0; i < 500 && draining.value() != 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(draining.value(), 1);
  EXPECT_FALSE(returned.load());

  ::close(idle_fd);  // the handler sees EOF and the drain can finish
  serve_thread_.join();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(draining.value(), 0);
  EXPECT_FALSE(fs::exists(SocketPath()));
}

/// A client whose every connection is one end of a socketpair whose peer
/// has already written `reply` and hung up — the shape of a daemon that
/// bounces a connection before the client's request lands.
class BouncedClient final : public service::Client {
 public:
  explicit BouncedClient(std::string reply)
      : Client("unused"), reply_(std::move(reply)) {}

 protected:
  int Connect() const override {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw std::runtime_error("socketpair failed");
    }
    const ssize_t n = ::write(fds[1], reply_.data(), reply_.size());
    ::close(fds[1]);
    if (n != static_cast<ssize_t>(reply_.size())) {
      ::close(fds[0]);
      throw std::runtime_error("could not stage the bounce reply");
    }
    return fds[0];
  }

 private:
  std::string reply_;
};

/// The message `call` throws as std::runtime_error; "" when it returns.
template <typename F>
std::string ThrownMessage(F&& call) {
  try {
    call();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// The request write of every verb fails with EPIPE here, deterministically:
// the pending reply decides the outcome, and only a missing reply line is a
// lost connection.
TEST(ClientBounce, FailedWriteReadsThePendingReply) {
  BouncedClient busy("hcrf 1 busy\n");
  EXPECT_FALSE(busy.Ping());
  EXPECT_TRUE(busy.Submit(KernelRequests()).busy);
  EXPECT_TRUE(busy.SubmitDelta(KernelRequests()).busy);
  EXPECT_EQ(ThrownMessage([&] { busy.Stats(); }),
            "server busy; stats unavailable");
  EXPECT_EQ(ThrownMessage([&] { busy.CacheStats(); }),
            "server busy; cache-stats unavailable");

  BouncedClient error("hcrf 1 error 4\nboom");
  EXPECT_EQ(ThrownMessage([&] { error.Ping(); }), "server error: boom");

  BouncedClient silent("");
  EXPECT_EQ(ThrownMessage([&] { silent.Ping(); }),
            "submit: connection lost while pinging");
  EXPECT_EQ(ThrownMessage([&] { silent.Submit(KernelRequests()); }),
            "submit: connection lost while submitting");
}

/// The separate send() calls `write` makes on a connection: over a
/// SOCK_SEQPACKET pair every send stays a record of its own.
template <typename F>
std::vector<std::string> SendsOf(F&& write) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_SEQPACKET, 0, fds) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  {
    service::wire::Conn conn(fds[0]);
    write(conn);
  }  // closes the writing end: the reads below end at EOF
  std::vector<std::string> sends;
  std::vector<char> buf(1 << 20);
  ssize_t n = 0;
  while ((n = ::recv(fds[1], buf.data(), buf.size(), 0)) > 0) {
    sends.emplace_back(buf.data(), static_cast<size_t>(n));
  }
  ::close(fds[1]);
  return sends;
}

/// Decodes `bytes` with `read`, as the peer of a stream connection would.
template <typename F>
auto ReadBack(const std::string& bytes, F&& read) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  {
    service::wire::Conn writer(fds[0]);
    writer.WriteAll(bytes);
  }
  service::wire::Conn conn(fds[1]);
  return read(conn);
}

// Each wire block is built in one buffer and sent with one write, and the
// single write decodes back to what was sent.
TEST(WireBlocks, EachBlockIsOneWrite) {
  namespace wire = service::wire;
  const std::vector<service::BatchRequest> requests = KernelRequests();

  std::vector<std::string> sends = SendsOf(
      [&](wire::Conn& conn) { wire::WriteRequest(conn, requests[0]); });
  ASSERT_EQ(sends.size(), 1u);
  const service::BatchRequest request = ReadBack(
      sends[0], [](wire::Conn& conn) { return wire::ReadRequest(conn); });
  EXPECT_EQ(request.id, requests[0].id);
  EXPECT_EQ(io::DumpLoop(*request.loop), io::DumpLoop(*requests[0].loop));
  EXPECT_EQ(io::DumpMachine(request.machine),
            io::DumpMachine(requests[0].machine));

  service::BatchRequest delta = requests[1];
  delta.overrides.producer_latency = {0, 7};
  sends = SendsOf(
      [&](wire::Conn& conn) { wire::WriteDeltaRequest(conn, delta); });
  ASSERT_EQ(sends.size(), 1u);
  const service::BatchRequest delta_back = ReadBack(
      sends[0], [](wire::Conn& conn) { return wire::ReadDeltaRequest(conn); });
  EXPECT_EQ(delta_back.overrides.producer_latency, (std::vector<int>{0, 7}));

  service::BatchItem item;
  item.ok = true;
  item.result = core::MirsHC(requests[2].loop->ddg, requests[2].machine);
  const std::string doc = io::DumpResult(item.result);
  sends = SendsOf([&](wire::Conn& conn) { wire::WriteItem(conn, 3, item); });
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0], "item 3 ok fresh\nresult " + std::to_string(doc.size()) +
                          "\n" + doc);
  const wire::ReplyItem reply =
      ReadBack(sends[0], [](wire::Conn& conn) { return wire::ReadItem(conn); });
  EXPECT_EQ(io::DumpResult(reply.result), doc);

  service::BatchItem failed;
  failed.cache_hit = true;
  failed.error = "boom";
  sends = SendsOf([&](wire::Conn& conn) { wire::WriteItem(conn, 0, failed); });
  EXPECT_EQ(sends,
            (std::vector<std::string>{"item 0 failed hit\nerror 4\nboom"}));

  sends = SendsOf(
      [](wire::Conn& conn) { wire::WritePayload(conn, "stats", "{}"); });
  EXPECT_EQ(sends, (std::vector<std::string>{"stats 2\n{}"}));
}

TEST_F(DaemonTest, MalformedRequestGetsErrorReplyAndDaemonSurvives) {
  service::ServerOptions opt;
  StartServer(opt);

  {
    // Raw connection speaking garbage: the reply must be an error frame,
    // not a dropped daemon.
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    const std::string socket_path = SocketPath();
    ASSERT_LT(socket_path.size(), sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const char bad[] = "hcrf 1 frobnicate\n";
    ASSERT_EQ(::write(fd, bad, sizeof(bad) - 1),
              static_cast<ssize_t>(sizeof(bad) - 1));
    char reply[64] = {};
    const ssize_t n = ::read(fd, reply, sizeof(reply) - 1);
    ASSERT_GT(n, 0);
    EXPECT_EQ(std::string(reply, 12), "hcrf 1 error");
    ::close(fd);
  }

  service::Client client(SocketPath());
  EXPECT_TRUE(client.Ping());  // the daemon lives
}

TEST_F(DaemonTest, StatsAndCacheStatsEndpoints) {
  service::ServerOptions opt;
  opt.service.cache_dir = CacheDir();
  // 64 entries leave room for all three kernels.
  opt.service.cache_mem_entries = 64;
  StartServer(opt);

  service::Client client(SocketPath());
  client.Submit(KernelRequests());

  const std::string stats = client.Stats();
  EXPECT_NE(stats.find("service.requests"), std::string::npos);
  EXPECT_NE(stats.find("server.connections"), std::string::npos);

  const std::string cache_stats = client.CacheStats();
  EXPECT_EQ(cache_stats.rfind("hcl 1 cache-stats\n", 0), 0u);
  EXPECT_NE(cache_stats.find("\nentries 3\n"), std::string::npos) << cache_stats;
  EXPECT_NE(cache_stats.find("\nmem_hits "), std::string::npos);
}

TEST_F(DaemonTest, StopDrainsWriteBehindAndUnlinksSocket) {
  service::ServerOptions opt;
  opt.service.cache_dir = CacheDir();
  opt.service.cache_mem_entries = 64;
  StartServer(opt);

  service::Client client(SocketPath());
  const service::SubmitReply reply = client.Submit(KernelRequests());
  ASSERT_FALSE(reply.busy);
  StopServer();

  // After a clean drain the disk tier holds every scheduled entry and the
  // socket path is gone.
  EXPECT_EQ(service::DiskTier::Scan(CacheDir()).entries, 3);
  EXPECT_FALSE(fs::exists(SocketPath()));
}

}  // namespace
}  // namespace hcrf
