#include "service/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/check.h"
#include "io/hcl.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perf/thread_pool.h"
#include "service/wire.h"

namespace hcrf::service {

namespace {

[[noreturn]] void FailErrno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// The cache-stats payload: one `hcl 1 cache-stats` document combining
/// the session's stack counters with an on-the-spot disk census, so one
/// endpoint answers both "how is this session doing" and "what is on
/// disk" — the two views the one-shot CLI used to compute from different
/// cache instances.
std::string CacheStatsDoc(SchedulerService& session) {
  const TierStats stack = session.tier_stats();
  const TierStats mem = session.memory_stats();
  DiskTier::DirStats census;
  if (session.disk_tier() != nullptr) {
    census = DiskTier::Scan(session.disk_tier()->dir());
  }
  std::string doc = "hcl 1 cache-stats\n";
  const auto field = [&doc](const char* name, long v) {
    doc += name;
    doc += ' ';
    doc += std::to_string(v);
    doc += '\n';
  };
  field("hits", stack.hits);
  field("misses", stack.misses);
  field("rejects", stack.rejects);
  field("writes", stack.writes);
  field("evictions", stack.evictions);
  field("oversize", stack.oversize);
  field("entries", stack.entries);
  field("bytes", stack.bytes);
  field("mem_hits", mem.hits);
  field("near_hits", mem.near_hits);
  field("near_misses", mem.near_misses);
  field("disk_entries", census.entries);
  field("disk_bytes", census.bytes);
  doc += "end\n";
  return doc;
}

}  // namespace

Server::Server(const ServerOptions& opt)
    : opt_(opt),
      session_(opt.service),
      conn_pool_(opt.max_inflight > 0 ? opt.max_inflight : 1) {}

Server::~Server() {
  RequestStop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  // Unlink only a socket this process bound: if Start() lost the bind
  // race (EADDRINUSE), the path belongs to the daemon that won it.
  if (owns_socket_) ::unlink(opt_.socket_path.c_str());
  for (int fd : stop_pipe_) {
    if (fd >= 0) ::close(fd);
  }
}

void Server::Start() {
  HCRF_CHECK(listen_fd_ < 0, "Start() called twice");
  if (opt_.socket_path.empty()) {
    throw std::runtime_error("serve: socket path is empty");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opt_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("serve: socket path too long: " +
                             opt_.socket_path);
  }
  std::memcpy(addr.sun_path, opt_.socket_path.c_str(),
              opt_.socket_path.size() + 1);

  if (::pipe(stop_pipe_) != 0) FailErrno("serve: pipe");
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) FailErrno("serve: socket");
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    FailErrno("serve: bind " + opt_.socket_path);
  }
  owns_socket_ = true;  // the socket file on disk is now ours to unlink
  if (::listen(listen_fd_, 64) != 0) FailErrno("serve: listen");
}

void Server::RequestStop() {
  // Async-signal-safe: one write(), no locks, no allocation. Serve()'s
  // poll wakes on the pipe; repeated requests are harmless.
  if (stop_pipe_[1] >= 0) {
    const char b = 's';
    [[maybe_unused]] ssize_t n = ::write(stop_pipe_[1], &b, 1);
  }
}

void Server::Serve() {
  HCRF_CHECK(listen_fd_ >= 0, "Serve() without Start()");
  static obs::Gauge& max_inflight = obs::GetGauge("server.max_inflight");
  static obs::Gauge& draining = obs::GetGauge("server.draining");
  static obs::Counter& accept_overload =
      obs::GetCounter("server.accept_overload");
  static obs::Counter& busy = obs::GetCounter("server.busy");
  max_inflight.Set(opt_.max_inflight);

  // Connection handlers ride the server's own pool (one worker per
  // admission slot — see server.h); the drain below (RunAndWait) steals
  // queued handlers inline, so even a wedged pool cannot deadlock the
  // shutdown.
  perf::TaskGroup conns(conn_pool_);

  bool stopping = false;
  while (!stopping) {
    pollfd fds[2];
    fds[0] = {stop_pipe_[0], POLLIN, 0};
    fds[1] = {listen_fd_, POLLIN, 0};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;  // signal: re-check the stop pipe
      FailErrno("serve: poll");
    }
    if ((fds[0].revents & POLLIN) != 0) {
      stopping = true;
      break;
    }
    // An error condition on either fd is permanent: poll would keep
    // reporting it immediately, so `continue` would spin at 100% CPU.
    // Fail loudly instead; the caller still runs the drain below.
    constexpr short kBadRevents = POLLERR | POLLHUP | POLLNVAL;
    if ((fds[0].revents & kBadRevents) != 0 ||
        (fds[1].revents & kBadRevents) != 0) {
      throw std::runtime_error(
          "serve: poll reported an error condition on the " +
          std::string((fds[0].revents & kBadRevents) != 0 ? "stop pipe"
                                                          : "listen socket"));
    }
    if ((fds[1].revents & POLLIN) == 0) continue;

    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // Resource exhaustion is transient load, not a broken listener:
      // shed this connection (the client sees a refused/reset connect),
      // back off briefly so the loop cannot hot-spin, and keep serving.
      if (errno == EMFILE || errno == ENFILE || errno == ENOMEM ||
          errno == ENOBUFS) {
        accept_overload.Add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      FailErrno("serve: accept");
    }
    if (opt_.read_timeout_ms > 0) {
      timeval tv{};
      tv.tv_sec = opt_.read_timeout_ms / 1000;
      tv.tv_usec = (opt_.read_timeout_ms % 1000) * 1000;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }

    // Admission control at accept time, on this thread: the in-flight
    // count is exact (handlers decrement only after their slot's work is
    // done), so saturation answers `busy` deterministically instead of
    // queueing the connection behind a full pool.
    int inflight = inflight_.load(std::memory_order_relaxed);
    bool admitted = false;
    while (inflight < opt_.max_inflight) {
      if (inflight_.compare_exchange_weak(inflight, inflight + 1,
                                          std::memory_order_relaxed)) {
        admitted = true;
        break;
      }
    }
    if (!admitted) {
      bounced_.fetch_add(1, std::memory_order_relaxed);
      busy.Add(1);
      wire::Conn conn(fd);  // takes ownership; closes on scope exit
      conn.WriteAll("hcrf 1 busy\n");
      continue;
    }
    conns.Submit([this, fd] {
      HandleConnection(fd);
      inflight_.fetch_sub(1, std::memory_order_relaxed);
    });
  }

  // Graceful drain: stop accepting (unlink first, so new connect()s fail
  // fast instead of queueing on a dying socket), finish every admitted
  // connection, then settle the cache write-behind queue. The gauge reads
  // 1 for the whole drain.
  draining.Set(1);
  if (owns_socket_) {
    ::unlink(opt_.socket_path.c_str());
    owns_socket_ = false;
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  conns.RunAndWait();
  session_.Drain();
  draining.Set(0);
}

void Server::HandleConnection(int fd) {
  wire::Conn conn(fd);
  obs::Phase connection_phase({"server", "connection"});
  static obs::Counter& conn_count = obs::GetCounter("server.connections");
  conn_count.Add(1);

  const auto send_error = [&conn](const std::string& message) {
    wire::WritePayload(conn, "hcrf 1 error", message);
  };

  try {
    std::string line;
    if (!conn.ReadLine(&line)) return;  // closed or timed out: no reply
    const std::vector<std::string_view> toks = wire::SplitTokens(line);
    if (toks.size() < 3 || toks[0] != "hcrf" || toks[1] != "1") {
      send_error("bad request line: " + line);
      return;
    }
    const std::string verb(toks[2]);

    if (verb == "ping" && toks.size() == 3) {
      conn.WriteAll("hcrf 1 ok\n");
    } else if (verb == "stats" && toks.size() == 3) {
      wire::WritePayload(conn, "hcrf 1 stats", obs::Registry::Shared().Json());
    } else if (verb == "cache-stats" && toks.size() == 3) {
      wire::WritePayload(conn, "hcrf 1 cache-stats", CacheStatsDoc(session_));
    } else if ((verb == "submit" || verb == "delta") && toks.size() == 4) {
      const std::optional<long> n = io::TryParseLong(toks[3]);
      if (!n || *n < 0 || *n > wire::kMaxBatchRequests) {
        send_error("bad " + verb + " count: " + std::string(toks[3]));
        return;
      }
      std::vector<BatchRequest> requests;
      requests.reserve(static_cast<size_t>(*n));
      for (long i = 0; i < *n; ++i) {
        // Both readers throw WireError; a delta block additionally carries
        // its perturbation list and opts the request into warm-start
        // seeding from the session's near-key index.
        if (verb == "delta") {
          requests.push_back(wire::ReadDeltaRequest(conn));
          requests.back().allow_warm_start = true;
        } else {
          requests.push_back(wire::ReadRequest(conn));
        }
      }
      connection_phase.set_detail(verb + " " + std::to_string(*n));
      const BatchReport report = session_.RunBatch(requests);
      std::string head =
          "hcrf 1 results " + std::to_string(report.items.size()) + "\n";
      conn.WriteAll(head);
      for (size_t i = 0; i < report.items.size(); ++i) {
        wire::WriteItem(conn, i, report.items[i]);
      }
      conn.WriteAll("end\n");
    } else {
      send_error("unknown verb: " + verb);
      return;
    }
    served_.fetch_add(1, std::memory_order_relaxed);
  } catch (const wire::WireError& e) {
    send_error(e.what());
  } catch (const std::exception& e) {
    // Parser errors from a payload document (io::HclError et al.) are the
    // client's mistake, reported on its own connection; the daemon lives.
    send_error(e.what());
  }
}

}  // namespace hcrf::service
