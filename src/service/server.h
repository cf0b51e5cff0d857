// Resident scheduling daemon: a line-framed request protocol over a Unix
// domain socket, serving batch submissions from one long-lived
// SchedulerService session.
//
// Wire protocol (version 1). Every frame is a text line; binary-free,
// and every variable-length payload is preceded by its exact byte count,
// so the stream parses without lookahead. Payload documents reuse the
// strict .hcl parser/dumper (io/hcl.h) — the daemon accepts exactly what
// the files on disk contain, with the same error discipline.
//
//   client -> server (one request per connection):
//     hcrf 1 ping
//     hcrf 1 stats                       # obs registry as JSON
//     hcrf 1 cache-stats                 # tier + disk-census counters
//     hcrf 1 submit <n>                  # n scheduling requests follow
//       request <id>                     # then, per request:
//       loop <bytes>\n<hcl 1 loop doc>
//       machine <bytes>\n<hcl 1 machine doc>
//       options <bytes>\n<hcl 1 options doc>
//     hcrf 1 delta <n>                   # what-if: request blocks as in
//       ... request block ...            # submit, each followed by its
//       overrides <k>                    # perturbation list; the session
//       override <node> <latency>  (xk)  # warm-starts from near-key seeds
//
//   server -> client:
//     hcrf 1 ok                          # ping
//     hcrf 1 busy                        # admission control (see below)
//     hcrf 1 error <bytes>\n<message>    # malformed request
//     hcrf 1 stats <bytes>\n<json>
//     hcrf 1 cache-stats <bytes>\n<hcl 1 cache-stats doc>
//     hcrf 1 results <n>                 # then, per item:
//       item <index> <ok|failed> <hit|fresh>
//       result <bytes>\n<hcl 1 result doc>   # xor, on a failed load:
//       error <bytes>\n<message>
//     end
//
// Admission control / backpressure: at most `max_inflight` connections
// are in service at once. The check happens at accept time on the poll
// loop — a saturated server answers `hcrf 1 busy` and closes instead of
// queueing, so clients get an explicit signal rather than unbounded
// latency. Unix sockets accept in FIFO order, which makes the busy path
// deterministic to test: fill the slots with stalled submissions, and
// the next connection must bounce.
//
// Concurrency model: accepted connections run as TaskGroup tasks on a
// WorkerPool the server owns, sized to `max_inflight` — NOT the
// process-shared pool, whose hardware_concurrency - 1 sizing is zero
// workers on a single-core host (tasks would then only run when the
// drain path steals them, i.e. never while serving). A dedicated pool
// guarantees every admitted connection a lane and keeps connection
// handling out of the scheduling lanes. Handlers schedule through the
// shared SchedulerService. Concurrent RunBatch calls interleave their
// items on the process pool: each handler runs a lane of its own batch,
// so a one-request `delta` never waits for a large batch to finish; it
// competes with that batch's lanes for the CPUs.
//
// Drain semantics: RequestStop() is async-signal-safe (it only writes
// the self-pipe; the CLI wires SIGTERM/SIGINT to it). The poll loop then
// stops accepting, unlinks the socket path, finishes every in-flight
// connection, and settles the cache write-behind queue before Serve()
// returns — after a clean drain the disk tier holds every entry the
// session produced.
#pragma once

#include <atomic>
#include <string>

#include "perf/thread_pool.h"
#include "service/session.h"

namespace hcrf::service {

struct ServerOptions {
  /// Filesystem path of the listening socket. Created on Start();
  /// unlinked on drain. Start() fails if the path is already in use.
  std::string socket_path;
  /// Connections in service at once; further accepts answer `busy`.
  int max_inflight = 4;
  /// Per-recv timeout: a wedged client cannot hold a slot (or the drain)
  /// hostage forever. 0 = no timeout.
  int read_timeout_ms = 30000;
  /// The resident session's configuration (cache stack, parallelism).
  ServiceConfig service;
};

class Server {
 public:
  explicit Server(const ServerOptions& opt);
  ~Server();  ///< Stops and drains if Serve() is still running.

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens on `socket_path`. Throws std::runtime_error on
  /// socket/bind/listen failure (including a path already in use).
  void Start();

  /// Accepts and serves until RequestStop(); returns after every
  /// in-flight connection finished and the cache drained. Call Start()
  /// first.
  void Serve();

  /// Requests a graceful drain. Async-signal-safe (one write() to the
  /// self-pipe); callable from any thread or a signal handler, before or
  /// during Serve().
  void RequestStop();

  SchedulerService& session() { return session_; }
  const ServerOptions& options() const { return opt_; }

  /// Connections fully served (any verb) since Start().
  long served() const { return served_.load(std::memory_order_relaxed); }
  /// Connections bounced with `busy` since Start().
  long bounced() const { return bounced_.load(std::memory_order_relaxed); }

 private:
  void HandleConnection(int fd);

  ServerOptions opt_;
  SchedulerService session_;
  /// One worker per admission slot, so an admitted connection always has
  /// a thread even where the shared pool has none (see file comment).
  perf::WorkerPool conn_pool_;
  int listen_fd_ = -1;
  /// True only once bind() succeeded, i.e. this process created the
  /// socket file. Gates every unlink: a Start() that lost the bind race
  /// (EADDRINUSE) must not tear down the running daemon's socket.
  bool owns_socket_ = false;
  int stop_pipe_[2] = {-1, -1};  ///< [read, write]; write side is the
                                 ///< async-signal-safe stop request.
  std::atomic<int> inflight_{0};
  std::atomic<long> served_{0};
  std::atomic<long> bounced_{0};
};

}  // namespace hcrf::service
