#include "service/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "io/hcl.h"

namespace hcrf::service {

namespace {

[[noreturn]] void FailErrno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Reads the `hcrf 1 <verb> ...` reply line into `*line` and returns its
/// tokens, which view `*line`; throws on EOF.
std::vector<std::string_view> ReadReplyLine(wire::Conn& conn,
                                            std::string* line) {
  if (!conn.ReadLine(line)) {
    throw wire::WireError("connection closed before a reply");
  }
  std::vector<std::string_view> toks = wire::SplitTokens(*line);
  if (toks.size() < 3 || toks[0] != "hcrf" || toks[1] != "1") {
    throw wire::WireError("bad reply line: " + *line);
  }
  return toks;
}

/// Called after a request write failed. A daemon that bounces a connection
/// (`busy` at accept, or an `error` reply) writes its reply line and closes,
/// possibly before the request lands, so the write fails with EPIPE while
/// the reply is already waiting. Returns that pending `busy`/`error` reply
/// for HandleCommonReply; throws std::runtime_error(`lost`) when no such
/// reply line is there.
std::vector<std::string_view> ReadBouncedReply(wire::Conn& conn,
                                               std::string* line,
                                               const std::string& lost) {
  try {
    std::vector<std::string_view> toks = ReadReplyLine(conn, line);
    if (toks[2] == "busy" || toks[2] == "error") return toks;
  } catch (const wire::WireError&) {
    // No reply line: EOF, a read error or a malformed line.
  }
  throw std::runtime_error(lost);
}

/// Decodes the replies every verb can get: `busy` (returns true) and
/// `error <bytes>` (throws with the server's message).
bool HandleCommonReply(wire::Conn& conn,
                       const std::vector<std::string_view>& toks) {
  if (toks[2] == "busy") return true;
  if (toks[2] == "error" && toks.size() == 4) {
    const std::optional<long> bytes = io::TryParseLong(toks[3]);
    if (bytes && *bytes >= 0 && *bytes <= wire::kMaxPayloadBytes) {
      std::string message;
      conn.ReadExact(static_cast<std::size_t>(*bytes), &message);
      throw std::runtime_error("server error: " + message);
    }
    throw wire::WireError("bad error reply byte count");
  }
  return false;
}

/// Reads the sized payload of a `hcrf 1 <verb> <bytes>` reply.
std::string ReadReplyPayload(wire::Conn& conn,
                             const std::vector<std::string_view>& toks) {
  if (toks.size() != 4) {
    throw wire::WireError("expected a sized reply, got verb '" +
                          std::string(toks[2]) + "' with " +
                          std::to_string(toks.size()) +
                          " tokens");
  }
  const std::optional<long> bytes = io::TryParseLong(toks[3]);
  if (!bytes || *bytes < 0 || *bytes > wire::kMaxPayloadBytes) {
    throw wire::WireError("bad reply byte count: " + std::string(toks[3]));
  }
  std::string payload;
  conn.ReadExact(static_cast<std::size_t>(*bytes), &payload);
  return payload;
}

}  // namespace

Client::Client(std::string socket_path, int read_timeout_ms)
    : socket_path_(std::move(socket_path)),
      read_timeout_ms_(read_timeout_ms) {}

int Client::Connect() const {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("submit: socket path too long: " + socket_path_);
  }
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) FailErrno("submit: socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    FailErrno("submit: connect " + socket_path_);
  }
  if (read_timeout_ms_ > 0) {
    timeval tv{};
    tv.tv_sec = read_timeout_ms_ / 1000;
    tv.tv_usec = (read_timeout_ms_ % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  return fd;
}

bool Client::Ping() {
  wire::Conn conn(Connect());
  std::string line;
  const std::vector<std::string_view> toks =
      conn.WriteAll("hcrf 1 ping\n")
          ? ReadReplyLine(conn, &line)
          : ReadBouncedReply(conn, &line,
                             "submit: connection lost while pinging");
  if (HandleCommonReply(conn, toks)) return false;
  if (toks[2] != "ok") throw wire::WireError("unexpected ping reply");
  return true;
}

SubmitReply Client::Submit(const std::vector<BatchRequest>& requests) {
  return SubmitVerb("submit", requests);
}

SubmitReply Client::SubmitDelta(const std::vector<BatchRequest>& requests) {
  return SubmitVerb("delta", requests);
}

SubmitReply Client::SubmitVerb(const std::string& verb,
                               const std::vector<BatchRequest>& requests) {
  if (static_cast<long>(requests.size()) > wire::kMaxBatchRequests) {
    throw wire::WireError("batch exceeds the protocol request cap");
  }
  wire::Conn conn(Connect());
  std::string line;
  std::vector<std::string_view> toks;
  if (conn.WriteAll("hcrf 1 " + verb + " " + std::to_string(requests.size()) +
                    "\n")) {
    // Request writes that fail past the header are not fatal: the reply
    // read below picks up a bounce just the same.
    for (const BatchRequest& req : requests) {
      if (verb == "delta") {
        wire::WriteDeltaRequest(conn, req);
      } else {
        wire::WriteRequest(conn, req);
      }
    }
    toks = ReadReplyLine(conn, &line);
  } else {
    toks = ReadBouncedReply(conn, &line,
                            verb + ": connection lost while submitting");
  }

  SubmitReply reply;
  if (HandleCommonReply(conn, toks)) {
    reply.busy = true;
    return reply;
  }
  if (toks[2] != "results" || toks.size() != 4) {
    throw wire::WireError("unexpected submit reply verb: " +
                          std::string(toks[2]));
  }
  const std::optional<long> n = io::TryParseLong(toks[3]);
  if (!n || *n < 0 || *n > wire::kMaxBatchRequests) {
    throw wire::WireError("bad results count: " + std::string(toks[3]));
  }
  reply.items.reserve(static_cast<std::size_t>(*n));
  for (long i = 0; i < *n; ++i) {
    reply.items.push_back(wire::ReadItem(conn));
  }
  std::string end_line;
  if (!conn.ReadLine(&end_line) || end_line != "end") {
    throw wire::WireError("missing 'end' after results");
  }
  return reply;
}

std::string Client::Stats() {
  wire::Conn conn(Connect());
  std::string line;
  const std::vector<std::string_view> toks =
      conn.WriteAll("hcrf 1 stats\n")
          ? ReadReplyLine(conn, &line)
          : ReadBouncedReply(conn, &line,
                             "submit: connection lost requesting stats");
  if (HandleCommonReply(conn, toks)) {
    throw std::runtime_error("server busy; stats unavailable");
  }
  if (toks[2] != "stats") {
    throw wire::WireError("unexpected stats reply verb: " +
                          std::string(toks[2]));
  }
  return ReadReplyPayload(conn, toks);
}

std::string Client::CacheStats() {
  wire::Conn conn(Connect());
  std::string line;
  const std::vector<std::string_view> toks =
      conn.WriteAll("hcrf 1 cache-stats\n")
          ? ReadReplyLine(conn, &line)
          : ReadBouncedReply(conn, &line,
                             "submit: connection lost requesting stats");
  if (HandleCommonReply(conn, toks)) {
    throw std::runtime_error("server busy; cache-stats unavailable");
  }
  if (toks[2] != "cache-stats") {
    throw wire::WireError("unexpected cache-stats reply verb: " +
                          std::string(toks[2]));
  }
  return ReadReplyPayload(conn, toks);
}

}  // namespace hcrf::service
