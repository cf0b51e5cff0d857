// Framing helpers for the daemon's wire protocol (see service/server.h
// for the grammar). Shared by the server and the client so the two ends
// can never drift: one buffered line/payload reader over a connected
// socket fd, and one encoder/decoder pair per protocol block.
//
// The reader is deliberately byte-exact: a line is everything up to '\n',
// a payload is exactly the announced byte count — no lookahead, no
// resynchronization. A malformed or truncated stream throws WireError;
// the server answers it with `hcrf 1 error`, the client surfaces it.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "service/batch.h"

namespace hcrf::service::wire {

/// Protocol violation: bad framing, oversized payload, truncated stream.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& message)
      : std::runtime_error(message) {}
};

/// Sanity caps: a submit larger than this (or a single document bigger
/// than this) is a protocol error, not a workload.
inline constexpr long kMaxBatchRequests = 4096;
inline constexpr long kMaxPayloadBytes = 64L * 1024 * 1024;

/// Buffered reader/writer over a connected stream socket. Owns the fd
/// (closed on destruction). Reads use plain ::read and honor the
/// SO_RCVTIMEO configured by the acceptor/connector; short writes are
/// retried until complete.
class Conn {
 public:
  explicit Conn(int fd) : fd_(fd) {}
  ~Conn();

  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Reads up to the next '\n' (consumed, not returned). Returns false
  /// on clean EOF before any byte; throws WireError on EOF mid-line or
  /// a read error/timeout.
  bool ReadLine(std::string* line);

  /// Reads exactly `n` bytes. Throws WireError on EOF or error.
  void ReadExact(std::size_t n, std::string* out);

  /// Writes all of `text`; returns false on a write error (connection
  /// gone — callers treat the reply as undeliverable, never fatal).
  /// Sends with MSG_NOSIGNAL, so a peer closing mid-write yields EPIPE
  /// here instead of delivering SIGPIPE to the process.
  bool WriteAll(std::string_view text);

  int fd() const { return fd_; }

 private:
  int fd_;
  std::string buf_;       ///< Bytes read but not yet consumed.
  std::size_t pos_ = 0;   ///< Consumption cursor into buf_.
};

/// Splits on single spaces (the protocol never uses other whitespace).
/// The tokens view `line`, which must outlive them.
std::vector<std::string_view> SplitTokens(std::string_view line);

// Every Write* below builds its whole block in one buffer and sends it
// with one WriteAll: a block is never split across writes, and per-block
// writes let the peer decode block i while block i+1 is being encoded.

/// Reads `<keyword> <bytes>` + payload; enforces kMaxPayloadBytes.
std::string ReadPayload(Conn& conn, const std::string& keyword);
/// Writes `<keyword> <bytes>\n` + payload (the server's sized replies use
/// it with a `hcrf 1 <verb>` keyword).
void WritePayload(Conn& conn, std::string_view keyword,
                  std::string_view payload);

/// One `request` block: encode on the client, decode on the server.
/// Latency overrides are not part of the wire format; WriteRequest
/// throws WireError when a request carries active override entries
/// (explicit refusal over silent loss).
void WriteRequest(Conn& conn, const BatchRequest& request);
BatchRequest ReadRequest(Conn& conn);

/// One `delta` request block: a regular request block followed by its
/// perturbation list (`overrides <k>` then k `override <node> <latency>`
/// lines — only active entries travel). Unlike WriteRequest this pair
/// DOES transmit latency overrides: a what-if delta is exactly a base
/// request plus perturbations. The decoder validates node ids against
/// the loop and leaves warm-start policy to the server's verb handler.
void WriteDeltaRequest(Conn& conn, const BatchRequest& request);
BatchRequest ReadDeltaRequest(Conn& conn);

/// One `item` result block of a `results` reply.
struct ReplyItem {
  std::string id;  ///< Request index rendered by the server ("0", "1", …).
  bool ok = false;
  bool cache_hit = false;
  std::string error;  ///< Set on failed items (no result payload then).
  core::ScheduleResult result;
};
void WriteItem(Conn& conn, std::size_t index, const BatchItem& item);
ReplyItem ReadItem(Conn& conn);

}  // namespace hcrf::service::wire
