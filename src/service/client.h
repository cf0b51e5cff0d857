// Client for the resident scheduling daemon (service/server.h): connects
// to the Unix socket, speaks the line-framed wire protocol, and returns
// parsed results. One connection per call — the protocol is one request
// per connection, which keeps the daemon's admission control exact.
//
// Error model: connect/framing/parse failures throw std::runtime_error
// (WireError for protocol violations). Saturation is NOT an error — a
// `busy` reply surfaces as SubmitReply::busy so callers can back off and
// retry; per-request scheduling failures come back as failed items, the
// same contract as service::RunBatch.
#pragma once

#include <string>
#include <vector>

#include "service/batch.h"
#include "service/wire.h"

namespace hcrf::service {

struct SubmitReply {
  bool busy = false;  ///< Server saturated; no items. Back off and retry.
  std::vector<wire::ReplyItem> items;  ///< In request order.
};

class Client {
 public:
  /// `read_timeout_ms` bounds every blocking read (0 = no timeout).
  /// Batch submissions schedule on the far side before the reply, so the
  /// default is generous.
  explicit Client(std::string socket_path, int read_timeout_ms = 120000);
  virtual ~Client() = default;
  Client(const Client&) = default;
  Client& operator=(const Client&) = default;
  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  const std::string& socket_path() const { return socket_path_; }

  /// True if the daemon answers `ok`; false when saturated (`busy`).
  /// Throws when the socket is unreachable.
  bool Ping();

  /// Submits `requests` for scheduling. Results are bit-identical to a
  /// local RunBatch of the same requests (the daemon schedules through
  /// the same engine and serialization). Requests carrying latency
  /// overrides are refused locally (WireError) — the wire format does
  /// not transmit them.
  SubmitReply Submit(const std::vector<BatchRequest>& requests);

  /// What-if submission: like Submit, but each request's latency
  /// overrides travel as an explicit perturbation list and the daemon
  /// warm-starts from its near-key cache index (seeding a neighbouring
  /// schedule and repairing the delta instead of rescheduling cold;
  /// falls back cold when no usable seed exists).
  SubmitReply SubmitDelta(const std::vector<BatchRequest>& requests);

  /// The daemon's obs metrics registry as JSON.
  std::string Stats();

  /// The daemon's cache counters + disk census as an `hcl 1 cache-stats`
  /// document.
  std::string CacheStats();

 protected:
  /// Connects and returns the fd; throws std::runtime_error on failure.
  /// Virtual so a test can hand the client a prepared socket.
  virtual int Connect() const;

 private:
  /// Submit/SubmitDelta body: verb + request blocks, then the results
  /// reply.
  SubmitReply SubmitVerb(const std::string& verb,
                         const std::vector<BatchRequest>& requests);

  std::string socket_path_;
  int read_timeout_ms_;
};

}  // namespace hcrf::service
