#include "service/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>

#include "io/hcl.h"

namespace hcrf::service::wire {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

[[noreturn]] void FailTruncated(const std::string& what) {
  throw WireError("truncated stream while reading " + what);
}

template <typename T>
void AppendNumber(std::string& out, T v) {
  char digits[24];
  const std::to_chars_result r =
      std::to_chars(digits, digits + sizeof(digits), v);
  out.append(digits, r.ptr);
}

/// Appends `<keyword> <bytes>\n` + payload to a block being built.
void AppendPayload(std::string& block, std::string_view keyword,
                   std::string_view payload) {
  block.reserve(block.size() + keyword.size() + 24 + payload.size());
  block += keyword;
  block += ' ';
  AppendNumber(block, payload.size());
  block += '\n';
  block += payload;
}

/// The `request` block: id line plus the loop, machine and options
/// payloads.
std::string RequestBlock(const BatchRequest& request) {
  const std::string loop = io::DumpLoop(*request.loop);
  const std::string machine = io::DumpMachine(request.machine);
  const std::string options = io::DumpOptions(request.options);
  std::string block;
  block.reserve(128 + request.id.size() + loop.size() + machine.size() +
                options.size());
  block += "request ";
  block += request.id;
  block += '\n';
  AppendPayload(block, "loop", loop);
  AppendPayload(block, "machine", machine);
  AppendPayload(block, "options", options);
  return block;
}

}  // namespace

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

bool Conn::ReadLine(std::string* line) {
  line->clear();
  while (true) {
    const std::size_t nl = buf_.find('\n', pos_);
    if (nl != std::string::npos) {
      line->assign(buf_, pos_, nl - pos_);
      pos_ = nl + 1;
      if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = 0;
      }
      return true;
    }
    char chunk[kReadChunk];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n == 0) {
      if (buf_.size() == pos_) return false;  // clean EOF between frames
      FailTruncated("a line");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("read: ") + std::strerror(errno));
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

void Conn::ReadExact(std::size_t n, std::string* out) {
  out->clear();
  out->reserve(n);
  // Drain the lookahead buffer first, then read the remainder directly.
  const std::size_t buffered = std::min(n, buf_.size() - pos_);
  out->append(buf_, pos_, buffered);
  pos_ += buffered;
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  while (out->size() < n) {
    char chunk[kReadChunk];
    const std::size_t want = std::min(n - out->size(), sizeof(chunk));
    const ssize_t got = ::read(fd_, chunk, want);
    if (got == 0) FailTruncated("a payload");
    if (got < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("read: ") + std::strerror(errno));
    }
    out->append(chunk, static_cast<std::size_t>(got));
  }
}

bool Conn::WriteAll(std::string_view text) {
  std::size_t off = 0;
  while (off < text.size()) {
    // MSG_NOSIGNAL: a peer that closed mid-write must surface as an
    // EPIPE return (-> false), not a process-killing SIGPIPE — WriteAll
    // is documented "never fatal" and both ends rely on that.
    const ssize_t n = ::send(fd_, text.data() + off, text.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::vector<std::string_view> SplitTokens(std::string_view line) {
  std::vector<std::string_view> toks;
  std::size_t i = 0;
  while (i < line.size()) {
    const std::size_t sp = line.find(' ', i);
    if (sp == std::string_view::npos) {
      toks.emplace_back(line.substr(i));
      break;
    }
    toks.emplace_back(line.substr(i, sp - i));
    i = sp + 1;
  }
  return toks;
}

std::string ReadPayload(Conn& conn, const std::string& keyword) {
  std::string line;
  if (!conn.ReadLine(&line)) FailTruncated("'" + keyword + "' frame");
  const std::vector<std::string_view> toks = SplitTokens(line);
  if (toks.size() != 2 || toks[0] != keyword) {
    throw WireError("expected '" + keyword + " <bytes>', got: " + line);
  }
  const std::optional<long> bytes = io::TryParseLong(toks[1]);
  if (!bytes || *bytes < 0 || *bytes > kMaxPayloadBytes) {
    throw WireError("bad '" + keyword + "' byte count: " +
                    std::string(toks[1]));
  }
  std::string payload;
  conn.ReadExact(static_cast<std::size_t>(*bytes), &payload);
  return payload;
}

void WritePayload(Conn& conn, std::string_view keyword,
                  std::string_view payload) {
  std::string block;
  AppendPayload(block, keyword, payload);
  conn.WriteAll(block);
}

void WriteRequest(Conn& conn, const BatchRequest& request) {
  for (int v : request.overrides.producer_latency) {
    if (v > 0) {
      throw WireError("request '" + request.id +
                      "' carries latency overrides, which the wire format "
                      "does not transmit");
    }
  }
  conn.WriteAll(RequestBlock(request));
}

BatchRequest ReadRequest(Conn& conn) {
  std::string line;
  if (!conn.ReadLine(&line)) FailTruncated("a 'request' block");
  if (line.rfind("request ", 0) != 0 || line.size() <= 8) {
    throw WireError("expected 'request <id>', got: " + line);
  }
  BatchRequest req;
  req.id = line.substr(8);
  const std::string loop_doc = ReadPayload(conn, "loop");
  const std::string machine_doc = ReadPayload(conn, "machine");
  const std::string options_doc = ReadPayload(conn, "options");
  // The strict .hcl parsers do the real validation; their HclErrors
  // propagate and become an `error` reply for this connection.
  req.loop = std::make_shared<workload::Loop>(
      io::ParseLoop(loop_doc, "<wire:" + req.id + ">"));
  req.machine = io::ParseMachine(machine_doc, "<wire:" + req.id + ">");
  req.options = io::ParseOptions(options_doc, "<wire:" + req.id + ">");
  return req;
}

void WriteDeltaRequest(Conn& conn, const BatchRequest& request) {
  std::string block = RequestBlock(request);
  // Only the active (index, latency) pairs travel: zero entries are
  // behaviorally inert (LatencyOverrides::For falls back), and the server
  // re-canonicalizes anyway.
  const std::vector<int>& pl = request.overrides.producer_latency;
  long active = 0;
  for (int v : pl) {
    if (v > 0) ++active;
  }
  block += "overrides ";
  AppendNumber(block, active);
  block += '\n';
  for (std::size_t i = 0; i < pl.size(); ++i) {
    if (pl[i] > 0) {
      block += "override ";
      AppendNumber(block, i);
      block += ' ';
      AppendNumber(block, pl[i]);
      block += '\n';
    }
  }
  conn.WriteAll(block);
}

BatchRequest ReadDeltaRequest(Conn& conn) {
  BatchRequest req = ReadRequest(conn);
  std::string line;
  if (!conn.ReadLine(&line)) FailTruncated("an 'overrides' count");
  std::vector<std::string_view> toks = SplitTokens(line);
  const int num_slots = req.loop->ddg.NumSlots();
  std::optional<long> count;
  if (toks.size() == 2 && toks[0] == "overrides") {
    count = io::TryParseLong(toks[1]);
  }
  if (!count || *count < 0 || *count > num_slots) {
    throw WireError("expected 'overrides <count <= " +
                    std::to_string(num_slots) + ">', got: " + line);
  }
  for (long k = 0; k < *count; ++k) {
    if (!conn.ReadLine(&line)) FailTruncated("an 'override' entry");
    toks = SplitTokens(line);
    std::optional<long> index;
    std::optional<long> latency;
    if (toks.size() == 3 && toks[0] == "override") {
      index = io::TryParseLong(toks[1]);
      latency = io::TryParseLong(toks[2]);
    }
    // Latencies are bounded by the payload cap's spirit: a perturbation
    // beyond 1M cycles is a protocol error, not a machine.
    if (!index || *index < 0 || *index >= num_slots || !latency ||
        *latency <= 0 || *latency > 1'000'000) {
      throw WireError("expected 'override <node < " +
                      std::to_string(num_slots) +
                      "> <latency in [1, 1000000]>', got: " + line);
    }
    std::vector<int>& pl = req.overrides.producer_latency;
    if (static_cast<long>(pl.size()) <= *index) {
      pl.resize(static_cast<std::size_t>(*index) + 1, 0);
    }
    pl[static_cast<std::size_t>(*index)] = static_cast<int>(*latency);
  }
  return req;
}

void WriteItem(Conn& conn, std::size_t index, const BatchItem& item) {
  const std::string result =
      item.error.empty() ? io::DumpResult(item.result) : std::string();
  std::string block;
  block.reserve(64 + item.error.size() + result.size());
  block += "item ";
  AppendNumber(block, index);
  block += item.ok ? " ok" : " failed";
  block += item.cache_hit ? " hit\n" : " fresh\n";
  if (!item.error.empty()) {
    AppendPayload(block, "error", item.error);
  } else {
    AppendPayload(block, "result", result);
  }
  conn.WriteAll(block);
}

ReplyItem ReadItem(Conn& conn) {
  std::string line;
  if (!conn.ReadLine(&line)) FailTruncated("an 'item' block");
  const std::vector<std::string_view> toks = SplitTokens(line);
  if (toks.size() != 4 || toks[0] != "item" ||
      (toks[2] != "ok" && toks[2] != "failed") ||
      (toks[3] != "hit" && toks[3] != "fresh")) {
    throw WireError("expected 'item <i> <ok|failed> <hit|fresh>', got: " +
                    line);
  }
  ReplyItem item;
  item.id = std::string(toks[1]);
  item.ok = toks[2] == "ok";
  item.cache_hit = toks[3] == "hit";
  // The payload keyword discriminates: items with an error message carry
  // it verbatim; everything else carries the result document.
  std::string header;
  if (!conn.ReadLine(&header)) FailTruncated("an item payload");
  const std::vector<std::string_view> htoks = SplitTokens(header);
  if (htoks.size() != 2 || (htoks[0] != "result" && htoks[0] != "error")) {
    throw WireError("expected 'result'/'error' payload, got: " + header);
  }
  const std::optional<long> bytes = io::TryParseLong(htoks[1]);
  if (!bytes || *bytes < 0 || *bytes > kMaxPayloadBytes) {
    throw WireError("bad item payload byte count: " + std::string(htoks[1]));
  }
  std::string payload;
  conn.ReadExact(static_cast<std::size_t>(*bytes), &payload);
  if (htoks[0] == "error") {
    item.error = payload;
  } else {
    item.result = io::ParseResult(payload, "<wire:item " + item.id + ">");
  }
  return item;
}

}  // namespace hcrf::service::wire
