#include "io/hcl.h"

#include <unistd.h>

#include <atomic>

#include <algorithm>
#include <array>
#include <charconv>
#include <concepts>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>
#include <vector>

#include "io/scanner.h"

namespace hcrf::io {

// ---------------------------------------------------------------------------
// Scanner implementation (declared in io/scanner.h; shared with the
// manifest and sweep-spec parsers in service/)
// ---------------------------------------------------------------------------

[[noreturn]] void Fail(std::string_view file, int line,
                       const std::string& message) {
  throw HclError(file, line, message);
}

namespace {

/// Token boundaries: the separators (space, tab, CR) and the newline.
bool IsBreak(char c) {
  constexpr std::uint64_t kBreaks =
      1ull << ' ' | 1ull << '\t' | 1ull << '\r' | 1ull << '\n';
  const auto u = static_cast<unsigned char>(c);
  return u <= ' ' && ((kBreaks >> u) & 1) != 0;
}

}  // namespace

bool Scanner::Fill() {
  std::vector<std::string_view>& toks = line_.toks;
  const char* const data = text_.data();
  const std::size_t size = text_.size();
  std::size_t i = begin_;
  while (i < size) {
    ++number_;
    toks.clear();
    while (i < size && data[i] != '\n') {
      if (IsBreak(data[i])) {
        ++i;
        continue;
      }
      const std::size_t start = i;
      while (i < size && !IsBreak(data[i])) ++i;
      if (toks.empty() && data[start] == '#') {  // comment: skip the line
        while (i < size && data[i] != '\n') ++i;
        break;
      }
      toks.emplace_back(data + start, i - start);
    }
    ++i;  // past the newline
    if (toks.empty()) continue;  // blank or comment line
    begin_ = i;
    line_.number = last_ = number_;
    pending_ = true;
    return true;
  }
  begin_ = i;
  return false;
}

std::optional<long> TryParseLong(std::string_view tok) {
  long v = 0;
  auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
  if (ec != std::errc() || ptr != tok.data() + tok.size() || tok.empty()) {
    return std::nullopt;
  }
  return v;
}

std::optional<double> TryParseDouble(std::string_view tok) {
  double v = 0;
  auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
  if (ec != std::errc() || ptr != tok.data() + tok.size() || tok.empty()) {
    return std::nullopt;
  }
  return v;
}

long ScanLong(const Scanner& sc, int line, std::string_view tok,
              std::string_view what) {
  const std::optional<long> v = TryParseLong(tok);
  if (!v) {
    Fail(sc.file(), line,
         "expected integer for " + std::string(what) + ", got '" +
             std::string(tok) + "'");
  }
  return *v;
}

int ScanInt(const Scanner& sc, int line, std::string_view tok,
            std::string_view what) {
  const long v = ScanLong(sc, line, tok, what);
  if (v < INT32_MIN || v > INT32_MAX) {
    Fail(sc.file(), line, std::string(what) + " out of range");
  }
  return static_cast<int>(v);
}

double ScanDouble(const Scanner& sc, int line, std::string_view tok,
                  std::string_view what) {
  const std::optional<double> v = TryParseDouble(tok);
  if (!v) {
    Fail(sc.file(), line,
         "expected number for " + std::string(what) + ", got '" +
             std::string(tok) + "'");
  }
  return *v;
}

void WantToks(const Scanner& sc, const TokLine& tl, size_t n) {
  if (tl.toks.size() != n) {
    Fail(sc.file(), tl.number,
         "directive '" + std::string(tl.toks[0]) + "' expects " +
             std::to_string(n - 1) + " operand(s), got " +
             std::to_string(tl.toks.size() - 1));
  }
}

void ExpectHeader(Scanner& sc, std::string_view kind) {
  if (sc.Done()) Fail(sc.file(), 1, "empty document");
  const TokLine& tl = sc.Next();
  if (tl.toks[0] != "hcl" || tl.toks.size() != 3) {
    Fail(sc.file(), tl.number, "expected header 'hcl <version> <kind>'");
  }
  const int version = ScanInt(sc, tl.number, tl.toks[1], "version");
  if (version != kHclVersion) {
    Fail(sc.file(), tl.number,
         "unsupported hcl version " + std::to_string(version) +
             " (this build reads version " + std::to_string(kHclVersion) +
             ")");
  }
  if (tl.toks[2] != kind) {
    Fail(sc.file(), tl.number,
         "expected a '" + std::string(kind) + "' document, got '" +
             std::string(tl.toks[2]) + "'");
  }
}

namespace {

/// Builds a dump in one buffer, sized up front from the document's shape.
/// Every piece is written in place through a cursor: literals by memcpy,
/// numbers by std::to_chars (doubles in shortest round-trip form), so a
/// dump makes no temporary strings and, unless the size guess was short,
/// exactly one allocation.
class TextOut {
 public:
  explicit TextOut(std::size_t expected_bytes) { buf_.resize(expected_bytes); }

  /// The finished document.
  std::string Take() && {
    buf_.resize(len_);
    return std::move(buf_);
  }

  TextOut& operator<<(std::string_view s) {
    std::memcpy(Room(s.size()), s.data(), s.size());
    len_ += s.size();
    return *this;
  }
  TextOut& operator<<(char c) {
    *Room(1) = c;
    ++len_;
    return *this;
  }
  template <std::integral T>
    requires(!std::same_as<T, char> && !std::same_as<T, bool>)
  TextOut& operator<<(T v) {
    return Chars(v, 24);
  }
  TextOut& operator<<(double v) { return Chars(v, 32); }

 private:
  /// A cursor with at least `n` writable bytes behind it.
  char* Room(std::size_t n) {
    if (len_ + n > buf_.size()) {
      buf_.resize(std::max(2 * buf_.size(), len_ + n));
    }
    return buf_.data() + len_;
  }
  /// `max_chars` bounds the longest rendering of a T.
  template <typename T>
  TextOut& Chars(T v, std::size_t max_chars) {
    char* const p = Room(max_chars);
    len_ = static_cast<std::size_t>(std::to_chars(p, p + max_chars, v).ptr -
                                    buf_.data());
    return *this;
  }

  std::string buf_;
  std::size_t len_ = 0;  ///< Bytes written; buf_ beyond them is scratch.
};

}  // namespace

std::string FormatDouble(double v) {
  TextOut out(32);
  out << v;
  return std::move(out).Take();
}

namespace {

OpClass ParseOpClass(const Scanner& sc, int line, std::string_view tok) {
  static const std::array<std::string_view, kNumOpClasses> kNames = [] {
    std::array<std::string_view, kNumOpClasses> names;
    for (int i = 0; i < kNumOpClasses; ++i) {
      names[static_cast<size_t>(i)] = ToString(static_cast<OpClass>(i));
    }
    return names;
  }();
  for (int i = 0; i < kNumOpClasses; ++i) {
    if (tok == kNames[static_cast<size_t>(i)]) return static_cast<OpClass>(i);
  }
  Fail(sc.file(), line, "unknown op class '" + std::string(tok) + "'");
}

DepKind ParseDepKind(const Scanner& sc, int line, std::string_view tok) {
  static const std::array<std::pair<std::string_view, DepKind>, 4> kKinds = {{
      {ToString(DepKind::kFlow), DepKind::kFlow},
      {ToString(DepKind::kAnti), DepKind::kAnti},
      {ToString(DepKind::kOutput), DepKind::kOutput},
      {ToString(DepKind::kMem), DepKind::kMem},
  }};
  for (const auto& [name, kind] : kKinds) {
    if (tok == name) return kind;
  }
  Fail(sc.file(), line, "unknown dependence kind '" + std::string(tok) + "'");
}

core::BoundClass ParseBound(const Scanner& sc, int line,
                            std::string_view tok) {
  for (core::BoundClass b :
       {core::BoundClass::kFU, core::BoundClass::kMemPort,
        core::BoundClass::kRecurrence, core::BoundClass::kComm}) {
    if (tok == core::ToString(b)) return b;
  }
  Fail(sc.file(), line, "unknown bound class '" + std::string(tok) + "'");
}

core::ClusterPolicy ParsePolicy(const Scanner& sc, int line,
                                std::string_view tok) {
  if (std::optional<core::ClusterPolicy> p = ClusterPolicyFromName(tok)) {
    return *p;
  }
  Fail(sc.file(), line, "unknown cluster policy '" + std::string(tok) + "'");
}

// ---------------------------------------------------------------------------
// Graph body: shared between loop documents and embedded result graphs.
// ---------------------------------------------------------------------------

/// Bytes a graph body dumps to, rounded up: sizes a dump's one buffer (a
/// short guess costs one regrowth, never correctness).
std::size_t GraphBodyBytes(const DDG& g) {
  return 64 + g.name().size() + 32 * static_cast<std::size_t>(g.NumSlots()) +
         24 * static_cast<std::size_t>(g.NumEdges());
}

void DumpGraphBody(const DDG& g, TextOut& out) {
  // Graph names are serialized as a single token: whitespace/control
  // characters become '_' (and a leading '#' would read as a comment), so
  // every dump reparses. Kernel and synthetic names are already clean.
  const std::string& name = g.name();
  if (!name.empty()) {
    out << "name ";
    for (std::size_t i = 0; i < name.size(); ++i) {
      const char c = name[i];
      const bool unsafe =
          static_cast<unsigned char>(c) <= ' ' || (i == 0 && c == '#');
      out << (unsafe ? '_' : c);
    }
    out << '\n';
  }
  out << "invariants " << g.num_invariants() << '\n';
  out << "slots " << g.NumSlots() << '\n';
  for (NodeId v = 0; v < g.NumSlots(); ++v) {
    if (!g.IsAlive(v)) continue;
    const Node& n = g.node(v);
    out << "node " << v << ' ' << ToString(n.op);
    if (n.mem.has_value()) {
      out << " mem " << n.mem->array_id << ' ' << n.mem->base << ' '
          << n.mem->stride;
    }
    const std::span<const std::int32_t> uses = g.InvariantUses(v);
    if (!uses.empty()) {
      out << " inv " << uses.size();
      for (std::int32_t inv : uses) out << ' ' << inv;
    }
    if (n.inserted) out << " inserted";
    if (n.spill) out << " spill";
    out << '\n';
  }
  for (const Edge& e : g.Edges()) {
    out << "edge " << e.src << ' ' << e.dst << ' ' << ToString(e.kind) << ' '
        << e.distance << '\n';
  }
}

/// Accumulates graph directives and materializes the DDG (with tombstones
/// re-created and edges validated) when the section terminator is reached.
struct GraphBuilder {
  std::string name;
  int invariants = 0;
  int slots = -1;  ///< -1 until declared; must precede node/edge lines.
  struct NodeRec {
    Node node;
    bool defined = false;
    std::int32_t inv_begin = 0;  ///< The node's run of `inv_uses`.
    std::int32_t inv_count = 0;
  };
  std::vector<NodeRec> nodes;
  std::vector<std::int32_t> inv_uses;
  struct EdgeRec {
    NodeId src, dst;
    DepKind kind;
    int distance;
    int line;
  };
  std::vector<EdgeRec> edges;

  /// Returns true when the directive belongs to the graph body.
  bool Consume(const Scanner& sc, const TokLine& tl) {
    const std::string_view d = tl.toks[0];
    if (d == "name") {
      WantToks(sc, tl, 2);
      name = std::string(tl.toks[1]);
      return true;
    }
    if (d == "invariants") {
      WantToks(sc, tl, 2);
      invariants = ScanInt(sc, tl.number, tl.toks[1], "invariants");
      if (invariants < 0) Fail(sc.file(), tl.number, "invariants < 0");
      return true;
    }
    if (d == "slots") {
      WantToks(sc, tl, 2);
      slots = ScanInt(sc, tl.number, tl.toks[1], "slots");
      if (slots < 0) Fail(sc.file(), tl.number, "slots < 0");
      nodes.assign(static_cast<size_t>(slots), NodeRec{});
      edges.reserve(static_cast<size_t>(slots));  // typical: about one each
      return true;
    }
    if (d == "node") {
      ConsumeNode(sc, tl);
      return true;
    }
    if (d == "edge") {
      WantToks(sc, tl, 5);
      EdgeRec e{};
      e.src = ScanInt(sc, tl.number, tl.toks[1], "edge src");
      e.dst = ScanInt(sc, tl.number, tl.toks[2], "edge dst");
      e.kind = ParseDepKind(sc, tl.number, tl.toks[3]);
      e.distance = ScanInt(sc, tl.number, tl.toks[4], "edge distance");
      e.line = tl.number;
      edges.push_back(e);
      return true;
    }
    return false;
  }

  void ConsumeNode(const Scanner& sc, const TokLine& tl) {
    if (slots < 0) {
      Fail(sc.file(), tl.number, "'node' before 'slots' declaration");
    }
    if (tl.toks.size() < 3) {
      Fail(sc.file(), tl.number, "'node' expects '<id> <op> [attrs...]'");
    }
    const int id = ScanInt(sc, tl.number, tl.toks[1], "node id");
    if (id < 0 || id >= slots) {
      Fail(sc.file(), tl.number,
           "node id " + std::to_string(id) + " outside [0, " +
               std::to_string(slots) + ")");
    }
    NodeRec& rec = nodes[static_cast<size_t>(id)];
    if (rec.defined) {
      Fail(sc.file(), tl.number, "duplicate node id " + std::to_string(id));
    }
    rec.defined = true;
    rec.node.op = ParseOpClass(sc, tl.number, tl.toks[2]);
    size_t i = 3;
    while (i < tl.toks.size()) {
      const std::string_view attr = tl.toks[i];
      if (attr == "mem") {
        if (tl.toks.size() < i + 4) {
          Fail(sc.file(), tl.number, "'mem' expects '<array> <base> <stride>'");
        }
        MemRef mr;
        mr.array_id = ScanInt(sc, tl.number, tl.toks[i + 1], "mem array");
        mr.base = ScanLong(sc, tl.number, tl.toks[i + 2], "mem base");
        mr.stride = ScanLong(sc, tl.number, tl.toks[i + 3], "mem stride");
        rec.node.mem = mr;
        i += 4;
      } else if (attr == "inv") {
        if (i + 1 >= tl.toks.size()) {
          Fail(sc.file(), tl.number, "'inv' expects '<count> <ids...>'");
        }
        const int count = ScanInt(sc, tl.number, tl.toks[i + 1], "inv count");
        if (count < 0 || i + 2 + static_cast<size_t>(count) > tl.toks.size()) {
          Fail(sc.file(), tl.number, "'inv' id list shorter than its count");
        }
        // A repeated `inv` extends the run: nothing else appends to
        // inv_uses while one node line is read.
        if (rec.inv_count == 0) {
          rec.inv_begin = static_cast<std::int32_t>(inv_uses.size());
        }
        rec.inv_count += count;
        for (int k = 0; k < count; ++k) {
          inv_uses.push_back(
              ScanInt(sc, tl.number, tl.toks[i + 2 + k], "invariant id"));
        }
        i += 2 + static_cast<size_t>(count);
      } else if (attr == "inserted") {
        rec.node.inserted = true;
        ++i;
      } else if (attr == "spill") {
        rec.node.spill = true;
        ++i;
      } else {
        Fail(sc.file(), tl.number,
             "unknown node attribute '" + std::string(attr) + "'");
      }
    }
  }

  /// Moves the accumulated nodes into the graph: call once.
  DDG Build(const Scanner& sc, int end_line) {
    if (slots < 0) Fail(sc.file(), end_line, "graph missing 'slots'");
    DDG g(std::move(name));
    g.Reserve(slots, static_cast<int>(edges.size()));
    for (int i = 0; i < invariants; ++i) g.AddInvariant();
    for (int id = 0; id < slots; ++id) {
      const NodeRec& rec = nodes[static_cast<size_t>(id)];
      g.AddNode(rec.node);
      for (std::int32_t k = 0; k < rec.inv_count; ++k) {
        g.AddInvariantUse(id, inv_uses[static_cast<size_t>(rec.inv_begin + k)]);
      }
      if (!rec.defined) g.RemoveNode(id, /*force=*/true);
    }
    for (const EdgeRec& e : edges) {
      auto check_endpoint = [&](NodeId v, const char* which) {
        if (v < 0 || v >= slots ||
            !nodes[static_cast<size_t>(v)].defined) {
          Fail(sc.file(), e.line,
               std::string("dangling edge: ") + which + " node " +
                   std::to_string(v) + " is not defined");
        }
      };
      check_endpoint(e.src, "source");
      check_endpoint(e.dst, "destination");
      if (e.distance < 0) Fail(sc.file(), e.line, "edge distance < 0");
      if (e.src == e.dst && e.distance == 0) {
        Fail(sc.file(), e.line, "zero-distance self edge");
      }
      g.AddEdge(e.src, e.dst, e.kind, e.distance);
    }
    for (NodeId id = 0; id < slots; ++id) {
      for (std::int32_t inv : g.InvariantUses(id)) {
        if (inv < 0 || inv >= invariants) {
          Fail(sc.file(), end_line,
               "node " + std::to_string(id) + " uses invariant " +
                   std::to_string(inv) + " outside [0, " +
                   std::to_string(invariants) + ")");
        }
      }
    }
    std::string why;
    if (!g.Check(&why)) {
      Fail(sc.file(), end_line, "graph check failed: " + why);
    }
    return g;
  }

  /// Rejects distance-0 edges that close a cycle: no schedule can issue a
  /// node before itself, and the ordering assumes the distance-0 subgraph
  /// is acyclic. Names a node on the cycle, at the line of the cycle's
  /// edge into it. Loops only: a result graph is the scheduler's rewrite
  /// of a loop that passed.
  void CheckNoZeroDistanceCycle(const Scanner& sc, const DDG& g) const {
    // Ids that rise along every distance-0 edge already order the nodes
    // (generated loops are numbered that way).
    if (std::ranges::all_of(edges, [](const EdgeRec& e) {
          return e.distance != 0 || e.src < e.dst;
        })) {
      return;
    }
    // Kahn's walk: each node it cannot free keeps a distance-0
    // predecessor that is not freed either.
    std::vector<int> left(static_cast<size_t>(slots), 0);
    for (const Edge& e : g.Edges()) {
      if (e.distance == 0) ++left[static_cast<size_t>(e.dst)];
    }
    std::vector<NodeId> freed;
    for (NodeId v = 0; v < slots; ++v) {
      if (left[static_cast<size_t>(v)] == 0) freed.push_back(v);
    }
    for (size_t i = 0; i < freed.size(); ++i) {
      for (const Edge& e : g.OutEdges(freed[i])) {
        if (e.distance == 0 && --left[static_cast<size_t>(e.dst)] == 0) {
          freed.push_back(e.dst);
        }
      }
    }
    if (freed.size() == static_cast<size_t>(slots)) return;
    // So `slots` steps back from a node not freed end on a cycle.
    auto back = [&](NodeId v) {
      for (const Edge& e : g.InEdges(v)) {
        if (e.distance == 0 && left[static_cast<size_t>(e.src)] > 0) {
          return e.src;
        }
      }
      return kNoNode;
    };
    NodeId v = 0;
    while (left[static_cast<size_t>(v)] == 0) ++v;
    for (int step = 0; step < slots; ++step) v = back(v);
    const NodeId u = back(v);
    const auto edge = std::ranges::find_if(edges, [&](const EdgeRec& e) {
      return e.src == u && e.dst == v && e.distance == 0;
    });
    Fail(sc.file(), edge->line,
         "zero-distance dependence cycle through node " + std::to_string(v) +
             " (edge " + std::to_string(u) + " -> " + std::to_string(v) +
             ")");
  }
};

}  // namespace

HclError::HclError(std::string_view file, int line, const std::string& message)
    : std::runtime_error(std::string(file) + ":" + std::to_string(line) +
                         ": " + message),
      line_(line),
      message_(message) {}

std::optional<core::ClusterPolicy> ClusterPolicyFromName(
    std::string_view name) {
  for (core::ClusterPolicy p :
       {core::ClusterPolicy::kBalanced, core::ClusterPolicy::kRoundRobin,
        core::ClusterPolicy::kFirstFit}) {
    if (name == core::ToString(p)) return p;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Loops
// ---------------------------------------------------------------------------

std::string DumpLoop(const workload::Loop& loop) {
  TextOut out(64 + GraphBodyBytes(loop.ddg));
  out << "hcl 1 loop\n";
  out << "trip " << loop.trip << '\n';
  out << "invocations " << loop.invocations << '\n';
  DumpGraphBody(loop.ddg, out);
  out << "end\n";
  return std::move(out).Take();
}

workload::Loop ParseLoop(std::string_view text, std::string_view filename) {
  Scanner sc(text, filename);
  ExpectHeader(sc, "loop");
  workload::Loop loop;
  GraphBuilder gb;
  while (true) {
    if (sc.Done()) Fail(sc.file(), sc.LastLine(), "missing 'end'");
    const TokLine& tl = sc.Next();
    const std::string_view d = tl.toks[0];
    if (d == "end") {
      loop.ddg = gb.Build(sc, tl.number);
      gb.CheckNoZeroDistanceCycle(sc, loop.ddg);
      if (!sc.Done()) {
        Fail(sc.file(), sc.Peek().number, "content after 'end'");
      }
      return loop;
    }
    if (d == "trip") {
      WantToks(sc, tl, 2);
      loop.trip = ScanLong(sc, tl.number, tl.toks[1], "trip");
      if (loop.trip <= 0) Fail(sc.file(), tl.number, "trip must be positive");
    } else if (d == "invocations") {
      WantToks(sc, tl, 2);
      loop.invocations =
          ScanLong(sc, tl.number, tl.toks[1], "invocations");
      if (loop.invocations <= 0) {
        Fail(sc.file(), tl.number, "invocations must be positive");
      }
    } else if (!gb.Consume(sc, tl)) {
      Fail(sc.file(), tl.number, "unknown directive '" + std::string(d) + "'");
    }
  }
}

// ---------------------------------------------------------------------------
// Machine configurations
// ---------------------------------------------------------------------------

std::string DumpMachine(const MachineConfig& m) {
  TextOut out(256);
  out << "hcl 1 machine\n";
  out << "fus " << m.num_fus << '\n';
  out << "mem_ports " << m.num_mem_ports << '\n';
  out << "rf clusters " << m.rf.clusters << " cregs " << m.rf.cluster_regs
      << " sregs " << m.rf.shared_regs << " lp " << m.rf.lp << " sp "
      << m.rf.sp << " buses " << m.rf.buses << '\n';
  out << "clock_ns " << m.clock_ns << '\n';
  const LatencyTable& lat = m.lat;
  out << "lat fadd " << lat.fadd << " fmul " << lat.fmul << " fdiv "
      << lat.fdiv << " fsqrt " << lat.fsqrt << " load_hit " << lat.load_hit
      << " store " << lat.store << " load_miss " << lat.load_miss << " move "
      << lat.move << " loadr " << lat.loadr << " storer " << lat.storer
      << '\n';
  out << "end\n";
  return std::move(out).Take();
}

MachineConfig ParseMachine(std::string_view text, std::string_view filename) {
  Scanner sc(text, filename);
  ExpectHeader(sc, "machine");
  MachineConfig m;
  while (true) {
    if (sc.Done()) Fail(sc.file(), sc.LastLine(), "missing 'end'");
    const TokLine& tl = sc.Next();
    const std::string_view d = tl.toks[0];
    if (d == "end") {
      std::string why;
      if (!m.IsValid(&why)) {
        Fail(sc.file(), tl.number, "invalid machine configuration: " + why);
      }
      if (!sc.Done()) Fail(sc.file(), sc.Peek().number, "content after 'end'");
      return m;
    }
    if (d == "fus") {
      WantToks(sc, tl, 2);
      m.num_fus = ScanInt(sc, tl.number, tl.toks[1], "fus");
    } else if (d == "mem_ports") {
      WantToks(sc, tl, 2);
      m.num_mem_ports = ScanInt(sc, tl.number, tl.toks[1], "mem_ports");
    } else if (d == "rf") {
      if (tl.toks.size() == 3 && tl.toks[1] == "name") {
        try {
          m.rf = RFConfig::Parse(tl.toks[2]);
        } catch (const std::invalid_argument& e) {
          Fail(sc.file(), tl.number, e.what());
        }
      } else {
        WantToks(sc, tl, 13);
        RFConfig rf;
        for (size_t i = 1; i + 1 < tl.toks.size(); i += 2) {
          const std::string_view key = tl.toks[i];
          const int v = ScanInt(sc, tl.number, tl.toks[i + 1], key);
          if (key == "clusters") rf.clusters = v;
          else if (key == "cregs") rf.cluster_regs = v;
          else if (key == "sregs") rf.shared_regs = v;
          else if (key == "lp") rf.lp = v;
          else if (key == "sp") rf.sp = v;
          else if (key == "buses") rf.buses = v;
          else Fail(sc.file(), tl.number, "unknown rf field '" + std::string(key) + "'");
        }
        m.rf = rf;
      }
    } else if (d == "clock_ns") {
      WantToks(sc, tl, 2);
      m.clock_ns = ScanDouble(sc, tl.number, tl.toks[1], "clock_ns");
    } else if (d == "lat") {
      if (tl.toks.size() % 2 == 0) {
        Fail(sc.file(), tl.number, "'lat' expects key/value pairs");
      }
      for (size_t i = 1; i + 1 < tl.toks.size(); i += 2) {
        const std::string_view key = tl.toks[i];
        const int v = ScanInt(sc, tl.number, tl.toks[i + 1], key);
        if (key == "fadd") m.lat.fadd = v;
        else if (key == "fmul") m.lat.fmul = v;
        else if (key == "fdiv") m.lat.fdiv = v;
        else if (key == "fsqrt") m.lat.fsqrt = v;
        else if (key == "load_hit") m.lat.load_hit = v;
        else if (key == "store") m.lat.store = v;
        else if (key == "load_miss") m.lat.load_miss = v;
        else if (key == "move") m.lat.move = v;
        else if (key == "loadr") m.lat.loadr = v;
        else if (key == "storer") m.lat.storer = v;
        else Fail(sc.file(), tl.number, "unknown latency '" + std::string(key) + "'");
      }
    } else {
      Fail(sc.file(), tl.number, "unknown directive '" + std::string(d) + "'");
    }
  }
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

std::string DumpOptions(const core::MirsOptions& opt) {
  TextOut out(128);
  out << "hcl 1 options\n";
  out << "budget_ratio " << opt.budget_ratio << '\n';
  out << "max_ii " << opt.max_ii << '\n';
  out << "iterative " << (opt.iterative ? 1 : 0) << '\n';
  out << "cluster_policy " << core::ToString(opt.cluster_policy) << '\n';
  out << "end\n";
  return std::move(out).Take();
}

core::MirsOptions ParseOptions(std::string_view text,
                               std::string_view filename) {
  Scanner sc(text, filename);
  ExpectHeader(sc, "options");
  core::MirsOptions opt;
  while (true) {
    if (sc.Done()) Fail(sc.file(), sc.LastLine(), "missing 'end'");
    const TokLine& tl = sc.Next();
    const std::string_view d = tl.toks[0];
    if (d == "end") {
      if (!sc.Done()) Fail(sc.file(), sc.Peek().number, "content after 'end'");
      return opt;
    }
    if (d == "budget_ratio") {
      WantToks(sc, tl, 2);
      opt.budget_ratio = ScanDouble(sc, tl.number, tl.toks[1], d);
    } else if (d == "max_ii") {
      WantToks(sc, tl, 2);
      opt.max_ii = ScanInt(sc, tl.number, tl.toks[1], d);
    } else if (d == "iterative") {
      WantToks(sc, tl, 2);
      opt.iterative = ScanInt(sc, tl.number, tl.toks[1], d) != 0;
    } else if (d == "cluster_policy") {
      WantToks(sc, tl, 2);
      opt.cluster_policy = ParsePolicy(sc, tl.number, tl.toks[1]);
    } else {
      Fail(sc.file(), tl.number, "unknown directive '" + std::string(d) + "'");
    }
  }
}

// ---------------------------------------------------------------------------
// Schedule results
// ---------------------------------------------------------------------------

std::string DumpResult(const core::ScheduleResult& r) {
  const std::vector<int>& overrides = r.overrides.producer_latency;
  TextOut out(512 + GraphBodyBytes(r.graph) + 16 * overrides.size() +
              24 * static_cast<std::size_t>(r.graph.NumSlots()));
  out << "hcl 1 result\n";
  out << "ok " << (r.ok ? 1 : 0) << '\n';
  out << "ii " << r.ii << '\n';
  out << "sc " << r.sc << '\n';
  out << "mii " << r.mii << '\n';
  out << "res_mii " << r.res_mii << '\n';
  out << "rec_mii " << r.rec_mii << '\n';
  out << "bound " << core::ToString(r.bound) << '\n';
  out << "mem_ops_per_iter " << r.mem_ops_per_iter << '\n';
  const core::ScheduleStats& s = r.stats;
  out << "stats attempts " << s.attempts << " ejections " << s.ejections
      << " force_places " << s.force_places << " restarts " << s.restarts
      << " comm_ops " << s.comm_ops << " spill_stores " << s.spill_stores
      << " spill_loads " << s.spill_loads << " storer_ops " << s.storer_ops
      << " loadr_ops " << s.loadr_ops << " move_ops " << s.move_ops
      << " spills_inserted " << s.spills_inserted << " chains_built "
      << s.chains_built << " chains_undone " << s.chains_undone
      << " budget_spent " << s.budget_spent << " budget_granted "
      << s.budget_granted << '\n';
  out << "overrides " << overrides.size() << '\n';
  for (std::size_t i = 0; i < overrides.size(); ++i) {
    if (overrides[i] > 0) {
      out << "override " << i << ' ' << overrides[i] << '\n';
    }
  }
  out << "graph\n";
  DumpGraphBody(r.graph, out);
  out << "endgraph\n";
  out << "schedule " << r.schedule.ii() << '\n';
  for (NodeId v = 0; v < r.graph.NumSlots(); ++v) {
    if (!r.schedule.IsScheduled(v)) continue;
    const sched::Placement& p = r.schedule.Of(v);
    out << "place " << v << ' ' << p.cycle << ' ' << p.cluster << ' '
        << p.src_cluster << '\n';
  }
  out << "end\n";
  return std::move(out).Take();
}

core::ScheduleResult ParseResult(std::string_view text,
                                 std::string_view filename) {
  Scanner sc(text, filename);
  ExpectHeader(sc, "result");
  core::ScheduleResult r;
  bool have_graph = false;
  int schedule_ii = 0;
  struct Place {
    NodeId node;
    sched::Placement p;
  };
  std::vector<Place> places;
  bool have_schedule = false;
  while (true) {
    if (sc.Done()) Fail(sc.file(), sc.LastLine(), "missing 'end'");
    const TokLine& tl = sc.Next();
    const std::string_view d = tl.toks[0];
    if (d == "end") {
      const int end_line = tl.number;  // the lookahead below reuses `tl`
      if (!sc.Done()) Fail(sc.file(), sc.Peek().number, "content after 'end'");
      r.schedule = sched::PartialSchedule(have_schedule ? schedule_ii : 1);
      for (const Place& pl : places) {
        if (pl.node < 0 || pl.node >= r.graph.NumSlots() ||
            !r.graph.IsAlive(pl.node)) {
          Fail(sc.file(), end_line,
               "placement of undefined node " + std::to_string(pl.node));
        }
        r.schedule.Assign(pl.node, pl.p);
      }
      return r;
    }
    // The most frequent directive first; the others are one-off lines.
    if (d == "place") {
      WantToks(sc, tl, 5);
      if (!have_schedule) {
        Fail(sc.file(), tl.number, "'place' before 'schedule' declaration");
      }
      Place pl;
      pl.node = ScanInt(sc, tl.number, tl.toks[1], "place node");
      pl.p.cycle = ScanInt(sc, tl.number, tl.toks[2], "place cycle");
      pl.p.cluster = ScanInt(sc, tl.number, tl.toks[3], "place cluster");
      pl.p.src_cluster =
          ScanInt(sc, tl.number, tl.toks[4], "place src_cluster");
      places.push_back(pl);
    } else if (d == "ok") {
      WantToks(sc, tl, 2);
      r.ok = ScanInt(sc, tl.number, tl.toks[1], d) != 0;
    } else if (d == "ii") {
      WantToks(sc, tl, 2);
      r.ii = ScanInt(sc, tl.number, tl.toks[1], d);
    } else if (d == "sc") {
      WantToks(sc, tl, 2);
      r.sc = ScanInt(sc, tl.number, tl.toks[1], d);
    } else if (d == "mii") {
      WantToks(sc, tl, 2);
      r.mii = ScanInt(sc, tl.number, tl.toks[1], d);
    } else if (d == "res_mii") {
      WantToks(sc, tl, 2);
      r.res_mii = ScanInt(sc, tl.number, tl.toks[1], d);
    } else if (d == "rec_mii") {
      WantToks(sc, tl, 2);
      r.rec_mii = ScanInt(sc, tl.number, tl.toks[1], d);
    } else if (d == "bound") {
      WantToks(sc, tl, 2);
      r.bound = ParseBound(sc, tl.number, tl.toks[1]);
    } else if (d == "mem_ops_per_iter") {
      WantToks(sc, tl, 2);
      r.mem_ops_per_iter = ScanInt(sc, tl.number, tl.toks[1], d);
    } else if (d == "stats") {
      if (tl.toks.size() % 2 == 0) {
        Fail(sc.file(), tl.number, "'stats' expects key/value pairs");
      }
      core::ScheduleStats& s = r.stats;
      for (size_t i = 1; i + 1 < tl.toks.size(); i += 2) {
        const std::string_view key = tl.toks[i];
        const std::string_view val = tl.toks[i + 1];
        if (key == "attempts") s.attempts = ScanLong(sc, tl.number, val, key);
        else if (key == "ejections") s.ejections = ScanLong(sc, tl.number, val, key);
        else if (key == "force_places") s.force_places = ScanLong(sc, tl.number, val, key);
        else if (key == "restarts") s.restarts = ScanInt(sc, tl.number, val, key);
        else if (key == "comm_ops") s.comm_ops = ScanInt(sc, tl.number, val, key);
        else if (key == "spill_stores") s.spill_stores = ScanInt(sc, tl.number, val, key);
        else if (key == "spill_loads") s.spill_loads = ScanInt(sc, tl.number, val, key);
        else if (key == "storer_ops") s.storer_ops = ScanInt(sc, tl.number, val, key);
        else if (key == "loadr_ops") s.loadr_ops = ScanInt(sc, tl.number, val, key);
        else if (key == "move_ops") s.move_ops = ScanInt(sc, tl.number, val, key);
        else if (key == "spills_inserted") s.spills_inserted = ScanInt(sc, tl.number, val, key);
        else if (key == "chains_built") s.chains_built = ScanLong(sc, tl.number, val, key);
        else if (key == "chains_undone") s.chains_undone = ScanLong(sc, tl.number, val, key);
        else if (key == "budget_spent") s.budget_spent = ScanDouble(sc, tl.number, val, key);
        else if (key == "budget_granted") s.budget_granted = ScanDouble(sc, tl.number, val, key);
        else Fail(sc.file(), tl.number, "unknown stat '" + std::string(key) + "'");
      }
    } else if (d == "overrides") {
      WantToks(sc, tl, 2);
      const int n = ScanInt(sc, tl.number, tl.toks[1], d);
      if (n < 0) Fail(sc.file(), tl.number, "overrides size < 0");
      r.overrides.producer_latency.assign(static_cast<size_t>(n), 0);
    } else if (d == "override") {
      WantToks(sc, tl, 3);
      const int id = ScanInt(sc, tl.number, tl.toks[1], "override node");
      const int lat = ScanInt(sc, tl.number, tl.toks[2], "override latency");
      if (id < 0 ||
          static_cast<size_t>(id) >= r.overrides.producer_latency.size()) {
        Fail(sc.file(), tl.number,
             "override node " + std::to_string(id) +
                 " outside the declared 'overrides' size");
      }
      r.overrides.producer_latency[static_cast<size_t>(id)] = lat;
    } else if (d == "graph") {
      WantToks(sc, tl, 1);
      GraphBuilder gb;
      while (true) {
        if (sc.Done()) Fail(sc.file(), sc.LastLine(), "missing 'endgraph'");
        const TokLine& gl = sc.Next();
        if (gl.toks[0] == "endgraph") {
          r.graph = gb.Build(sc, gl.number);
          have_graph = true;
          break;
        }
        if (!gb.Consume(sc, gl)) {
          Fail(sc.file(), gl.number,
               "unknown graph directive '" + std::string(gl.toks[0]) + "'");
        }
      }
    } else if (d == "schedule") {
      WantToks(sc, tl, 2);
      schedule_ii = ScanInt(sc, tl.number, tl.toks[1], "schedule ii");
      if (schedule_ii < 1) Fail(sc.file(), tl.number, "schedule ii < 1");
      if (!have_graph) {
        Fail(sc.file(), tl.number, "'schedule' before 'graph' section");
      }
      have_schedule = true;
      places.reserve(static_cast<size_t>(r.graph.NumSlots()));
    } else {
      Fail(sc.file(), tl.number, "unknown directive '" + std::string(d) + "'");
    }
  }
}

// ---------------------------------------------------------------------------
// File helpers
// ---------------------------------------------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::string text(ec ? 0 : static_cast<std::size_t>(size), '\0');
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<std::size_t>(in.gcount()));
  // A file with no size (a pipe) or one that grew since file_size has
  // more to read; one that shrank hit EOF above.
  if (in) text.append(std::istreambuf_iterator<char>(in), {});
  if (in.bad()) throw std::runtime_error("error reading " + path);
  return text;
}

void WriteFileAtomic(const std::string& path, std::string_view text) {
  namespace fs = std::filesystem;
  const fs::path target(path);
  if (target.has_parent_path()) {
    std::error_code ec;
    fs::create_directories(target.parent_path(), ec);
  }
  // The temp name must be unique per *call*, not just per path: pool
  // threads can write the same cache entry concurrently, and sharing a
  // temp file would let one thread rename the other's half-written data
  // into place.
  static std::atomic<unsigned long> write_seq{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<unsigned long>(::getpid())) +
      "." + std::to_string(write_seq.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot create " + tmp);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    if (!out) {
      throw std::runtime_error("error writing " + tmp);
    }
  }
  std::error_code ec;
  fs::rename(tmp, target, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw std::runtime_error("cannot rename " + tmp + " to " + path);
  }
}

workload::Loop LoadLoopFile(const std::string& path) {
  return ParseLoop(ReadFile(path), path);
}

MachineConfig LoadMachineFile(const std::string& path) {
  return ParseMachine(ReadFile(path), path);
}

core::ScheduleResult LoadResultFile(const std::string& path) {
  return ParseResult(ReadFile(path), path);
}

}  // namespace hcrf::io
