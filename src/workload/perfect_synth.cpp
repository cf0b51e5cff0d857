#include "workload/perfect_synth.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

namespace hcrf::workload {

namespace {

enum class Species { kStream, kCompute, kReduce, kRecur };

const char* Name(Species s) {
  switch (s) {
    case Species::kStream: return "stream";
    case Species::kCompute: return "compute";
    case Species::kReduce: return "reduce";
    case Species::kRecur: return "recur";
  }
  return "?";
}

class LoopBuilder {
 public:
  LoopBuilder(std::uint64_t seed, const SynthParams& p) : rng_(seed), p_(p) {}

  Loop Build(int index);

 private:
  using Dist = std::uniform_real_distribution<double>;

  double U() { return Dist(0.0, 1.0)(rng_); }
  int UInt(int lo, int hi) {  // inclusive
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  long LogUniform(long lo, long hi) {
    const double x = std::exp(Dist(std::log(static_cast<double>(lo)),
                                   std::log(static_cast<double>(hi)))(rng_));
    return std::clamp(static_cast<long>(x), lo, hi);
  }

  Species PickSpecies() {
    const double total = p_.w_stream + p_.w_compute + p_.w_reduce + p_.w_recur;
    double x = U() * total;
    if ((x -= p_.w_stream) < 0) return Species::kStream;
    if ((x -= p_.w_compute) < 0) return Species::kCompute;
    if ((x -= p_.w_reduce) < 0) return Species::kReduce;
    return Species::kRecur;
  }

  std::int64_t PickStride() {
    const double x = U();
    if (x < 0.72) return 8;                        // unit stride
    if (x < 0.84) return 16;                       // interleaved/complex
    return 8 * LogUniform(64, 512);                // column of a 2-D array
  }

  OpClass PickComputeOp(bool heavy) {
    const double dv = heavy ? p_.div_frac : p_.div_frac / 3.0;
    const double sq = heavy ? p_.sqrt_frac : p_.sqrt_frac / 3.0;
    const double x = U();
    if (x < dv) return OpClass::kFDiv;
    if (x < dv + sq) return OpClass::kFSqrt;
    return x < dv + sq + 0.55 ? OpClass::kFAdd : OpClass::kFMul;
  }

  NodeId Leaf(DDG& g, bool heavy);
  NodeId Expr(DDG& g, int depth, bool heavy);

  std::mt19937_64 rng_;
  const SynthParams& p_;

  // Per-loop state.
  int next_array_ = 0;
  std::vector<std::int32_t> invariants_;
  /// Values produced by earlier statements, available for reuse (possibly
  /// loop-carried).
  std::vector<NodeId> prior_values_;
};

NodeId LoopBuilder::Leaf(DDG& g, bool heavy) {
  const double x = U();
  // Invariant leaves: scalars kept in registers across the loop.
  if (!invariants_.empty() && x < 0.15) {
    // An invariant cannot be a leaf by itself (it is not a node); fold it
    // into a one-operand compute op over another leaf.
    const NodeId inner = Leaf(g, heavy);
    Node n;
    n.op = PickComputeOp(heavy);
    if (IsUnpipelined(n.op)) n.op = OpClass::kFMul;
    const std::int32_t inv = invariants_[static_cast<size_t>(
        UInt(0, static_cast<int>(invariants_.size()) - 1))];
    const NodeId id = g.AddNode(n);
    g.AddInvariantUse(id, inv);
    g.AddFlow(inner, id, 0);
    return id;
  }
  // A fresh load.
  Node n;
  n.op = OpClass::kLoad;
  const std::int32_t arr = UInt(0, std::max(0, next_array_ - 1) + 1);
  next_array_ = std::max(next_array_, arr + 1);
  n.mem = MemRef{arr, 8 * UInt(-2, 12), PickStride()};
  return g.AddNode(std::move(n));
}

NodeId LoopBuilder::Expr(DDG& g, int depth, bool heavy) {
  if (depth <= 0) return Leaf(g, heavy);
  const OpClass op = PickComputeOp(heavy);
  if (IsUnpipelined(op) || U() < 0.18) {
    // Unary: div/sqrt of a sub-expression (division by a leaf folded in).
    const NodeId a = Expr(g, depth - 1, heavy);
    const NodeId n = g.AddNode(op);
    g.AddFlow(a, n, 0);
    return n;
  }
  const NodeId a = Expr(g, depth - 1, heavy);
  const NodeId b = U() < 0.5 ? Leaf(g, heavy) : Expr(g, depth - 1, heavy);
  const NodeId n = g.AddNode(op);
  g.AddFlow(a, n, 0);
  g.AddFlow(b, n, 0);
  return n;
}

Loop LoopBuilder::Build(int index) {
  Loop loop;
  DDG& g = loop.ddg;
  const Species species = PickSpecies();
  g.set_name(std::string("synth-") + Name(species) + "-" +
             std::to_string(index));

  next_array_ = UInt(1, 3);
  invariants_.clear();
  prior_values_.clear();
  const int num_inv = UInt(0, 5);
  for (int i = 0; i < num_inv; ++i) invariants_.push_back(g.AddInvariant());

  const bool heavy = species == Species::kCompute;
  int statements = 1;
  int depth = 1;
  switch (species) {
    case Species::kStream:
      statements = UInt(1, p_.max_statements);
      depth = UInt(1, 3);
      break;
    case Species::kCompute:
      statements = UInt(1, 3);
      depth = UInt(2, p_.max_tree_depth);
      break;
    case Species::kReduce:
      // Wide loops: reductions coexist with independent work, so the loop
      // stays recurrence bound while sustaining useful parallelism (the
      // paper's recurrence-bound loops still reach respectable IPC).
      statements = UInt(2, 5);
      depth = UInt(1, 3);
      break;
    case Species::kRecur:
      statements = UInt(2, 4);
      depth = UInt(1, 2);
      break;
  }

  for (int s = 0; s < statements; ++s) {
    NodeId value = Expr(g, depth, heavy);
    // Loop-carried reuse of earlier statements' values: combine them into
    // this statement's result at iteration distance >= 6. These edges
    // create the long, cross-iteration lifetimes that drive the register
    // pressure the paper's evaluation depends on, without displacing any
    // memory accesses.
    while (!prior_values_.empty() && U() < p_.carried_use_prob) {
      const NodeId prev = prior_values_[static_cast<size_t>(
          UInt(0, static_cast<int>(prior_values_.size()) - 1))];
      const NodeId comb =
          g.AddNode(U() < 0.5 ? OpClass::kFAdd : OpClass::kFMul);
      g.AddFlow(value, comb, 0);
      g.AddEdge(prev, comb, DepKind::kFlow, UInt(5, 14));
      value = comb;
    }
    switch (species) {
      case Species::kStream:
      case Species::kCompute: {
        Node st;
        st.op = OpClass::kStore;
        const std::int32_t arr = next_array_++;
        st.mem = MemRef{arr, 0, PickStride()};
        const NodeId sid = g.AddNode(std::move(st));
        g.AddFlow(value, sid, 0);
        break;
      }
      case Species::kReduce: {
        // s += value; accumulator cycle of distance 1 (occasionally an
        // unrolled-by-2 reduction with distance 2).
        const NodeId acc = g.AddNode(U() < 0.3 ? OpClass::kFMul
                                               : OpClass::kFAdd);
        g.AddFlow(value, acc, 0);
        g.AddFlow(acc, acc, U() < 0.15 ? 2 : 1);
        break;
      }
      case Species::kRecur: {
        // x[i] = f(x[i-d], value): a chain of 1-3 compute ops closed into
        // a cycle with distance d. About half the recurrences are carried
        // through memory (a[i] = f(a[i-d])): the load is then part of the
        // cycle, which makes these loops sensitive to the memory latency
        // of the organization -- the effect the paper observes for
        // hierarchical RFs in Table 1.
        const int chain = UInt(1, 3);
        const int d = UInt(1, 2);
        const bool through_memory = U() < 0.5;
        NodeId first = g.AddNode(U() < 0.5 ? OpClass::kFAdd : OpClass::kFMul);
        g.AddFlow(value, first, 0);
        NodeId cur = first;
        for (int k = 1; k < chain; ++k) {
          const OpClass op = U() < 0.12 ? OpClass::kFDiv
                                        : (U() < 0.5 ? OpClass::kFAdd
                                                     : OpClass::kFMul);
          const NodeId nxt = g.AddNode(op);
          g.AddFlow(cur, nxt, 0);
          cur = nxt;
        }
        if (through_memory) {
          const std::int32_t arr = next_array_++;
          Node st;
          st.op = OpClass::kStore;
          st.mem = MemRef{arr, 0, 8};
          const NodeId sid = g.AddNode(std::move(st));
          g.AddFlow(cur, sid, 0);
          Node ld;
          ld.op = OpClass::kLoad;
          ld.mem = MemRef{arr, -8 * d, 8};
          const NodeId lid = g.AddNode(std::move(ld));
          // store a[i] -> load a[i-d] of a later iteration, then back into
          // the computation: the memory round trip closes the cycle.
          g.AddEdge(sid, lid, DepKind::kMem, d);
          g.AddFlow(lid, first, 0);
        } else {
          g.AddFlow(cur, first, d);
          // The recurrence value is usually also stored.
          if (U() < 0.7) {
            Node st;
            st.op = OpClass::kStore;
            st.mem = MemRef{next_array_++, 0, 8};
            const NodeId sid = g.AddNode(std::move(st));
            g.AddFlow(cur, sid, 0);
          }
        }
        prior_values_.push_back(cur);
        break;
      }
    }
    prior_values_.push_back(value);
  }

  // Dynamic profile. Compute-heavy loops are the hot ones in the paper's
  // cycle breakdown (Table 1), so they get larger trip counts. Trips are
  // large relative to SC*E so the software-pipeline fill/drain overhead is
  // second-order, as in the paper's whole-application measurements.
  switch (species) {
    case Species::kStream:
      loop.trip = LogUniform(200, 6144);
      break;
    case Species::kCompute:
      loop.trip = LogUniform(1024, 49152);
      break;
    case Species::kReduce:
      loop.trip = LogUniform(128, 2048);
      break;
    case Species::kRecur:
      loop.trip = LogUniform(256, 4096);
      break;
  }
  loop.invocations = LogUniform(1, 8);
  return loop;
}

}  // namespace

Suite PerfectSynthetic(const SynthParams& params) {
  Suite suite;
  for (int i = 0; i < params.num_loops; ++i) {
    // Per-loop generator stream: insensitive to generation order.
    LoopBuilder builder(params.seed * 0x9E3779B97F4A7C15ULL +
                            static_cast<std::uint64_t>(i) * 0xBF58476D1CE4E5B9ULL,
                        params);
    suite.Add(builder.Build(i));
  }
  return suite;
}

}  // namespace hcrf::workload
