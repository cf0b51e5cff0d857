#include "sched/validate.h"

#include <sstream>

#include "sched/banks.h"
#include "sched/mrt.h"

namespace hcrf::sched {

namespace {
std::string Describe(const DDG& g, NodeId v) {
  std::ostringstream os;
  os << "node " << v << " (" << ToString(g.node(v).op) << ")";
  return os.str();
}
}  // namespace

ValidationResult Validate(const DDG& g, const PartialSchedule& sched,
                          const MachineConfig& m,
                          const LatencyOverrides& overrides) {
  ValidateScratch scratch;
  return Validate(g, sched, m, overrides, scratch);
}

ValidationResult Validate(const DDG& g, const PartialSchedule& sched,
                          const MachineConfig& m,
                          const LatencyOverrides& overrides,
                          ValidateScratch& scratch) {
  ValidationResult res;
  auto fail = [&](const std::string& msg) {
    res.ok = false;
    res.error = msg;
    return res;
  };

  std::string why;
  if (!g.Check(&why)) return fail("graph inconsistent: " + why);
  if (!m.IsValid(&why)) return fail("machine invalid: " + why);

  const int ii = sched.ii();
  const int num_clusters = m.NumClusters();

  // 5. Completeness and cluster ranges.
  for (NodeId v = 0; v < g.NumSlots(); ++v) {
    if (!g.IsAlive(v)) continue;
    if (!sched.IsScheduled(v)) {
      return fail(Describe(g, v) + " is not scheduled");
    }
    const int c = sched.ClusterOf(v);
    if (c < 0 || c >= num_clusters) {
      return fail(Describe(g, v) + " has cluster " + std::to_string(c) +
                  " out of range");
    }
  }

  // 1. Dependences (edges in DDG::Edges() order, read in place).
  for (const Edge& e : g.Edges()) {
    const int lat = DependenceLatency(g, e, m.lat, overrides);
    const long lhs = sched.CycleOf(e.src) + lat;
    const long rhs = sched.CycleOf(e.dst) + static_cast<long>(e.distance) * ii;
    if (lhs > rhs) {
      std::ostringstream os;
      os << "dependence violated: " << Describe(g, e.src) << "@"
         << sched.CycleOf(e.src) << " + lat " << lat << " > "
         << Describe(g, e.dst) << "@" << sched.CycleOf(e.dst) << " + d"
         << e.distance << "*II" << ii;
      return fail(os.str());
    }
  }

  // 2. Resources, rebuilt from scratch.
  ModuloReservationTable& mrt = scratch.mrt;
  mrt.Rebind(m, ii);
  for (NodeId v = 0; v < g.NumSlots(); ++v) {
    if (!g.IsAlive(v)) continue;
    const Placement& p = sched.Of(v);
    const auto needs = ResourceNeeds(g.node(v).op, p.cluster, p.src_cluster, m);
    if (!mrt.CanPlace(needs, p.cycle)) {
      return fail("resource conflict placing " + Describe(g, v) + " at cycle " +
                  std::to_string(p.cycle));
    }
    mrt.Place(v, needs, p.cycle);
  }

  // 3. Bank consistency on flow edges.
  for (NodeId v = 0; v < g.NumSlots(); ++v) {
    if (!g.IsAlive(v)) continue;
    for (const Edge& e : g.FlowConsumers(v)) {
      const Node& src = g.node(e.src);
      const Node& dst = g.node(e.dst);
      const BankId def =
          DefBank(src.op, sched.ClusterOf(e.src), m.rf);
      BankId read;
      if (dst.op == OpClass::kMove) {
        // Move reads the producer's bank by construction, but the recorded
        // src_cluster must match it.
        read = def;
        if (sched.Of(e.dst).src_cluster != def) {
          return fail("move " + Describe(g, e.dst) +
                      " src_cluster does not match producer bank");
        }
        if (def == kSharedBank) {
          return fail("move " + Describe(g, e.dst) + " reads the shared bank");
        }
      } else {
        read = ReadBank(dst.op, sched.ClusterOf(e.dst), m.rf);
      }
      if (def != read) {
        std::ostringstream os;
        os << "bank mismatch: " << Describe(g, e.src) << " defines in bank "
           << def << " but " << Describe(g, e.dst) << " reads bank " << read;
        return fail(os.str());
      }
    }
  }

  // 4. Capacities.
  ComputePressure(g, sched, m, overrides, scratch.pressure, scratch.report);
  const PressureReport& pr = scratch.report;
  if (m.rf.HasSharedBank() &&
      pr.shared_maxlive > BankCapacity(kSharedBank, m.rf)) {
    return fail("shared bank over capacity: MaxLive " +
                std::to_string(pr.shared_maxlive) + " > " +
                std::to_string(BankCapacity(kSharedBank, m.rf)));
  }
  for (int c = 0; c < static_cast<int>(pr.cluster_maxlive.size()); ++c) {
    if (pr.cluster_maxlive[static_cast<size_t>(c)] >
        BankCapacity(c, m.rf)) {
      return fail("cluster bank " + std::to_string(c) +
                  " over capacity: MaxLive " +
                  std::to_string(pr.cluster_maxlive[static_cast<size_t>(c)]) +
                  " > " + std::to_string(BankCapacity(c, m.rf)));
    }
  }

  return res;
}

}  // namespace hcrf::sched
