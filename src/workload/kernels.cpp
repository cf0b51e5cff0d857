#include "workload/kernels.h"

namespace hcrf::workload {

namespace {

NodeId Ld(DDG& g, std::int32_t array, std::int64_t base, std::int64_t stride) {
  Node n;
  n.op = OpClass::kLoad;
  n.mem = MemRef{array, base, stride};
  return g.AddNode(std::move(n));
}

NodeId St(DDG& g, std::int32_t array, std::int64_t base, std::int64_t stride) {
  Node n;
  n.op = OpClass::kStore;
  n.mem = MemRef{array, base, stride};
  return g.AddNode(std::move(n));
}

NodeId Bin(DDG& g, OpClass op, NodeId a, NodeId b) {
  const NodeId n = g.AddNode(op);
  g.AddFlow(a, n, 0);
  g.AddFlow(b, n, 0);
  return n;
}

NodeId UnaryInv(DDG& g, OpClass op, NodeId a, std::int32_t inv) {
  const NodeId id = g.AddNode(op);
  g.AddInvariantUse(id, inv);
  g.AddFlow(a, id, 0);
  return id;
}

}  // namespace

Loop MakeDaxpy(long trip) {
  Loop loop;
  DDG& g = loop.ddg;
  g.set_name("daxpy");
  const std::int32_t a = g.AddInvariant();
  const NodeId lx = Ld(g, 0, 0, 8);
  const NodeId ly = Ld(g, 1, 0, 8);
  const NodeId mul = UnaryInv(g, OpClass::kFMul, lx, a);  // a * x[i]
  const NodeId add = Bin(g, OpClass::kFAdd, mul, ly);
  const NodeId st = St(g, 1, 0, 8);
  g.AddFlow(add, st, 0);
  loop.trip = trip;
  return loop;
}

Loop MakeDot(long trip) {
  Loop loop;
  DDG& g = loop.ddg;
  g.set_name("dot");
  const NodeId lx = Ld(g, 0, 0, 8);
  const NodeId ly = Ld(g, 1, 0, 8);
  const NodeId mul = Bin(g, OpClass::kFMul, lx, ly);
  const NodeId add = g.AddNode(OpClass::kFAdd);  // s = s + x*y
  g.AddFlow(mul, add, 0);
  g.AddFlow(add, add, 1);  // sum recurrence, distance 1
  loop.trip = trip;
  return loop;
}

Loop MakeVadd(long trip) {
  Loop loop;
  DDG& g = loop.ddg;
  g.set_name("vadd");
  const NodeId la = Ld(g, 0, 0, 8);
  const NodeId lb = Ld(g, 1, 0, 8);
  const NodeId add = Bin(g, OpClass::kFAdd, la, lb);
  const NodeId st = St(g, 2, 0, 8);
  g.AddFlow(add, st, 0);
  loop.trip = trip;
  return loop;
}

Loop MakeStencil3(long trip) {
  Loop loop;
  DDG& g = loop.ddg;
  g.set_name("stencil3");
  const std::int32_t w = g.AddInvariant();
  const NodeId lm = Ld(g, 0, -8, 8);  // a[i-1]
  const NodeId lc = Ld(g, 0, 0, 8);   // a[i]
  const NodeId lp = Ld(g, 0, 8, 8);   // a[i+1]
  const NodeId s1 = Bin(g, OpClass::kFAdd, lm, lc);
  const NodeId s2 = Bin(g, OpClass::kFAdd, s1, lp);
  const NodeId mul = UnaryInv(g, OpClass::kFMul, s2, w);
  const NodeId st = St(g, 1, 0, 8);
  g.AddFlow(mul, st, 0);
  loop.trip = trip;
  return loop;
}

Loop MakeHydro(long trip) {
  Loop loop;
  DDG& g = loop.ddg;
  g.set_name("hydro-lk1");
  const std::int32_t q = g.AddInvariant();
  const std::int32_t r = g.AddInvariant();
  const std::int32_t t = g.AddInvariant();
  const NodeId ly = Ld(g, 0, 0, 8);        // y[i]
  const NodeId lz10 = Ld(g, 1, 80, 8);     // z[i+10]
  const NodeId lz11 = Ld(g, 1, 88, 8);     // z[i+11]
  const NodeId rz = UnaryInv(g, OpClass::kFMul, lz10, r);
  const NodeId tz = UnaryInv(g, OpClass::kFMul, lz11, t);
  const NodeId sum = Bin(g, OpClass::kFAdd, rz, tz);
  const NodeId prod = Bin(g, OpClass::kFMul, ly, sum);
  const NodeId res = UnaryInv(g, OpClass::kFAdd, prod, q);
  const NodeId st = St(g, 2, 0, 8);
  g.AddFlow(res, st, 0);
  loop.trip = trip;
  return loop;
}

Loop MakeFirstOrderRec(long trip) {
  Loop loop;
  DDG& g = loop.ddg;
  g.set_name("rec1");
  const std::int32_t a = g.AddInvariant();
  const NodeId lb = Ld(g, 0, 0, 8);
  // x = a*x + b[i]: the multiply and add form a distance-1 cycle.
  const NodeId mul = g.AddNode(OpClass::kFMul);
  g.AddInvariantUse(mul, a);
  const NodeId add = Bin(g, OpClass::kFAdd, mul, lb);
  g.AddFlow(add, mul, 1);
  const NodeId st = St(g, 1, 0, 8);
  g.AddFlow(add, st, 0);
  loop.trip = trip;
  return loop;
}

Loop MakeNorm2(long trip) {
  Loop loop;
  DDG& g = loop.ddg;
  g.set_name("norm2");
  const NodeId lx = Ld(g, 0, 0, 8);
  const NodeId ly = Ld(g, 1, 0, 8);
  const NodeId xx = Bin(g, OpClass::kFMul, lx, lx);
  const NodeId yy = Bin(g, OpClass::kFMul, ly, ly);
  const NodeId sum = Bin(g, OpClass::kFAdd, xx, yy);
  const NodeId root = g.AddNode(OpClass::kFSqrt);
  g.AddFlow(sum, root, 0);
  const NodeId acc = g.AddNode(OpClass::kFAdd);
  g.AddFlow(root, acc, 0);
  g.AddFlow(acc, acc, 1);
  loop.trip = trip;
  return loop;
}

Loop MakeVdiv(long trip) {
  Loop loop;
  DDG& g = loop.ddg;
  g.set_name("vdiv");
  const NodeId la = Ld(g, 0, 0, 8);
  const NodeId lb = Ld(g, 1, 0, 8);
  const NodeId div = Bin(g, OpClass::kFDiv, la, lb);
  const NodeId st = St(g, 2, 0, 8);
  g.AddFlow(div, st, 0);
  loop.trip = trip;
  return loop;
}

Loop MakeCmul(long trip) {
  Loop loop;
  DDG& g = loop.ddg;
  g.set_name("cmul");
  const NodeId ar = Ld(g, 0, 0, 16);
  const NodeId ai = Ld(g, 0, 8, 16);
  const NodeId br = Ld(g, 1, 0, 16);
  const NodeId bi = Ld(g, 1, 8, 16);
  const NodeId t1 = Bin(g, OpClass::kFMul, ar, br);
  const NodeId t2 = Bin(g, OpClass::kFMul, ai, bi);
  const NodeId t3 = Bin(g, OpClass::kFMul, ar, bi);
  const NodeId t4 = Bin(g, OpClass::kFMul, ai, br);
  const NodeId cr = Bin(g, OpClass::kFAdd, t1, t2);  // (sign folded)
  const NodeId ci = Bin(g, OpClass::kFAdd, t3, t4);
  const NodeId sr = St(g, 2, 0, 16);
  const NodeId si = St(g, 2, 8, 16);
  g.AddFlow(cr, sr, 0);
  g.AddFlow(ci, si, 0);
  loop.trip = trip;
  return loop;
}

Loop MakeMatvecRow(long trip) {
  Loop loop;
  DDG& g = loop.ddg;
  g.set_name("matvec-row");
  const NodeId la = Ld(g, 0, 0, 8);  // A[r][i], row-major contiguous
  const NodeId lx = Ld(g, 1, 0, 8);
  const NodeId mul = Bin(g, OpClass::kFMul, la, lx);
  const NodeId acc = g.AddNode(OpClass::kFAdd);
  g.AddFlow(mul, acc, 0);
  g.AddFlow(acc, acc, 1);
  loop.trip = trip;
  return loop;
}

Loop MakeHorner(long trip) {
  Loop loop;
  DDG& g = loop.ddg;
  g.set_name("horner");
  const std::int32_t x = g.AddInvariant();
  const NodeId lc = Ld(g, 0, 0, 8);
  const NodeId mul = g.AddNode(OpClass::kFMul);  // p * x
  g.AddInvariantUse(mul, x);
  const NodeId add = Bin(g, OpClass::kFAdd, mul, lc);
  g.AddFlow(add, mul, 1);  // p feeds next iteration's multiply
  loop.trip = trip;
  return loop;
}

Loop MakeFir4(long trip) {
  Loop loop;
  DDG& g = loop.ddg;
  g.set_name("fir4");
  const std::int32_t w0 = g.AddInvariant();
  const std::int32_t w1 = g.AddInvariant();
  const std::int32_t w2 = g.AddInvariant();
  const std::int32_t w3 = g.AddInvariant();
  const NodeId x0 = Ld(g, 0, 0, 8);
  const NodeId x1 = Ld(g, 0, 8, 8);
  const NodeId x2 = Ld(g, 0, 16, 8);
  const NodeId x3 = Ld(g, 0, 24, 8);
  const NodeId m0 = UnaryInv(g, OpClass::kFMul, x0, w0);
  const NodeId m1 = UnaryInv(g, OpClass::kFMul, x1, w1);
  const NodeId m2 = UnaryInv(g, OpClass::kFMul, x2, w2);
  const NodeId m3 = UnaryInv(g, OpClass::kFMul, x3, w3);
  const NodeId s0 = Bin(g, OpClass::kFAdd, m0, m1);
  const NodeId s1 = Bin(g, OpClass::kFAdd, m2, m3);
  const NodeId s2 = Bin(g, OpClass::kFAdd, s0, s1);
  const NodeId st = St(g, 1, 0, 8);
  g.AddFlow(s2, st, 0);
  loop.trip = trip;
  return loop;
}

Suite KernelSuite() {
  Suite suite;
  suite.Add(MakeDaxpy());
  suite.Add(MakeDot());
  suite.Add(MakeVadd());
  suite.Add(MakeStencil3());
  suite.Add(MakeHydro());
  suite.Add(MakeFirstOrderRec());
  suite.Add(MakeNorm2());
  suite.Add(MakeVdiv());
  suite.Add(MakeCmul());
  suite.Add(MakeMatvecRow());
  suite.Add(MakeHorner());
  suite.Add(MakeFir4());
  return suite;
}

}  // namespace hcrf::workload
