//===- tests/common/AccelMachines.h - Tier-shaped test machines -*- C++ -*-===//
//
// Small synthetic transducers shaped so the fast path serves them from a
// particular accelerator tier (vm/FastPath.h); shared by the forced-ISA
// sweeps and the metrics-consistency checks.
//
//===----------------------------------------------------------------------===//

#ifndef EFC_TESTS_COMMON_ACCELMACHINES_H
#define EFC_TESTS_COMMON_ACCELMACHINES_H

#include "bst/Bst.h"

namespace efc::test {

/// Two states that unconditionally ping-pong with constant emits: the
/// shape detectSpecPairs promotes to a speculative alternating pair.
inline Bst makePingPong(TermContext &Ctx) {
  Bst A(Ctx, Ctx.bv(8), Ctx.bv(8), Ctx.bv(8), 2, 0, Value::bv(8, 0));
  TermRef R = A.regVar();
  A.setDelta(0, Rule::base({Ctx.bvConst(8, 0x11)}, 1, R));
  A.setDelta(1, Rule::base({Ctx.bvConst(8, 0x22)}, 0, R));
  A.setFinalizer(0, Rule::base({}, 0, R));
  A.setFinalizer(1, Rule::base({}, 1, R));
  return A;
}

/// bv(16) echo whose wide elements emit x+1: [256, 2^16) lands in a
/// Memo class with per-element pool values.
inline Bst makeWidePlusOne(TermContext &Ctx) {
  Bst A(Ctx, Ctx.bv(16), Ctx.bv(16), Ctx.bv(16), 1, 0, Value::bv(16, 0));
  TermRef X = A.inputVar(), R = A.regVar();
  A.setDelta(0, Rule::ite(Ctx.mkUlt(X, Ctx.bvConst(16, 256)),
                          Rule::base({X}, 0, R),
                          Rule::base({Ctx.mkAdd(X, Ctx.bvConst(16, 1))}, 0,
                                     R)));
  A.setFinalizer(0, Rule::base({}, 0, R));
  return A;
}

} // namespace efc::test

#endif // EFC_TESTS_COMMON_ACCELMACHINES_H
