//===- rbbe/Rbbe.h - Reachability based branch elimination ------*- C++ -*-===//
///
/// \file
/// Paper §4: removes rule branches that are unreachable due to
/// state-carried constraints — satisfiable in isolation, but no reachable
/// register value can enable them.  Combines a forward breadth-first
/// under-approximation (cheaply tagging definitely-reachable moves) with a
/// bounded backward reachability search with subsumption (ISREACHABLE of
/// Figure 8).
///
/// The paper's input-list variable `w` is Skolemized: every backward step
/// substitutes the register variable with `g(x_k, r)` for a globally fresh
/// input variable `x_k`.  All quantification over `w` in the paper is
/// existential, so satisfiability — and hence every verdict — is preserved
/// exactly (see DESIGN.md).
///
//===----------------------------------------------------------------------===//

#ifndef EFC_RBBE_RBBE_H
#define EFC_RBBE_RBBE_H

#include "bst/Bst.h"
#include "solver/Solver.h"

namespace efc {

struct RbbeStats {
  unsigned BranchesRemoved = 0;      ///< transition branches eliminated
  unsigned FinalBranchesRemoved = 0; ///< finalizer branches eliminated
  unsigned BranchesLeft = 0;         ///< Base leaves remaining afterwards
  unsigned StatesRemoved = 0;
  unsigned UnderApproxHits = 0; ///< moves the forward pass proved reachable
  unsigned ReachCalls = 0;      ///< ISREACHABLE invocations
  uint64_t SolverChecks = 0;
  double Seconds = 0;
};

struct RbbeOptions {
  /// Run the forward under-approximation first (ablatable).
  bool UnderApprox = true;
  /// Layer budget for the forward pass; 0 means `numStates()` layers.
  unsigned ForwardLayers = 0;
  /// Max configurations carried per forward layer.
  unsigned ForwardWidth = 32;
  /// Backward depth bound k; 0 means `numStates()` (the paper's choice).
  unsigned BackwardDepth = 0;
  /// Node budget for backward reachability predicates: when a candidate
  /// γ exceeds this size the search gives up on that branch (keeps it).
  /// The Ψ formulas of Figure 8 can grow multiplicatively per layer.
  unsigned MaxPredicateNodes = 20000;
  /// Total solver-check budget for one eliminate() run; exhausted means
  /// remaining branches are conservatively kept.  The forward pass may
  /// spend at most half of it, so the backward search always gets a share.
  uint64_t MaxSolverChecks = 2000;
  /// Per-check CDCL conflict budget (Unknown is handled conservatively).
  int64_t ConflictBudget = 100;
  /// Wall-clock budget in seconds; 0 means unlimited.  Check counts alone
  /// do not bound cost: one check on a wide-bitvector formula can take
  /// seconds in CNF encoding before any conflict is counted.  On expiry
  /// the run finishes conservatively (remaining branches are kept).
  double TimeBudgetSeconds = 0;
};

/// Applies RBBE to \p A and returns the cleaned transducer
/// (⟦result⟧ = ⟦A⟧).  Dead-end and unreachable control states left behind
/// by branch removal are pruned as in the paper's ELIMINATE (line 12).
Bst eliminateUnreachableBranches(const Bst &A, Solver &S,
                                 const RbbeOptions &Opts = {},
                                 RbbeStats *Stats = nullptr);

/// Registers the efc_rbbe_* metrics series (idempotent).  The pipeline's
/// `rbbe` pass calls it when it registers, so a process that compiles
/// without RBBE still exports the series, at 0.
void registerRbbeMetrics();

} // namespace efc

#endif // EFC_RBBE_RBBE_H
