//===- rbbe/Rbbe.cpp - Reachability based branch elimination (Figure 8) ---===//

#include "rbbe/Rbbe.h"

#include "bst/Moves.h"
#include "bst/Transform.h"
#include "support/Metrics.h"
#include "support/Stopwatch.h"
#include "support/Trace.h"
#include "term/Rewrite.h"

#include <unordered_set>

using namespace efc;

namespace {

/// Three-valued reachability verdict.
enum class Reach { Yes, No, Bound };

class Eliminator {
public:
  Eliminator(const Bst &A, Solver &S, const RbbeOptions &Opts,
             RbbeStats &Stats)
      : W(cloneBst(A)), Ctx(A.context()), S(S), Opts(Opts), Stats(Stats) {}

  Bst run() {
    std::unordered_set<const Rule *> Known;
    if (Opts.UnderApprox)
      Known = computeUnderApproximation();

    unsigned K = Opts.BackwardDepth ? Opts.BackwardDepth : W.numStates();

    // Transition moves.  The move list is snapshotted up front (leaf
    // pointers stay valid: rules are immutable and shared), while each
    // ISREACHABLE call walks the *current* W for maximal pruning.
    for (const Move &M : movesOf(W)) {
      if (Known.count(M.Leaf) || !budgetLeft())
        continue;
      TermRef Psi = withFreshInput(M.Guard, nullptr);
      ++Stats.ReachCalls;
      if (isReachable(M.Src, Psi, K) == Reach::No) {
        W.setDelta(M.Src, eliminateLeaf(W.delta(M.Src), M.Leaf));
        ++Stats.BranchesRemoved;
      }
    }
    // Finalizer moves (guards over r only; no input consumed).
    for (const FinalMove &M : finalMovesOf(W)) {
      if (Known.count(M.Leaf) || !budgetLeft())
        continue;
      ++Stats.ReachCalls;
      if (isReachable(M.Src, M.Guard, K) == Reach::No) {
        W.setFinalizer(M.Src, eliminateLeaf(W.finalizer(M.Src), M.Leaf));
        ++Stats.FinalBranchesRemoved;
      }
    }

    unsigned Before = W.numStates();
    Bst Result = eliminateDeadEnds(W);
    Stats.StatesRemoved = Before - Result.numStates();
    Stats.BranchesLeft = Result.countBranches();
    return Result;
  }

private:
  Bst W;
  TermContext &Ctx;
  Solver &S;
  const RbbeOptions &Opts;
  RbbeStats &Stats;
  Stopwatch Timer;

  /// Substitutes a globally fresh input variable for `x` in \p T.  When
  /// \p OutVar is non-null the variable is returned.
  TermRef withFreshInput(TermRef T, TermRef *OutVar) {
    TermRef X = W.inputVar();
    if (!mentionsVar(T, X)) {
      if (OutVar)
        *OutVar = nullptr;
      return T;
    }
    TermRef Fresh = Ctx.freshVar("w", W.inputType());
    if (OutVar)
      *OutVar = Fresh;
    Subst Sub;
    Sub.set(X, Fresh);
    return substitute(Ctx, T, Sub);
  }

  bool timeLeft() const {
    return Opts.TimeBudgetSeconds <= 0 ||
           Timer.seconds() < Opts.TimeBudgetSeconds;
  }

  bool budgetLeft() const {
    return Stats.SolverChecks < Opts.MaxSolverChecks && timeLeft();
  }

  /// The forward pass must leave budget for the backward search: if it
  /// spends everything, run() degrades to an expensive no-op.
  bool forwardBudgetLeft() const {
    return Stats.SolverChecks < Opts.MaxSolverChecks / 2 && timeLeft();
  }

  /// Under-approximation tagging must be *definite*: an Unknown must not
  /// mark a move reachable, or budgetless runs would tag everything.
  bool provenSat(TermRef Phi) {
    ++Stats.SolverChecks;
    return S.checkWith(Phi) == SatResult::Sat;
  }

  /// ISREACHABLE of Figure 8: can control state \p Tgt be reached with a
  /// register satisfying \p PsiTgt (a predicate over r and fresh input
  /// variables)?
  ///
  /// The paper's Ψ[q] disjunctions are kept as *sets of disjuncts*: each
  /// backward step produces γ = φ{x_k/x} ∧ ψ{g{x_k/x}/r}, a pure
  /// conjunction that the interval presolve can usually decide outright.
  /// Subsumption (the paper's Σ check) is weakened to syntactic identity
  /// of interned terms — sound, since subsumption only limits
  /// re-exploration and every search is depth-bounded anyway.
  Reach isReachable(unsigned Tgt, TermRef PsiTgt, unsigned K) {
    TermRef RVar = W.regVar();
    std::vector<Move> Ms = movesOf(W);
    TermRef R0 = W.initialRegisterTerm();

    // Per-state disjunct sets: current layer and ever-seen (Σ).
    std::vector<std::vector<TermRef>> Layer(W.numStates());
    std::vector<std::unordered_set<TermRef>> Sigma(W.numStates());
    Layer[Tgt].push_back(PsiTgt);
    Sigma[Tgt].insert(PsiTgt);
    bool SawUnknown = false;
    bool AnyLive = true;

    while (AnyLive) {
      std::vector<std::vector<TermRef>> Next(W.numStates());
      AnyLive = false;
      for (unsigned Q = 0; Q < W.numStates(); ++Q) {
        for (TermRef Psi : Layer[Q]) {
          if (!budgetLeft())
            return Reach::Bound;
          if (Q == W.initialState()) {
            Subst Init;
            Init.set(RVar, R0);
            TermRef AtInit = substitute(Ctx, Psi, Init);
            ++Stats.SolverChecks;
            SatResult R = S.checkWith(AtInit);
            if (R == SatResult::Sat)
              return Reach::Yes;
            if (R == SatResult::Unknown)
              SawUnknown = true;
          }
          for (const Move &M : Ms) {
            if (M.Dst != Q)
              continue;
            TermRef Fresh = Ctx.freshVar("w", W.inputType());
            Subst StepIn;
            StepIn.set(W.inputVar(), Fresh);
            TermRef Guard = substitute(Ctx, M.Guard, StepIn);
            TermRef Update = substitute(Ctx, M.Update, StepIn);
            Subst RegSub;
            RegSub.set(RVar, Update);
            TermRef Gamma =
                Ctx.mkAnd(Guard, substitute(Ctx, Psi, RegSub));
            if (Gamma->isFalse())
              continue;
            if (termSize(Gamma, Opts.MaxPredicateNodes + 1) >
                    Opts.MaxPredicateNodes ||
                !budgetLeft())
              return Reach::Bound;
            // Is this path alive at all?
            ++Stats.SolverChecks;
            SatResult R = S.checkWith(Gamma);
            if (R == SatResult::Unsat)
              continue;
            if (R == SatResult::Unknown)
              SawUnknown = true;
            if (!Sigma[M.Src].insert(Gamma).second)
              continue; // syntactic subsumption
            Next[M.Src].push_back(Gamma);
            AnyLive = true;
          }
        }
      }
      if (K == 0 && AnyLive)
        return Reach::Bound;
      if (K > 0)
        --K;
      Layer = std::move(Next);
    }
    return SawUnknown ? Reach::Bound : Reach::No;
  }

  /// COMPUTEUNDERAPPROXIMATION: forward BFS tagging moves whose path
  /// condition from the initial state is satisfiable.
  std::unordered_set<const Rule *> computeUnderApproximation() {
    struct Config {
      unsigned State;
      TermRef Reg;      ///< register as a term over fresh input vars
      TermRef PathCond; ///< conjunction of guards along the way
    };
    std::unordered_set<const Rule *> Tagged;
    unsigned MaxLayers =
        Opts.ForwardLayers ? Opts.ForwardLayers : W.numStates();

    std::vector<Config> Layer{
        {W.initialState(), W.initialRegisterTerm(), Ctx.trueConst()}};
    std::vector<FinalMove> Fs = finalMovesOf(W);

    for (unsigned Depth = 0; Depth <= MaxLayers && !Layer.empty(); ++Depth) {
      std::vector<Config> Next;
      for (const Config &C : Layer) {
        // Finalizer branches reachable here?
        Subst RegSub;
        RegSub.set(W.regVar(), C.Reg);
        for (const FinalMove &F : Fs) {
          if (F.Src != C.State || Tagged.count(F.Leaf))
            continue;
          if (!forwardBudgetLeft())
            return Tagged;
          TermRef Cond =
              Ctx.mkAnd(C.PathCond, substitute(Ctx, F.Guard, RegSub));
          if (!Cond->isFalse() && provenSat(Cond))
            Tagged.insert(F.Leaf);
        }
        if (Depth == MaxLayers)
          continue;
        std::vector<Move> Ms;
        appendMovesOf(W, C.State, Ms);
        for (const Move &M : Ms) {
          if (!forwardBudgetLeft())
            return Tagged;
          TermRef Fresh = Ctx.freshVar("u", W.inputType());
          Subst Step;
          Step.set(W.inputVar(), Fresh);
          Step.set(W.regVar(), C.Reg);
          TermRef Guard = substitute(Ctx, M.Guard, Step);
          TermRef Cond = Ctx.mkAnd(C.PathCond, Guard);
          if (Cond->isFalse() || !provenSat(Cond))
            continue;
          if (Tagged.insert(M.Leaf).second)
            ++Stats.UnderApproxHits;
          if (Next.size() < Opts.ForwardWidth)
            Next.push_back(
                {M.Dst, substitute(Ctx, M.Update, Step), Cond});
        }
      }
      Layer = std::move(Next);
    }
    return Tagged;
  }
};

/// The efc_rbbe_* registry series, bound once per process.
struct RbbeSeries {
  metrics::Counter &Runs, &Removed, &StatesRemoved, &ReachCalls,
      &UnderApproxHits;
  metrics::DoubleCounter &Seconds;

  static const RbbeSeries &get() {
    auto &R = metrics::Registry::instance();
    static const RbbeSeries S{
        R.counter("efc_rbbe_runs_total",
                  "eliminateUnreachableBranches() invocations"),
        R.counter("efc_rbbe_branches_removed_total",
                  "Unreachable branches eliminated"),
        R.counter("efc_rbbe_states_removed_total",
                  "States removed as unreachable"),
        R.counter("efc_rbbe_reach_calls_total", "Reachability queries issued"),
        R.counter("efc_rbbe_underapprox_hits_total",
                  "Leaves proven reachable by the forward under-approximation"),
        R.dcounter("efc_rbbe_seconds_total",
                   "Wall time spent in eliminateUnreachableBranches()")};
    return S;
  }
};

} // namespace

void efc::registerRbbeMetrics() { RbbeSeries::get(); }

Bst efc::eliminateUnreachableBranches(const Bst &A, Solver &S,
                                      const RbbeOptions &Opts,
                                      RbbeStats *Stats) {
  Stopwatch Timer;
  trace::Span Sp("rbbe");
  RbbeStats Local;
  RbbeStats &St = Stats ? *Stats : Local;
  int64_t SavedBudget = S.conflictBudget();
  S.setConflictBudget(Opts.ConflictBudget);
  Eliminator E(A, S, Opts, St);
  Bst Result = E.run();
  S.setConflictBudget(SavedBudget);
  St.Seconds = Timer.seconds();

  const RbbeSeries &M = RbbeSeries::get();
  M.Runs.inc();
  M.Removed.inc(St.BranchesRemoved + St.FinalBranchesRemoved);
  M.StatesRemoved.inc(St.StatesRemoved);
  M.ReachCalls.inc(St.ReachCalls);
  M.UnderApproxHits.inc(St.UnderApproxHits);
  M.Seconds.add(St.Seconds);

  Sp.note("branches_removed",
          (uint64_t)(St.BranchesRemoved + St.FinalBranchesRemoved));
  Sp.note("states_removed", (uint64_t)St.StatesRemoved);
  Sp.note("solver_checks", (uint64_t)St.SolverChecks);
  return Result;
}
