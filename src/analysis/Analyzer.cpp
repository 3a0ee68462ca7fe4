//===- analysis/Analyzer.cpp ----------------------------------------------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"

#include "abstract/Concretize.h"
#include "analysis/Incremental.h"
#include "analysis/Scheduler.h"
#include "domain/AbstractDomain.h"
#include "domain/Prefilter.h"
#include "smt/CondSmt.h"
#include "spec/CommutativityCache.h"
#include "support/Format.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>

using namespace c4;

namespace {

/// Accumulates wall time into a double on scope exit (per-stage stats).
class StageTimer {
public:
  explicit StageTimer(double &Dest)
      : Acc(Dest), Start(std::chrono::steady_clock::now()) {}
  ~StageTimer() {
    Acc += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Start)
               .count();
  }

private:
  double &Acc;
  std::chrono::steady_clock::time_point Start;
};

/// Solver resources shared by every Run of one analyze() call: the
/// bounded-check scheduler (helper threads and their Z3 environments), the
/// committing thread's environment and the witness environment.
struct Solvers {
  Solvers(const AnalyzerOptions &O, const Deadline *DL)
      : Sched(O.NumThreads, DL), Reuse(O.ReuseEnv) {}

  /// The env of every committing-thread query (inline solves, generalization
  /// chunks), reset per query: a context costs more than most solves. With
  /// helpers it is the first helper's, idle between rounds. Built lazily.
  Z3Env &seqEnv() {
    if (Z3Env *Helper = Sched.idleHelperEnv())
      return *Helper;
    if (Reuse)
      return *Reuse;
    if (!Own)
      Own = std::make_unique<Z3Env>();
    return *Own;
  }

  /// The env committed witnesses are extracted on, dropped after each round
  /// (endRound): its history is that round's commit order at every thread
  /// count, so witness text does not depend on who solved the unit first.
  Z3Env &witnessEnv() { return Witness.get(); }
  void endRound() { Witness = Z3EnvSlot(); }

  SpecScheduler Sched;
  Z3Env *Reuse;
  std::unique_ptr<Z3Env> Own;
  Z3EnvSlot Witness;
};

/// Shared state of one analysis run (one event mask).
class Run {
public:
  Run(const AbstractHistory &Hist, const AnalyzerOptions &Opts,
      std::vector<bool> EventMask, CommutativityOracle *CondOracle,
      const SatAssist *SatAsst, const Deadline *Dl, Solvers &Slv)
      : A(Hist), O(Opts), Mask(std::move(EventMask)), Oracle(CondOracle),
        Assist(SatAsst), DL(Dl), Solv(Slv) {
    // The incremental layer is disabled in prefilter-check mode: check
    // mode exists to actually run Z3 against domain proofs, and a replayed
    // verdict would mask the disagreement it is hunting for.
    IncrOn = O.UseIncremental && !O.CheckPrefilter && O.Incremental;
    if (IncrOn) {
      StageTimer Timer(IncrSec);
      IncrCtx = incrementalContextDigest(A, O, Mask);
    }
  }

  void execute(AnalysisResult &R);

private:
  /// True when a violation of \p V is contained in the sorted set \p Set.
  static bool subsumes(const std::vector<Violation> &V,
                       const std::vector<unsigned> &Set);
  /// Runs one bounded round; returns false when the analysis deadline
  /// expired before every unfolding of the round was conclusively handled
  /// (the remainder is counted in AnalysisResult::UnfoldingsDeferred and
  /// the round must not count towards KChecked).
  bool checkBounded(unsigned K, AnalysisResult &R,
                    const std::vector<unsigned> &Universe);
  /// One unit of the bounded check: SSG + candidate cycles + SMT for a
  /// single unfolding. Pure apart from the shared oracle (thread-safe).
  struct UnfoldingOutcome {
    bool CandTruncated = false;
    bool Flagged = false; ///< the instantiated SSG admitted candidates
    bool Prefiltered = false; ///< every candidate killed by the domain; the
                              ///< NoCycle verdict needed no Z3 query
    bool PrefilterUnknown = false; ///< prefilter ran but left candidates
    bool PrefilterDisagree = false; ///< --check-prefilter: Z3 contradicted
    bool Reused = false; ///< replayed from a persisted incremental record;
                         ///< prefilter and solve were both skipped
    UnfoldingResult Res;
    std::vector<unsigned> CycleKey; ///< sorted txn set of a found cycle
    SolveTelemetry Tel;
    bool CEValid = false;
    double SSGSec = 0, SmtSec = 0, PrefilterSec = 0, IncrSec = 0;
  };
  /// Solves one unit, polling \p Gate and the deadline before each
  /// expensive stage; nullopt when either cut it short. Stage seconds are
  /// folded into the run's totals either way (worker time, summed).
  std::optional<UnfoldingOutcome> solveOne(const Unfolding &U,
                                           SpecGate &Gate);
  bool solveStages(const Unfolding &U, SpecGate &Gate,
                   UnfoldingOutcome &Out);
  /// Commit-order witness for a found cycle (see Solvers::witnessEnv),
  /// validated end to end.
  void canonicalWitness(const Unfolding &U, UnfoldingOutcome &Out);
  /// Applies one outcome to \p R in enumeration order; the scheduler has
  /// already ruled out subsumption. \p K / \p Index identify the query for
  /// the trace. Returns the key of a newly recorded violation, if any.
  const std::vector<unsigned> *commitOutcome(const Unfolding &U,
                                             UnfoldingOutcome &&Out,
                                             AnalysisResult &R, unsigned K,
                                             long Index);
  bool generalizes(unsigned K, const AnalysisResult &R,
                   const std::vector<unsigned> &Universe);
  std::vector<struct MergeCtx>
  buildMerges(const Unfolding &U,
              const std::vector<std::vector<bool>> &SoClosure);
  std::vector<bool> maskForUnfolding(const Unfolding &U) const;
  /// Analyzes the instantiated SSG \p G of \p U under this run's oracle,
  /// assist and event mask.
  void instantiate(const Unfolding &U, SSG &G) const {
    G.setOracle(Oracle);
    G.setSatAssist(Assist);
    G.setEventMask(maskForUnfolding(U));
    G.analyze();
  }
  /// Returns true if a new violation was recorded (false on duplicates).
  bool recordViolation(AnalysisResult &R, std::vector<unsigned> OrigTxns,
                       std::optional<CounterExample> CE, bool Inconclusive);
  bool validateCE(const CounterExample &CE) const;

  /// Cheap pre-filter for session layouts: can the layout carry a
  /// candidate cycle (Closed) or a §7.2 spanning segment (open)? Checked on
  /// a mini-graph over the layout's transactions using the precomputed
  /// general SSG edges (a sound over-approximation of every instantiated
  /// SSG) plus intra-session order. Skipping a layout that fails avoids
  /// building its abstract history entirely.
  bool layoutViable(const std::vector<std::vector<unsigned>> &Layout,
                    bool Closed, bool RequireAllNodes) const;
  static bool layoutSubsumed(const std::vector<std::vector<unsigned>> &Layout,
                             const std::vector<Violation> &V);
  void precomputeGeneralEdges();
  /// Folds the run's stage timers and layout-filter counts into \p R.
  void finishStats(AnalysisResult &R) const {
    R.SSGSeconds += SSGSec;
    R.EnumSeconds += EnumSec;
    R.SmtSeconds += SmtSec;
    R.PrefilterSeconds += PrefilterSec;
    R.LayoutsFiltered += LayoutsFilteredGen;
    R.SMTRetries += SmtRetriesGen;
    R.SmtQueries += SmtQueriesGen;
    R.SmtQueriesPrefiltered += SmtQueriesPrefilteredGen;
    R.PrefilterUnknowns += PrefilterUnknownsGen;
    R.PrefilterDisagreements += PrefilterDisagreeGen;
    R.RlimitSpent += RlimitSpentGen;
    R.SmtSolves += SmtSolvesGen;
    R.SolverCtxReuses += SolverCtxReusesGen;
    R.IncrementalSeconds += IncrSec;
    R.DfsBudgetExhausted += DfsExhaustions;
    R.DeadlineExpired = R.DeadlineExpired || DeadlineHit;
  }

  const AbstractHistory &A;
  const AnalyzerOptions &O;
  std::vector<bool> Mask; // original events included in this run
  CommutativityOracle *Oracle; // shared memoization, may be null
  const SatAssist *Assist;     // domain assist for sat queries, may be null
  const Deadline *DL;          // the run's analysis deadline (never null)
  // General-SSG pairwise edges over original transactions (self-pairs
  // describe two instances of the same transaction).
  std::vector<std::vector<bool>> GenAny, GenAnti;
  // Per-stage time accumulators, folded into the AnalysisResult by
  // execute(); see AnalysisResult for their meaning. LayoutsFilteredGen
  // counts viability-filtered layouts of the generalization check (whose
  // result object is const at filter time).
  double SSGSec = 0, EnumSec = 0, SmtSec = 0, PrefilterSec = 0;
  unsigned LayoutsFilteredGen = 0;
  // Governance accumulators outside the result object: the generalization
  // check sees a const result, and the viability filter runs under both
  // const and non-const result contexts. Folded in by finishStats.
  unsigned SmtRetriesGen = 0;
  unsigned SmtQueriesGen = 0;
  unsigned SmtQueriesPrefilteredGen = 0;
  unsigned PrefilterUnknownsGen = 0;
  unsigned PrefilterDisagreeGen = 0;
  uint64_t RlimitSpentGen = 0;
  unsigned SmtSolvesGen = 0;
  uint64_t SolverCtxReusesGen = 0;
  double IncrSec = 0; ///< digest/key computation + record lookups
  std::mutex StatsMu;  ///< guards the stage seconds against helper threads
  mutable unsigned DfsExhaustions = 0;
  bool DeadlineHit = false;
  /// True when the incremental record store participates in this run; see
  /// the constructor.
  bool IncrOn = false;
  /// The run-level context digest scoping every record key (empty when the
  /// record store is off).
  std::string IncrCtx;
  std::vector<SSGViolation> Components; // Stage-1 suspicious components
  Solvers &Solv;
  Z3Env &seqEnv() { return Solv.seqEnv(); }
};

bool Run::subsumes(const std::vector<Violation> &V,
                   const std::vector<unsigned> &Set) {
  for (const Violation &Viol : V)
    if (std::includes(Set.begin(), Set.end(), Viol.OrigTxns.begin(),
                      Viol.OrigTxns.end()))
      return true;
  return false;
}

bool Run::layoutSubsumed(
    const std::vector<std::vector<unsigned>> &Layout,
    const std::vector<Violation> &V) {
  std::vector<unsigned> Set;
  for (const std::vector<unsigned> &Session : Layout)
    Set.insert(Set.end(), Session.begin(), Session.end());
  std::sort(Set.begin(), Set.end());
  Set.erase(std::unique(Set.begin(), Set.end()), Set.end());
  return subsumes(V, Set);
}

void Run::precomputeGeneralEdges() {
  StageTimer Timer(SSGSec);
  SSG G(A, O.Features);
  G.setOracle(Oracle);
  G.setSatAssist(Assist);
  G.setEventMask(Mask);
  G.analyze();
  unsigned N = A.numTxns();
  GenAny.assign(N, std::vector<bool>(N, false));
  GenAnti = GenAny;
  for (const Digraph::Edge &E : G.graph().edges()) {
    if (E.Label == DepSO)
      continue; // session order is layout-dependent; added per layout
    GenAny[E.From][E.To] = true;
    if (E.Label == DepAntiDep)
      GenAnti[E.From][E.To] = true;
  }
}

bool Run::layoutViable(const std::vector<std::vector<unsigned>> &Layout,
                       bool Closed, bool RequireAllNodes) const {
  // Mini-graph nodes: the layout's transaction instances.
  struct Node {
    unsigned Orig;
    unsigned Session;
  };
  std::vector<Node> Nodes;
  for (unsigned S = 0; S != Layout.size(); ++S)
    for (unsigned T : Layout[S])
      Nodes.push_back({T, S});
  unsigned N = static_cast<unsigned>(Nodes.size());
  unsigned FullMask = (1u << Layout.size()) - 1;

  auto HasEdge = [&](unsigned I, unsigned J, bool &Anti) {
    Anti = GenAnti[Nodes[I].Orig][Nodes[J].Orig];
    if (GenAny[Nodes[I].Orig][Nodes[J].Orig])
      return true;
    // Intra-session order: instances were listed in chain order.
    return Nodes[I].Session == Nodes[J].Session && I < J;
  };

  // DFS over simple paths: cover every session, use >= 1 anti edge, and
  // (for cycles) return to the start. The search is budgeted: on dense
  // mini-graphs we give up and conservatively keep the layout (the precise
  // machinery decides). Exhaustions are counted — a run that silently falls
  // back to "viable" everywhere has lost its pre-filter and the operator
  // should know (surfaced in AnalysisResult::DfsBudgetExhausted) — and the
  // budget is configurable (AnalyzerOptions::LayoutDfsBudget).
  std::vector<bool> OnPath(N, false);
  unsigned Covered = 0;
  unsigned Budget = O.LayoutDfsBudget;
  bool Exhausted = false;
  std::function<bool(unsigned, unsigned, unsigned, bool)> Dfs =
      [&](unsigned Start, unsigned Node2, unsigned SessMask,
          bool Anti) -> bool {
    if (Budget == 0) {
      Exhausted = true;
      return true; // budget exhausted: treat as viable
    }
    --Budget;
    // Deadline poll every 4096 steps: a dense mini-graph DFS can run for
    // a while, and the enumeration filter is on the round's critical path.
    if ((Budget & 0xFFFu) == 0 && DL->expired()) {
      Exhausted = true;
      return true; // cancelled: conservatively viable (round is deferred)
    }
    if (SessMask == FullMask && Anti &&
        (!RequireAllNodes || Covered == N)) {
      if (!Closed)
        return true;
      bool EdgeAnti = false;
      if (HasEdge(Node2, Start, EdgeAnti))
        return true;
    }
    for (unsigned Next = 0; Next != N; ++Next) {
      if (OnPath[Next])
        continue;
      bool EdgeAnti = false;
      if (!HasEdge(Node2, Next, EdgeAnti))
        continue;
      OnPath[Next] = true;
      ++Covered;
      if (Dfs(Start, Next, SessMask | (1u << Nodes[Next].Session),
              Anti || EdgeAnti)) {
        OnPath[Next] = false;
        --Covered;
        return true;
      }
      OnPath[Next] = false;
      --Covered;
    }
    return false;
  };
  for (unsigned Start = 0; Start != N; ++Start) {
    std::fill(OnPath.begin(), OnPath.end(), false);
    OnPath[Start] = true;
    Covered = 1;
    if (Dfs(Start, Start, 1u << Nodes[Start].Session, false)) {
      DfsExhaustions += Exhausted;
      return true;
    }
  }
  DfsExhaustions += Exhausted;
  return false;
}

std::vector<bool> Run::maskForUnfolding(const Unfolding &U) const {
  std::vector<bool> M(U.H.numEvents(), true);
  for (unsigned E = 0; E != U.H.numEvents(); ++E)
    M[E] = Mask[U.OrigEvent[E]];
  return M;
}

bool Run::recordViolation(AnalysisResult &R, std::vector<unsigned> OrigTxns,
                          std::optional<CounterExample> CE,
                          bool Inconclusive) {
  std::sort(OrigTxns.begin(), OrigTxns.end());
  OrigTxns.erase(std::unique(OrigTxns.begin(), OrigTxns.end()),
                 OrigTxns.end());
  for (const Violation &V : R.Violations)
    if (V.OrigTxns == OrigTxns)
      return false;
  Violation V;
  V.OrigTxns = std::move(OrigTxns);
  for (unsigned T : V.OrigTxns)
    V.TxnNames.push_back(A.txn(T).Name);
  V.CE = std::move(CE);
  if (V.CE)
    V.CEText = V.CE->Text;
  V.Inconclusive = Inconclusive;
  R.Violations.push_back(std::move(V));
  return true;
}

bool Run::validateCE(const CounterExample &CE) const {
  // End-to-end check of the extracted witness: it must concretize the
  // abstract history and its schedule's DSG must be cyclic (the criterion's
  // definition of a violation). Validation can fail legitimately when the
  // S1 return-value fix-up changed a guard-feeding query, leaving a
  // pre-schedule witness (see DESIGN.md).
  if (!findConcretization(CE.H, A).has_value())
    return false;
  EventRelations Rel(CE.H);
  DependenceTriple T = computeDependencies(CE.H, CE.S, Rel);
  return buildDSG(CE.H, T).hasCycle();
}

std::optional<Run::UnfoldingOutcome> Run::solveOne(const Unfolding &U,
                                                   SpecGate &Gate) {
  UnfoldingOutcome Out;
  bool Complete = solveStages(U, Gate, Out);
  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    SSGSec += Out.SSGSec;
    SmtSec += Out.SmtSec;
    PrefilterSec += Out.PrefilterSec;
    IncrSec += Out.IncrSec;
  }
  if (!Complete)
    return std::nullopt;
  return Out;
}

bool Run::solveStages(const Unfolding &U, SpecGate &Gate,
                      UnfoldingOutcome &Out) {
  // Cooperative cancellation before each expensive stage: an expired
  // deadline, or (speculative units only) the unit turned subsumed.
  auto Stop = [&] { return DL->expired() || Gate.dead(); };
  if (Stop())
    return false;
  SSG G(U.H, O.Features, U.SessionTags);
  std::vector<CandidateCycle> Cands;
  {
    StageTimer Timer(Out.SSGSec);
    instantiate(U, G);
    Cands = G.candidateCycles(O.MaxCandidateCycles, Out.CandTruncated);
  }
  if (Cands.empty())
    return true;
  Out.Flagged = true;
  // Incremental record lookup, ahead of the prefilter: a persisted NoCycle
  // outcome replays the whole prefilter+solve tail of this unit, counters
  // included, so a warm run's non-timing statistics match a cold run's.
  // The key covers the unfolding's name-free content and the exact
  // candidate set; the store only ever holds NoCycle outcomes (cycles are
  // re-solved for their counter-example text, unknowns are never frozen).
  std::string RecKey;
  if (IncrOn) {
    StageTimer Timer(Out.IncrSec);
    RecKey = unfoldingRecordKey(IncrCtx, U, Cands, "bounded");
    if (const IncrRecord *Rec = O.Incremental->lookup(RecKey)) {
      Out.Reused = true;
      Out.Prefiltered = Rec->Prefiltered;
      Out.PrefilterUnknown = Rec->PrefilterUnknown;
      Out.Res.Status = UnfoldingResult::NoCycle;
      Out.Tel.Attempts = Rec->Attempts;
      Out.Tel.CtxReuses = Rec->CtxReuses;
      Out.Tel.RlimitBudget = Rec->RlimitBudget;
      return true;
    }
  }
  if (O.UsePrefilter) {
    // The domain prefilter: when every candidate is proven unrealizable,
    // NoCycle holds without building a Z3 query. Partial kills fall through
    // to the full solve (the counter-example text must stay byte-identical
    // to a --no-prefilter run, so the SMT stage sees the original
    // candidate list).
    if (Stop())
      return false;
    StageTimer Timer(Out.PrefilterSec);
    PrefilterResult PR =
        prefilterCandidates(U, G, Cands, O.Features, Oracle);
    if (PR.allKilled())
      Out.Prefiltered = true;
    else
      Out.PrefilterUnknown = true;
  }
  // The Z3 solve, bracketed by the gate: a unit that turns subsumed while
  // it runs is interrupted, and its (possibly cut short) answer dropped.
  auto Solve = [&](UnfoldingResult &Res) {
    if (Stop() || !Gate.enterSolve())
      return false;
    {
      StageTimer Timer(Out.SmtSec);
      SolverPolicy P{O.Budget, DL};
      Res = solveUnfolding(U, G, Cands, O.Features, P, Oracle, &Gate.env(),
                           &Out.Tel);
    }
    Gate.leaveSolve();
    return !Gate.dead();
  };
  if (Out.Prefiltered) {
    Out.Res.Status = UnfoldingResult::NoCycle;
    if (!O.CheckPrefilter) {
      if (!RecKey.empty())
        O.Incremental->record(RecKey, {/*Prefiltered=*/true,
                                       /*PrefilterUnknown=*/false,
                                       /*Attempts=*/0, /*CtxReuses=*/0,
                                       /*RlimitBudget=*/0});
      return true;
    }
    // Debug cross-check: solve anyway. A cycle found by Z3 refutes the
    // domain proof — count the disagreement and trust Z3 (an unknown does
    // not contradict a proof; the domain verdict stands).
    UnfoldingResult Check;
    if (!Solve(Check))
      return false;
    if (Check.Status != UnfoldingResult::CycleFound)
      return true;
    Out.PrefilterDisagree = true;
    Out.Prefiltered = false;
    Out.Res = std::move(Check);
  } else if (!Solve(Out.Res)) {
    return false;
  }
  if (Out.Res.Status == UnfoldingResult::CycleFound) {
    // Witness extraction and validation wait for the commit: only a cycle
    // that is committed pays for them (canonicalWitness).
    Out.CycleKey = Out.Res.CE->OrigTxns;
    std::sort(Out.CycleKey.begin(), Out.CycleKey.end());
    Out.CycleKey.erase(std::unique(Out.CycleKey.begin(), Out.CycleKey.end()),
                       Out.CycleKey.end());
  } else if (!RecKey.empty() &&
             Out.Res.Status == UnfoldingResult::NoCycle && !Out.Tel.Error) {
    O.Incremental->record(RecKey,
                          {/*Prefiltered=*/false, Out.PrefilterUnknown,
                           Out.Tel.Attempts, Out.Tel.CtxReuses,
                           Out.Tel.RlimitBudget});
  }
  return true;
}

void Run::canonicalWitness(const Unfolding &U, UnfoldingOutcome &Out) {
  if (Out.Res.Status != UnfoldingResult::CycleFound)
    return;
  SSG G(U.H, O.Features, U.SessionTags);
  std::vector<CandidateCycle> Cands;
  double SSGTime = 0, SmtTime = 0;
  {
    StageTimer Timer(SSGTime);
    instantiate(U, G);
    bool CandTruncated = false;
    Cands = G.candidateCycles(O.MaxCandidateCycles, CandTruncated);
  }
  // Only the realized (minimal satisfiable) candidate is re-solved, so the
  // witness shows the same cycle; should the re-solve not confirm it (a
  // budget edge), the witness in hand stands.
  UnfoldingResult Res;
  if (Out.Res.CE->Candidate < Cands.size()) {
    StageTimer Timer(SmtTime);
    SolverPolicy P{O.Budget, DL};
    Res = solveUnfolding(U, G, {Cands[Out.Res.CE->Candidate]}, O.Features, P,
                         Oracle, &Solv.witnessEnv());
  }
  if (Res.Status == UnfoldingResult::CycleFound) {
    std::vector<unsigned> Key = Res.CE->OrigTxns;
    std::sort(Key.begin(), Key.end());
    Key.erase(std::unique(Key.begin(), Key.end()), Key.end());
    if (Key == Out.CycleKey)
      Out.Res = std::move(Res);
  }
  Out.CEValid = validateCE(*Out.Res.CE);
  std::lock_guard<std::mutex> Lock(StatsMu);
  SSGSec += SSGTime;
  SmtSec += SmtTime;
}

const std::vector<unsigned> *
Run::commitOutcome(const Unfolding &U, UnfoldingOutcome &&Out,
                   AnalysisResult &R, unsigned K, long Index) {
  ++R.UnfoldingsChecked;
  R.Truncated = R.Truncated || Out.CandTruncated;
  if (!Out.Flagged)
    return nullptr;
  ++R.SSGFlagged;
  if (Out.Prefiltered)
    ++R.SmtQueriesPrefiltered; // the NoCycle verdict cost no Z3 query
  else
    ++R.SmtQueries;
  R.PrefilterUnknowns += Out.PrefilterUnknown;
  R.PrefilterDisagreements += Out.PrefilterDisagree;
  // Governance accounting and the trace record happen at commit time, in
  // enumeration order, so both are deterministic across thread counts.
  // (RlimitSpent is telemetry — Z3's spent counter can jitter by a few
  // thousand units with context history — but attempts/verdicts are exact.)
  if (Out.Tel.Attempts > 1)
    R.SMTRetries += Out.Tel.Attempts - 1;
  R.RlimitSpent += Out.Tel.RlimitSpent;
  // Reused records replay the cold run's attempt/retry counters above, but
  // only queries that actually reached Z3 this run count as solves.
  if (!Out.Reused && Out.Tel.Attempts > 0)
    ++R.SmtSolves;
  R.SolverCtxReuses += Out.Tel.CtxReuses;
  const char *Outcome = "unknown";
  bool Recorded = false;
  switch (Out.Res.Status) {
  case UnfoldingResult::NoCycle:
    ++R.SMTRefuted;
    Outcome = "no-cycle";
    break;
  case UnfoldingResult::Unknown:
    ++R.SMTUnknown;
    Outcome = Out.Tel.Error ? "error" : "unknown";
    // Sound default: report the unfolding's transactions as a potential
    // violation.
    Recorded = recordViolation(R, U.origTxnSet(), std::nullopt,
                               /*Inconclusive=*/true);
    break;
  case UnfoldingResult::CycleFound:
    Outcome = "cycle";
    break;
  }
  if (O.Trace) {
    QueryRecord Rec;
    Rec.Stage = "bounded";
    Rec.K = K;
    Rec.Unfolding = Index;
    // Prefiltered and reused queries issued no solve attempt; for reused
    // records the replayed count matches the cold run's trace line.
    Rec.Attempts = Out.Prefiltered || Out.Reused
                       ? Out.Tel.Attempts
                       : std::max(1u, Out.Tel.Attempts);
    Rec.RlimitBudget = Out.Tel.RlimitBudget;
    Rec.RlimitSpent = Out.Tel.RlimitSpent;
    Rec.Outcome = Outcome;
    Rec.Prefiltered = Out.Prefiltered;
    Rec.Reused = Out.Reused;
    Rec.WallMs = (Out.SmtSec + Out.PrefilterSec + Out.IncrSec) * 1000.0;
    O.Trace->append(Rec);
  }
  if (Out.Res.Status == UnfoldingResult::CycleFound) {
    Recorded = recordViolation(R, std::move(Out.CycleKey),
                               std::move(Out.Res.CE),
                               /*Inconclusive=*/false);
    if (Recorded)
      R.Violations.back().Validated = Out.CEValid;
  }
  return Recorded ? &R.Violations.back().OrigTxns : nullptr;
}

bool Run::checkBounded(unsigned K, AnalysisResult &R,
                       const std::vector<unsigned> &Universe) {
  bool Truncated = false;
  std::function<bool(const std::vector<std::vector<unsigned>> &)> Filter =
      [&](const std::vector<std::vector<unsigned>> &Layout) {
        if (layoutSubsumed(Layout, R.Violations)) {
          ++R.UnfoldingsSubsumed;
          return false;
        }
        if (layoutViable(Layout, /*Closed=*/true,
                         /*RequireAllNodes=*/false))
          return true;
        ++R.LayoutsFiltered;
        return false;
      };
  std::vector<Unfolding> Unfoldings;
  {
    StageTimer Timer(EnumSec);
    Unfoldings = enumerateUnfoldings(A, K, O.MaxUnfoldings, Truncated,
                                     &Universe, &Filter, DL);
  }
  R.Truncated = R.Truncated || Truncated;
  if (DL->expired()) {
    // Deadline hit during enumeration: everything in this round is
    // deferred (Truncated is already set if enumeration stopped early,
    // blocking generalization downstream).
    R.UnfoldingsDeferred += static_cast<unsigned>(Unfoldings.size());
    R.DeadlineExpired = true;
    return false;
  }

  // One scheduler for every thread count (see analysis/Scheduler.h):
  // commits happen here, in enumeration order, so violation sets and every
  // deterministic statistic are identical at any thread count; helpers
  // solve ahead speculatively and are cancelled as soon as their unit turns
  // subsumed. Under an expired deadline the round commits a prefix of the
  // enumeration order and defers the rest (where the cut lands is
  // timing-dependent; without a deadline, runs stay bit-identical).
  std::vector<std::vector<unsigned>> Keys;
  Keys.reserve(Unfoldings.size());
  for (const Unfolding &U : Unfoldings)
    Keys.push_back(U.origTxnSet());
  SpecHooks<UnfoldingOutcome> H;
  H.Keys = &Keys;
  H.CommittedSubsumes = [&R](const std::vector<unsigned> &Key) {
    return subsumes(R.Violations, Key);
  };
  H.Solve = [&](size_t I, SpecGate &Gate) {
    return solveOne(Unfoldings[I], Gate);
  };
  H.Found = [](const UnfoldingOutcome &Out) -> const std::vector<unsigned> * {
    return Out.Res.Status == UnfoldingResult::CycleFound ? &Out.CycleKey
                                                         : nullptr;
  };
  H.Prepare = [&](size_t I, UnfoldingOutcome &Out) {
    canonicalWitness(Unfoldings[I], Out);
  };
  H.Commit = [&](size_t I, UnfoldingOutcome &&Out) {
    return commitOutcome(Unfoldings[I], std::move(Out), R, K,
                         static_cast<long>(I));
  };
  SpecStats St = Solv.Sched.run(
      Unfoldings.size(), [this]() -> Z3Env & { return seqEnv(); }, H);
  Solv.endRound();
  R.UnfoldingsSubsumed += St.Subsumed;
  R.SpeculativeDiscarded += St.Discarded;
  if (!St.Completed) {
    R.UnfoldingsDeferred += St.Deferred;
    R.DeadlineExpired = true;
    return false;
  }
  return true;
}

/// The session layout of an unfolding: per session, the original
/// transaction ids in chain order.
static std::vector<std::vector<unsigned>>
sessionSpecs(const Unfolding &U) {
  std::vector<std::vector<unsigned>> Specs(U.NumSessions);
  // Transactions were instantiated session by session in chain order, so
  // increasing transaction id preserves both.
  for (unsigned T = 0; T != U.H.numTxns(); ++T)
    Specs[U.SessionTags[T]].push_back(U.OrigTxn[T]);
  return Specs;
}

/// A session merge of an unfolding: the transaction mapping into the merged
/// unfolding plus the merged instantiated SSG.
struct MergeCtx {
  std::vector<unsigned> MapTxn;
  Digraph Graph;
};

/// Builds all legal one-session merges of \p U (session J appended to
/// session I when the abstract session order permits) with their SSGs.
std::vector<MergeCtx>
Run::buildMerges(const Unfolding &U,
                 const std::vector<std::vector<bool>> &SoClosure) {
  std::vector<MergeCtx> Result;
  std::vector<std::vector<unsigned>> Specs = sessionSpecs(U);
  std::vector<std::vector<unsigned>> OldIds(U.NumSessions);
  for (unsigned T = 0; T != U.H.numTxns(); ++T)
    OldIds[U.SessionTags[T]].push_back(T);
  for (unsigned I = 0; I != U.NumSessions; ++I)
    for (unsigned J = 0; J != U.NumSessions; ++J) {
      if (I == J || Specs[I].empty() || Specs[J].empty())
        continue;
      if (!SoClosure[Specs[I].back()][Specs[J].front()])
        continue;
      std::vector<std::vector<unsigned>> Merged;
      std::vector<unsigned> MapTxn(U.H.numTxns(), 0);
      unsigned Next = 0;
      for (unsigned S = 0; S != U.NumSessions; ++S) {
        if (S == J)
          continue;
        std::vector<unsigned> Spec = Specs[S];
        for (unsigned T : OldIds[S])
          MapTxn[T] = Next++;
        if (S == I) {
          Spec.insert(Spec.end(), Specs[J].begin(), Specs[J].end());
          for (unsigned T : OldIds[J])
            MapTxn[T] = Next++;
        }
        Merged.push_back(std::move(Spec));
      }
      Unfolding MU = buildUnfolding(A, Merged);
      StageTimer Timer(SSGSec);
      SSG G(MU.H, O.Features, MU.SessionTags);
      instantiate(MU, G);
      Result.push_back({std::move(MapTxn), G.graph()});
    }
  return Result;
}

/// §7.2 short-cut: can the segment pattern be reduced by one session? We
/// merge the transactions of one spanned session onto the end of another
/// (when the abstract session order permits) and check that every segment
/// step still has an SSG edge with one of its labels in the merged
/// unfolding. If so, any cycle containing the segment transforms into a
/// cycle over fewer sessions with the same syntactic transactions, which
/// the bounded check (or a further reduction) covers.
static bool shortcutReducibleWith(const std::vector<MergeCtx> &Merges,
                                  const CandidateCycle &Seg) {
  for (const MergeCtx &M : Merges) {
    bool AllSteps = true;
    for (unsigned Step = 0; Step + 1 < Seg.Txns.size() && AllSteps;
         ++Step) {
      unsigned From = M.MapTxn[Seg.Txns[Step]];
      unsigned To = M.MapTxn[Seg.Txns[Step + 1]];
      bool Any = false;
      for (unsigned EI : M.Graph.edgesBetween(From, To))
        for (int L : Seg.StepLabels[Step])
          Any = Any || M.Graph.edge(EI).Label == L;
      AllSteps = Any;
    }
    if (AllSteps)
      return true;
  }
  return false;
}

bool Run::generalizes(unsigned K, const AnalysisResult &R,
                      const std::vector<unsigned> &Universe) {
  // Any violation we could not conclusively analyze blocks generalization.
  for (const Violation &V : R.Violations)
    if (V.Inconclusive)
      return false;
  // A generalization claim covers *every* number of sessions; under an
  // expired deadline we cannot afford the evidence, so refuse (sound).
  if (DL->expired()) {
    DeadlineHit = true;
    return false;
  }
  bool Truncated = false;
  std::function<bool(const std::vector<std::vector<unsigned>> &)> Filter =
      [&](const std::vector<std::vector<unsigned>> &Layout) {
        // Segments are only examined on the layout holding exactly their
        // transactions (any segment of a larger layout is covered by its
        // exact one), so subsumption applies at layout granularity and the
        // spanning path must cover every transaction.
        if (layoutSubsumed(Layout, R.Violations))
          return false;
        if (layoutViable(Layout, /*Closed=*/false,
                         /*RequireAllNodes=*/true))
          return true;
        ++LayoutsFilteredGen;
        return false;
      };
  std::vector<Unfolding> Unfoldings;
  {
    StageTimer Timer(EnumSec);
    Unfoldings = enumerateUnfoldings(A, K, O.MaxUnfoldings, Truncated,
                                     &Universe, &Filter, DL);
  }
  if (DL->expired()) {
    DeadlineHit = true;
    return false;
  }
  if (Truncated) {
    if (std::getenv("C4_DEBUG_GEN"))
      std::fputs("gen blocked: unfolding enumeration truncated\n", stderr);
    return false;
  }

  // Transitive closure of the original may-follow relation (for merges).
  unsigned N = A.numTxns();
  std::vector<std::vector<bool>> SoClosure(N, std::vector<bool>(N, false));
  for (unsigned S = 0; S != N; ++S)
    for (unsigned T = 0; T != N; ++T)
      SoClosure[S][T] = A.maySo(S, T);
  for (unsigned M = 0; M != N; ++M)
    for (unsigned I = 0; I != N; ++I) {
      if (!SoClosure[I][M])
        continue;
      for (unsigned J = 0; J != N; ++J)
        if (SoClosure[M][J])
          SoClosure[I][J] = true;
    }

  long GenIndex = -1;
  for (const Unfolding &U : Unfoldings) {
    ++GenIndex;
    if (DL->expired()) {
      DeadlineHit = true;
      return false;
    }
    SSG G(U.H, O.Features, U.SessionTags);
    {
      StageTimer Timer(SSGSec);
      instantiate(U, G);
    }
    // (a) Segments subsumed by known violations are dropped during
    // enumeration; (b) the cheap SSG-level short-cut (session merging)
    // handles most of the rest.
    std::vector<MergeCtx> Merges;
    bool MergesBuilt = false;
    std::function<bool(const CandidateCycle &)> Unsubsumed =
        [&](const CandidateCycle &Seg) {
          std::vector<unsigned> SegSet;
          for (unsigned T : Seg.Txns)
            SegSet.push_back(U.OrigTxn[T]);
          std::sort(SegSet.begin(), SegSet.end());
          SegSet.erase(std::unique(SegSet.begin(), SegSet.end()),
                       SegSet.end());
          for (const Violation &V : R.Violations)
            if (std::includes(SegSet.begin(), SegSet.end(),
                              V.OrigTxns.begin(), V.OrigTxns.end()))
              return false;
          return true;
        };
    bool SegTruncated = false;
    std::vector<CandidateCycle> Segments;
    {
      StageTimer Timer(SSGSec);
      Segments = G.spanningSegments(U.NumSessions, /*MaxSegments=*/4096,
                                    SegTruncated, U.OrigTxn, &Unsubsumed,
                                    /*RequireAllTxns=*/true);
    }
    if (SegTruncated) {
      if (std::getenv("C4_DEBUG_GEN"))
        std::fputs("gen blocked: segment enumeration truncated\n", stderr);
      return false;
    }
    if (Segments.empty())
      continue;

    std::vector<CandidateCycle> Remaining;
    for (CandidateCycle &Seg : Segments) {
      if (!MergesBuilt) {
        Merges = buildMerges(U, SoClosure);
        MergesBuilt = true;
      }
      if (!shortcutReducibleWith(Merges, Seg))
        Remaining.push_back(std::move(Seg));
    }
    if (Remaining.empty())
      continue;

    // (c) SMT: the remaining segments must be infeasible. Query in chunks
    // to keep individual encodings small.
    UnfoldingResult Res;
    Res.Status = UnfoldingResult::NoCycle;
    {
      StageTimer Timer(SmtSec);
      SolverPolicy P{O.Budget, DL};
      // One shared solver context per unfolding: the session layout's base
      // encoding (orders, control flow, facts) is built once and chunks
      // 2..n add only their cycle selectors under push/pop, instead of
      // re-encoding everything per chunk. Lazily built — unfoldings whose
      // chunks are all prefiltered or replayed never pay for an encoding.
      std::optional<LayoutSolver> LS;
      for (size_t Begin = 0;
           Begin < Remaining.size() &&
           Res.Status == UnfoldingResult::NoCycle;
           Begin += 64) {
        if (DL->expired()) {
          DeadlineHit = true;
          return false;
        }
        std::vector<CandidateCycle> Chunk(
            Remaining.begin() + Begin,
            Remaining.begin() +
                std::min(Remaining.size(), Begin + 64));
        SolveTelemetry Tel;
        double ChunkSec = 0;
        bool Prefiltered = false;
        bool Reused = false;
        // Incremental record lookup first (see solveOne): a persisted
        // NoCycle outcome replays the chunk's prefilter+solve counters.
        std::string RecKey;
        if (IncrOn) {
          double IncrChunkSec = 0;
          {
            StageTimer IncrTimer(IncrChunkSec);
            RecKey = unfoldingRecordKey(IncrCtx, U, Chunk, "generalize");
            if (const IncrRecord *Rec = O.Incremental->lookup(RecKey)) {
              Reused = true;
              Prefiltered = Rec->Prefiltered;
              Res.Status = UnfoldingResult::NoCycle;
              Tel.Attempts = Rec->Attempts;
              Tel.CtxReuses = Rec->CtxReuses;
              Tel.RlimitBudget = Rec->RlimitBudget;
              if (Prefiltered)
                ++SmtQueriesPrefilteredGen;
              else
                ++SmtQueriesGen;
              PrefilterUnknownsGen += Rec->PrefilterUnknown;
              if (Tel.Attempts > 1)
                SmtRetriesGen += Tel.Attempts - 1;
              SolverCtxReusesGen += Tel.CtxReuses;
            }
          }
          IncrSec += IncrChunkSec;
          ChunkSec += IncrChunkSec;
        }
        bool PrefUnknown = false;
        if (!Reused) {
          // Domain prefilter per chunk, mirroring the bounded stage: when
          // every segment of the chunk dies, the NoCycle verdict needs no
          // Z3 query (in check mode the solve still runs, Z3 is trusted).
          if (O.UsePrefilter) {
            double PfSec = 0;
            {
              StageTimer PfTimer(PfSec);
              PrefilterResult PR =
                  prefilterCandidates(U, G, Chunk, O.Features, Oracle);
              Prefiltered = PR.allKilled();
            }
            PrefilterSec += PfSec;
            ChunkSec += PfSec;
            if (!Prefiltered) {
              ++PrefilterUnknownsGen;
              PrefUnknown = true;
            }
          }
          if (Prefiltered && !O.CheckPrefilter) {
            Res.Status = UnfoldingResult::NoCycle;
            ++SmtQueriesPrefilteredGen;
            if (!RecKey.empty())
              O.Incremental->record(RecKey, {/*Prefiltered=*/true,
                                             /*PrefilterUnknown=*/false,
                                             /*Attempts=*/0, /*CtxReuses=*/0,
                                             /*RlimitBudget=*/0});
          } else {
            {
              StageTimer ChunkTimer(ChunkSec);
              if (!LS)
                LS.emplace(U, G, O.Features, P, Oracle, &seqEnv());
              Res = LS->solve(Chunk, &Tel);
            }
            if (Prefiltered) {
              if (Res.Status == UnfoldingResult::CycleFound) {
                ++PrefilterDisagreeGen; // Z3 refuted the domain proof
                Prefiltered = false;
                ++SmtQueriesGen;
              } else {
                Res.Status = UnfoldingResult::NoCycle;
                ++SmtQueriesPrefilteredGen;
              }
            } else {
              ++SmtQueriesGen;
            }
            if (Tel.Attempts > 1)
              SmtRetriesGen += Tel.Attempts - 1;
            RlimitSpentGen += Tel.RlimitSpent;
            SolverCtxReusesGen += Tel.CtxReuses;
            if (Tel.Attempts > 0)
              ++SmtSolvesGen;
            if (!RecKey.empty() &&
                Res.Status == UnfoldingResult::NoCycle && !Tel.Error)
              O.Incremental->record(RecKey, {/*Prefiltered=*/false,
                                             PrefUnknown, Tel.Attempts,
                                             Tel.CtxReuses,
                                             Tel.RlimitBudget});
          }
        }
        if (O.Trace) {
          QueryRecord Rec;
          Rec.Stage = "generalize";
          Rec.K = K;
          Rec.Unfolding = GenIndex;
          Rec.Attempts = Prefiltered || Reused ? Tel.Attempts
                                               : std::max(1u, Tel.Attempts);
          Rec.RlimitBudget = Tel.RlimitBudget;
          Rec.RlimitSpent = Tel.RlimitSpent;
          Rec.Outcome = Res.Status == UnfoldingResult::NoCycle ? "no-cycle"
                        : Res.Status == UnfoldingResult::CycleFound
                            ? "cycle"
                            : (Tel.Error ? "error" : "unknown");
          Rec.Prefiltered = Prefiltered;
          Rec.Reused = Reused;
          Rec.WallMs = ChunkSec * 1000.0;
          O.Trace->append(Rec);
        }
      }
    }
    if (Res.Status != UnfoldingResult::NoCycle) {
      if (std::getenv("C4_DEBUG_GEN")) {
        std::string Msg = "gen blocked in:";
        for (unsigned T = 0; T != U.H.numTxns(); ++T)
          Msg += strf(" %s/s%u", U.H.txn(T).Name.c_str(), U.SessionTags[T]);
        Msg += strf(" (%zu segs, status %d); first:",
                    Remaining.size(), static_cast<int>(Res.Status));
        for (unsigned T : Remaining.front().Txns)
          Msg += strf(" %u", T);
        for (const auto &L : Remaining.front().StepLabels) {
          Msg += " [";
          for (int X : L)
            Msg += strf("%d,", X);
          Msg += "]";
        }
        Msg += "\n";
        std::fputs(Msg.c_str(), stderr);
      }
      return false;
    }
  }
  return true;
}

void Run::execute(AnalysisResult &R) {
  precomputeGeneralEdges();
  // Stage 1: the fast general SSG analysis.
  bool FastProved = false;
  {
    StageTimer Timer(SSGSec);
    SSG General(A, O.Features);
    General.setOracle(Oracle);
    General.setSatAssist(Assist);
    General.setEventMask(Mask);
    General.analyze();
    R.SSGEdges +=
        static_cast<unsigned>(General.graph().edges().size());
    if (General.provesSerializable()) {
      FastProved = true;
    } else {
      // Stage 2 below consumes the suspicious components.
      Components = General.violations();
    }
  }
  if (FastProved) {
    R.FastProvedSerializable = true;
    R.Generalized = true;
    finishStats(R);
    return;
  }

  // Stage 2: per suspicious component (a minimal DSG cycle projects onto a
  // cycle of the SSG, hence into one strongly connected component), run
  // bounded checks with increasing k, then generalize (§7.2).
  bool AllGeneralized = true;
  for (const SSGViolation &Component : Components) {
    unsigned K = 2;
    bool Generalized = false;
    while (true) {
      if (DL->expired()) {
        // Deadline before this round started: nothing of it was checked,
        // so KChecked keeps its last fully-completed value.
        DeadlineHit = true;
        break;
      }
      bool Completed = checkBounded(K, R, Component.Txns);
      if (!Completed) {
        // Partial round: results committed so far are sound findings, but
        // the bound K was not exhaustively checked — it must not count, and
        // neither generalization nor completeness can be claimed.
        DeadlineHit = true;
        break;
      }
      R.KChecked = std::max(R.KChecked, K);
      ++K;
      if (generalizes(K, R, Component.Txns)) {
        Generalized = true;
        break;
      }
      if (K > O.MaxK)
        break;
    }
    AllGeneralized = AllGeneralized && Generalized;
  }
  R.Generalized = AllGeneralized;
  finishStats(R);
}

} // namespace

AnalysisResult c4::analyze(const AbstractHistory &A,
                           const AnalyzerOptions &O) {
  auto Start = std::chrono::steady_clock::now();
  AnalysisResult R;

  // The global deadline, shared by every Run (atomic sets share one budget:
  // the flag bounds the whole analysis, not each subset). A caller-owned
  // deadline takes precedence so the serving tier can cancel the run.
  Deadline OwnDL(O.DeadlineMs);
  const Deadline &DL = O.ExternalDeadline ? *O.ExternalDeadline : OwnDL;

  // One memoization oracle per analyze() call: the rewrite-spec conditions
  // and satisfiability verdicts are shared by every SSG instantiation and
  // SMT encoding of the run (across atomic sets, unfoldings and threads).
  // A caller-provided long-lived oracle (service / verdict cache) takes
  // precedence, carrying verdicts across runs.
  CommutativityOracle Oracle;
  CommutativityOracle *OraclePtr =
      !O.UseOracle ? nullptr
                   : (O.ExternalOracle ? O.ExternalOracle : &Oracle);

  // The domain assist strengthening the SSG stage's satisfiability tests
  // (oracle call site of the prefilter). Thread-safe: domainDecide is pure
  // and the check-mode counter is atomic. In check mode every domain proof
  // is cross-checked against Z3; a contradiction is counted and the
  // verdict degraded to Unknown so the congruence fallback (whose verdicts
  // Z3 vouches for separately) stays authoritative.
  std::atomic<unsigned> AssistDisagreements{0};
  SatAssist Assist;
  if (O.UsePrefilter) {
    bool Check = O.CheckPrefilter;
    Assist = [Check, &AssistDisagreements](
                 const Cond &C, const EventFacts &Src,
                 const EventFacts &Tgt) -> AssistVerdict {
      DomainVerdict V = domainDecide(C, Src, Tgt);
      if (V == DomainVerdict::Unknown)
        return AssistVerdict::Unknown;
      bool Sat = V == DomainVerdict::ProvenSat;
      if (Check && z3CondSatisfiable(C, Src, Tgt) != Sat) {
        AssistDisagreements.fetch_add(1, std::memory_order_relaxed);
        return AssistVerdict::Unknown;
      }
      return Sat ? AssistVerdict::Sat : AssistVerdict::Unsat;
    };
  }
  const SatAssist *AssistPtr = Assist ? &Assist : nullptr;

  // Base mask: the display-code filter.
  std::vector<bool> Base(A.numEvents(), true);
  if (O.DisplayFilter)
    for (unsigned E = 0; E != A.numEvents(); ++E)
      if (A.event(E).Display)
        Base[E] = false;

  // Transaction fingerprinting (once per analyze() call, not per atomic-set
  // sub-run): note every transaction's content digest in the incremental
  // store and count how many were already present in the persisted base —
  // the `txn_fingerprint_hits` signal of how much of the program survived
  // the edit unchanged.
  if (O.UseIncremental && !O.CheckPrefilter && O.Incremental) {
    StageTimer Timer(R.IncrementalSeconds);
    for (unsigned T = 0; T != A.numTxns(); ++T) {
      std::string D = txnContentDigest(A, T);
      R.TxnFingerprintHits += O.Incremental->baseHasTxn(D);
      O.Incremental->noteTxn(D);
    }
  }

  // One scheduler and one committing-thread env for every Run below.
  Solvers Slv(O, &DL);
  if (O.UseAtomicSets && !O.AtomicSets.empty()) {
    // Analyze each atomic set independently and merge.
    bool AllGeneralized = true, AllFast = true;
    for (const std::vector<unsigned> &Set : O.AtomicSets) {
      std::vector<bool> Mask = Base;
      for (unsigned E = 0; E != A.numEvents(); ++E) {
        if (A.event(E).isMarker())
          continue;
        bool In = std::find(Set.begin(), Set.end(),
                            A.event(E).Container) != Set.end();
        Mask[E] = Mask[E] && In;
      }
      AnalysisResult Sub;
      Run(A, O, std::move(Mask), OraclePtr, AssistPtr, &DL, Slv).execute(Sub);
      for (Violation &V : Sub.Violations) {
        bool Dup = false;
        for (const Violation &Old : R.Violations)
          Dup = Dup || Old.OrigTxns == V.OrigTxns;
        if (!Dup)
          R.Violations.push_back(std::move(V));
      }
      AllGeneralized = AllGeneralized && Sub.Generalized;
      // The whole app is fast-proved only when *every* atomic set was: one
      // SSG-clean set must not mask another set's SMT-stage work.
      AllFast = AllFast && Sub.FastProvedSerializable;
      R.KChecked = std::max(R.KChecked, Sub.KChecked);
      R.UnfoldingsChecked += Sub.UnfoldingsChecked;
      R.UnfoldingsSubsumed += Sub.UnfoldingsSubsumed;
      R.LayoutsFiltered += Sub.LayoutsFiltered;
      R.SSGEdges += Sub.SSGEdges;
      R.SmtQueries += Sub.SmtQueries;
      R.SmtQueriesPrefiltered += Sub.SmtQueriesPrefiltered;
      R.PrefilterUnknowns += Sub.PrefilterUnknowns;
      R.PrefilterDisagreements += Sub.PrefilterDisagreements;
      R.SSGFlagged += Sub.SSGFlagged;
      R.SMTRefuted += Sub.SMTRefuted;
      R.SMTUnknown += Sub.SMTUnknown;
      R.SMTRetries += Sub.SMTRetries;
      R.SmtSolves += Sub.SmtSolves;
      R.SolverCtxReuses += Sub.SolverCtxReuses;
      R.RlimitSpent += Sub.RlimitSpent;
      R.UnfoldingsDeferred += Sub.UnfoldingsDeferred;
      R.SpeculativeDiscarded += Sub.SpeculativeDiscarded;
      R.DfsBudgetExhausted += Sub.DfsBudgetExhausted;
      R.DeadlineExpired = R.DeadlineExpired || Sub.DeadlineExpired;
      R.Truncated = R.Truncated || Sub.Truncated;
      R.SSGSeconds += Sub.SSGSeconds;
      R.EnumSeconds += Sub.EnumSeconds;
      R.SmtSeconds += Sub.SmtSeconds;
      R.PrefilterSeconds += Sub.PrefilterSeconds;
      R.IncrementalSeconds += Sub.IncrementalSeconds;
    }
    R.Generalized = AllGeneralized;
    R.FastProvedSerializable = AllFast && R.Violations.empty();
  } else {
    Run(A, O, std::move(Base), OraclePtr, AssistPtr, &DL, Slv).execute(R);
  }

  R.PrefilterDisagreements +=
      AssistDisagreements.load(std::memory_order_relaxed);
  OracleStats OS = OraclePtr ? OraclePtr->stats() : OracleStats{};
  R.CondCacheHits = OS.CondHits;
  R.CondCacheMisses = OS.CondMisses;
  R.SatCacheHits = OS.SatHits;
  R.SatCacheMisses = OS.SatMisses;
  R.SatAssistProven = OS.SatAssistProven;
  R.PairVerdictsReused = OS.ImportedHits;
  R.BackendSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return R;
}

std::string c4::reportStr(const AbstractHistory &A, const AnalysisResult &R) {
  std::string Out;
  if (R.serializable()) {
    Out += "result: serializable (for any number of sessions)\n";
  } else if (R.Violations.empty()) {
    if (R.DeadlineExpired)
      Out += strf("result: no violations found before the deadline "
                  "(checked up to k=%u; partial)\n",
                  R.KChecked);
    else
      Out += strf("result: no violations up to k=%u sessions "
                  "(generalization incomplete)\n",
                  R.KChecked);
  } else {
    // Triage: a solver-budget timeout must never read as a proven
    // violation, so the three classes are reported side by side.
    Out += strf("result: %zu violation(s): %u validated, %u unvalidated, "
                "%u inconclusive%s\n",
                R.Violations.size(), R.validatedViolations(),
                R.unvalidatedViolations(), R.inconclusiveViolations(),
                R.inconclusiveViolations() ? " (solver budget exhausted)"
                                           : "");
  }
  if (R.DeadlineExpired)
    Out += strf("deadline: analysis budget expired; checked up to k=%u, "
                "%u unfolding(s) deferred (partial but sound: reported "
                "violations are real findings, deferred work unchecked)\n",
                R.KChecked, R.UnfoldingsDeferred);
  for (const Violation &V : R.Violations) {
    Out += "violation involving transactions: " + join(V.TxnNames, ", ");
    if (V.Inconclusive)
      Out += " (inconclusive: solver budget exhausted)";
    else if (V.Validated)
      Out += " (validated counter-example)";
    Out += "\n";
    if (V.CE)
      Out += V.CE->Text;
    else if (!V.CEText.empty()) // cache-rehydrated: only the text survives
      Out += V.CEText;
  }
  Out += strf("stats: unfoldings checked %u, subsumed %u, "
              "layouts filtered %u, SSG-flagged %u, "
              "SMT-refuted %u, unknown %u, retries %u, deferred %u, "
              "dfs-budget-exhausted %u, backend %.3fs\n",
              R.UnfoldingsChecked, R.UnfoldingsSubsumed, R.LayoutsFiltered,
              R.SSGFlagged, R.SMTRefuted, R.SMTUnknown, R.SMTRetries,
              R.UnfoldingsDeferred, R.DfsBudgetExhausted, R.BackendSeconds);
  Out += strf("prefilter: %u quer%s killed, %u fell through, "
              "%u oracle-assisted verdict(s)%s; %.3fs\n",
              R.SmtQueriesPrefiltered,
              R.SmtQueriesPrefiltered == 1 ? "y" : "ies",
              R.PrefilterUnknowns,
              static_cast<unsigned>(R.SatAssistProven),
              R.PrefilterDisagreements
                  ? strf(", %u DISAGREEMENT(S)", R.PrefilterDisagreements)
                        .c_str()
                  : "",
              R.PrefilterSeconds);
  Out += strf("cache: cond %llu hits / %llu misses, sat %llu hits / "
              "%llu misses; rlimit spent %llu; stages: ssg %.3fs, "
              "enum %.3fs, smt %.3fs\n",
              static_cast<unsigned long long>(R.CondCacheHits),
              static_cast<unsigned long long>(R.CondCacheMisses),
              static_cast<unsigned long long>(R.SatCacheHits),
              static_cast<unsigned long long>(R.SatCacheMisses),
              static_cast<unsigned long long>(R.RlimitSpent),
              R.SSGSeconds, R.EnumSeconds, R.SmtSeconds);
  // The incremental layers only report when something was actually reused:
  // cold runs without a cache keep their baseline report.
  if (R.TxnFingerprintHits || R.PairVerdictsReused || R.SolverCtxReuses)
    Out += strf("incremental: %llu txn fingerprint hit(s), %llu pair "
                "verdict(s) reused, %llu solver ctx reuse(s); %.3fs\n",
                static_cast<unsigned long long>(R.TxnFingerprintHits),
                static_cast<unsigned long long>(R.PairVerdictsReused),
                static_cast<unsigned long long>(R.SolverCtxReuses),
                R.IncrementalSeconds);
  (void)A;
  return Out;
}
