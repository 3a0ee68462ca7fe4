//===- smt/Encoding.h - The ϕ_cyclic SMT encoding (§7) ----------*- C++ -*-===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Encodes the serializability criterion for one k-unfolding into a
/// first-order query for Z3 (paper §7): a model is a pre-schedule of a
/// one-to-one concretization of the unfolding whose DSG contains a cycle.
///
/// Model variables:
///  * per transaction: a presence boolean and an integer arbitration
///    position (atomic visibility S3 makes transactions contiguous in ar,
///    so transaction-level positions are exact),
///  * per ordered transaction pair: a visibility boolean (transitive,
///    including session order — causal consistency S2),
///  * per event: a presence boolean, an integer position inside its
///    transaction, and one integer per combined value slot,
///  * per eo edge: a "taken" boolean — present events form a path through
///    the transaction's event order with all guards satisfied (§8
///    control-flow constraints),
///  * session-local and global symbolic constants (VarL, VarG).
///
/// Dependencies follow D1-D3 with the far-commutativity / far-absorption
/// rewrite specification, asymmetric commutativity on anti-dependencies and
/// the fresh-unique-value axioms (§8). The cycle itself is selected from the
/// SC1-feasible simple cycles of the unfolding's instantiated SSG.
///
//===----------------------------------------------------------------------===//

#ifndef C4_SMT_ENCODING_H
#define C4_SMT_ENCODING_H

#include "abstract/Features.h"
#include "history/Schedule.h"
#include "smt/Z3Env.h"
#include "ssg/SSG.h"
#include "support/Deadline.h"
#include "unfold/Unfolder.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace c4 {

/// A concrete witness extracted from a Z3 model: a history, the
/// pre-schedule, and the DSG cycle found.
struct CounterExample {
  History H;
  Schedule S;
  /// Transactions on the cycle, as concrete transaction ids of H.
  std::vector<unsigned> CycleTxns;
  /// The original (syntactic) transaction ids of the cycle.
  std::vector<unsigned> OrigTxns;
  /// Human-readable rendering.
  std::string Text;
  /// Index of the realized cycle in the candidate list that was solved.
  unsigned Candidate = 0;
};

/// Result of solving one unfolding.
struct UnfoldingResult {
  enum StatusKind { NoCycle, CycleFound, Unknown } Status = NoCycle;
  std::optional<CounterExample> CE;
};

/// Resource-governance policy for the precise stage: the per-query budget
/// and an optional analysis deadline. The deadline is consulted between
/// solve attempts (never mid-check — the per-attempt wall ceiling, clamped
/// to the remaining deadline, bounds overshoot instead) so cancellation is
/// always sound: an interrupted query reports Unknown, not a verdict.
struct SolverPolicy {
  SolverBudget Budget;
  const Deadline *DL = nullptr;
};

/// Per-query telemetry filled by \ref solveUnfolding for the query trace
/// and the analysis statistics.
struct SolveTelemetry {
  /// Solve attempts issued (1 = solved within the base budget).
  unsigned Attempts = 0;
  /// The rlimit budget of the last attempt.
  uint64_t RlimitBudget = 0;
  /// Resource units spent across all attempts (0 when unavailable).
  uint64_t RlimitSpent = 0;
  /// True when a z3::exception was confined to an Unknown result.
  bool Error = false;
  /// Times an already-encoded solver context answered instead of a fresh
  /// encode: retry re-checks under an escalated budget (`Z3Env::rearm`)
  /// plus, through \ref LayoutSolver, additional cycle chunks solved
  /// against a shared base encoding.
  unsigned CtxReuses = 0;
};

/// Builds and solves ϕ_cyclic for \p U. \p Candidates are the SC1-feasible
/// simple cycles of the unfolding's instantiated SSG \p G (built with the
/// same features \p F). \p P governs the solver resources: the primary
/// budget is a deterministic rlimit (escalated geometrically on unknown up
/// to the cap), the wall clock is a backstop only. \p Oracle, when given,
/// memoizes the rewrite-spec conditions used by the encoding (shared with
/// the SSG stage; thread-safe). \p Reuse, when given, supplies the Z3
/// environment: it is reset, encoded into and solved on, amortizing Z3
/// context construction/destruction (~15ms each on small queries) across
/// many calls. The query is encoded once; an unknown is retried by
/// re-arming the *same* solver with an escalated rlimit
/// (`Z3Env::rearm`) and re-checking — the re-encode per attempt is gone,
/// and each such re-check counts into `SolveTelemetry::CtxReuses`. An env
/// must not be shared between threads; each worker keeps its own. An
/// interrupted env (Z3Env::interrupt) stops the query with Unknown.
/// \p Telemetry, when given, receives the attempt/spend accounting.
UnfoldingResult solveUnfolding(const Unfolding &U, const SSG &G,
                               const std::vector<CandidateCycle> &Candidates,
                               const AnalysisFeatures &F,
                               const SolverPolicy &P = {},
                               CommutativityOracle *Oracle = nullptr,
                               Z3Env *Reuse = nullptr,
                               SolveTelemetry *Telemetry = nullptr);

/// A shared solver context for the many cycle/segment chunks of one
/// session layout (the §7.2 generalization loop solves the same unfolding
/// against successive candidate-segment chunks). The base encoding —
/// orders, control flow, facts, fresh values, query values — is built
/// exactly once; each \ref solve call pushes a scope, encodes only the
/// chunk's cycle selectors, solves (with the same escalating-rlimit retry
/// governance as \ref solveUnfolding), and pops. Every chunk after the
/// first counts a context reuse. Not thread-safe; one instance per worker
/// per unfolding.
class LayoutSolver {
public:
  /// \p Reuse, when given, supplies the env (reset once here); otherwise a
  /// private env is created. All referees must outlive the solver.
  LayoutSolver(const Unfolding &U, const SSG &G, const AnalysisFeatures &F,
               const SolverPolicy &P, CommutativityOracle *Oracle = nullptr,
               Z3Env *Reuse = nullptr);
  ~LayoutSolver();
  LayoutSolver(const LayoutSolver &) = delete;
  LayoutSolver &operator=(const LayoutSolver &) = delete;

  /// Solves ϕ_cyclic restricted to \p Candidates on the shared base
  /// encoding. Semantics and telemetry match \ref solveUnfolding.
  UnfoldingResult solve(const std::vector<CandidateCycle> &Candidates,
                        SolveTelemetry *Telemetry = nullptr);

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace c4

#endif // C4_SMT_ENCODING_H
