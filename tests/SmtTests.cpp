//===- tests/SmtTests.cpp - ϕ_cyclic encoder tests ------------------------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Targeted tests of the SMT stage: solving single unfoldings directly,
/// query-value determination (a query with a visible creator cannot return
/// "absent"), transaction-completion semantics (no partial transactions in
/// models), fresh-unique-value axioms, counter-example extraction
/// validity flags, and the reuse of a worker's env after an interrupt.
///
//===----------------------------------------------------------------------===//

#include "abstract/Concretize.h"
#include "analysis/Analyzer.h"
#include "smt/Encoding.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

using namespace c4;

namespace {

class SmtFixture : public ::testing::Test {
public:
  SmtFixture() {
    M = Sch.addContainer("M", Reg.lookup("map"));
    T = Sch.addContainer("T", Reg.lookup("table"));
  }

  unsigned op(unsigned C, const char *Name) {
    const DataTypeSpec *Type = Sch.container(C).Type;
    return Type->opIndex(*Type->findOp(Name));
  }

  /// Solves every SC1-feasible unfolding of \p A at \p K sessions; returns
  /// the first counter-example found (if any).
  std::optional<CounterExample> solveAt(const AbstractHistory &A,
                                        unsigned K) {
    bool Truncated = false;
    std::vector<Unfolding> Us = enumerateUnfoldings(A, K, 10000, Truncated);
    for (const Unfolding &U : Us) {
      SSG G(U.H, AnalysisFeatures::all(), U.SessionTags);
      G.analyze();
      bool CT = false;
      std::vector<CandidateCycle> Cands = G.candidateCycles(64, CT);
      if (Cands.empty())
        continue;
      UnfoldingResult R =
          solveUnfolding(U, G, Cands, AnalysisFeatures::all());
      if (R.Status == UnfoldingResult::CycleFound)
        return R.CE;
    }
    return std::nullopt;
  }

  TypeRegistry Reg;
  Schema Sch;
  unsigned M = 0, T = 0;
};

} // namespace

TEST_F(SmtFixture, ModelsHaveCompleteTransactions) {
  // A transaction writing two fields never appears partially in a model.
  AbstractHistory A(Sch);
  unsigned Upd = A.addTransaction("upd");
  unsigned S1 = A.addEvent(Upd, T, op(T, "set"),
                           {AbsFact::free(), AbsFact::constant(1)});
  unsigned S2 = A.addEvent(Upd, T, op(T, "set"),
                           {AbsFact::free(), AbsFact::constant(2)});
  A.addEo(A.entry(Upd), S1);
  A.addEo(S1, S2);
  A.addInv(S1, S2, Cond::eq(Term::argSrc(0), Term::argTgt(0)));
  unsigned Get = A.addTransaction("get");
  unsigned G1 = A.addEvent(Get, T, op(T, "get"),
                           {AbsFact::free(), AbsFact::constant(1)});
  A.addEo(A.entry(Get), G1);
  A.allowAllSo();

  std::optional<CounterExample> CE = solveAt(A, 2);
  ASSERT_TRUE(CE.has_value()); // the long fork exists
  for (unsigned Txn = 0; Txn != CE->H.numTransactions(); ++Txn) {
    // Every upd instance carries both sets.
    unsigned Sets = 0;
    bool IsUpd = false;
    for (unsigned E : CE->H.txn(Txn).Events)
      if (CE->H.op(E).Name == "set") {
        ++Sets;
        IsUpd = true;
      }
    if (IsUpd) {
      EXPECT_EQ(Sets, 2u) << "partial transaction in model";
    }
  }
}

TEST_F(SmtFixture, QueryValuesRespectVisibleCreators) {
  // contains(r) with the creating set in the same session must return 1 in
  // every model: the guarded-add program has no violation (see the Fig. 11
  // discussion), because contains:0 with a visible creator is
  // value-inconsistent.
  AbstractHistory A(Sch);
  unsigned Create = A.addTransaction("create");
  unsigned Set = A.addEvent(Create, T, op(T, "set"),
                            {AbsFact::globalVar(A.addGlobalVar()),
                             AbsFact::constant(1)});
  A.addEo(A.entry(Create), Set);
  unsigned Check = A.addTransaction("check");
  unsigned Contains =
      A.addEvent(Check, T, op(T, "contains"), {AbsFact::globalVar(0)});
  unsigned Del = A.addEvent(Check, T, op(T, "del"), {AbsFact::globalVar(0)});
  A.addEo(A.entry(Check), Contains);
  // Delete only if present.
  A.addEo(Contains, Del, Cond::eq(Term::argSrc(1), Term::constant(1)));
  unsigned Exit = A.addMarker(Check, "exit");
  A.addEo(Del, Exit);
  A.addEo(Contains, Exit, Cond::eq(Term::argSrc(1), Term::constant(0)));
  A.allowAllSo();

  // Whatever the analysis reports, any extracted model must be
  // value-consistent: we check all found counter-examples satisfy S1.
  std::optional<CounterExample> CE = solveAt(A, 2);
  if (CE) {
    bool Legal = satisfiesLegality(CE->H, CE->S);
    EXPECT_TRUE(Legal);
  }
}

TEST_F(SmtFixture, FreshValuesForceObservedCreation) {
  // Figure 12 core: updates addressing a fresh row must have observed its
  // creation; the ⊗-cycle against the creator is impossible.
  AbstractHistory A(Sch);
  unsigned Row = A.addLocalVar();
  unsigned AddT = A.addTransaction("addRow");
  unsigned AddRow = A.addEvent(AddT, T, op(T, "add_row"), {});
  A.addEo(A.entry(AddT), AddRow);
  unsigned UpdT = A.addTransaction("upd");
  unsigned Set = A.addEvent(UpdT, T, op(T, "set"),
                            {AbsFact::localVar(Row), AbsFact::constant(1)});
  A.addEo(A.entry(UpdT), Set);
  unsigned GetT = A.addTransaction("get");
  unsigned Get = A.addEvent(GetT, T, op(T, "get"),
                            {AbsFact::localVar(Row), AbsFact::constant(1)});
  A.addEo(A.entry(GetT), Get);
  A.allowAllSo();

  AnalysisResult R = analyze(A);
  EXPECT_TRUE(R.Violations.empty()) << reportStr(A, R);

  AnalyzerOptions NoUnique;
  NoUnique.Features.UniqueValues = false;
  AnalysisResult R2 = analyze(A, NoUnique);
  // Without the fresh-value axioms the Fig. 12 false alarm appears (the
  // ablation also drops the freshness lower bound, so the witness may use
  // arbitrary identities).
  EXPECT_FALSE(R2.Violations.empty());
}

TEST_F(SmtFixture, CounterExamplesAreValidated) {
  AbstractHistory A(Sch);
  unsigned P = A.addTransaction("P");
  unsigned Put = A.addEvent(P, M, op(M, "put"), {});
  A.addEo(A.entry(P), Put);
  unsigned G = A.addTransaction("G");
  unsigned Get = A.addEvent(G, M, op(M, "get"), {});
  A.addEo(A.entry(G), Get);
  A.setMaySo(P, G);

  AnalysisResult R = analyze(A);
  ASSERT_FALSE(R.Violations.empty());
  EXPECT_TRUE(R.Violations.front().Validated);
  ASSERT_TRUE(R.Violations.front().CE.has_value());
  const CounterExample &CE = *R.Violations.front().CE;
  // The arbitration order of the extracted schedule is a permutation.
  std::vector<unsigned> Order = CE.S.arOrder();
  EXPECT_EQ(Order.size(), CE.H.numEvents());
  // The witness text mentions both transactions.
  EXPECT_NE(CE.Text.find("txn P"), std::string::npos);
  EXPECT_NE(CE.Text.find("txn G"), std::string::npos);
}

TEST_F(SmtFixture, NoCandidatesMeansNoCycle) {
  // Solving with an empty candidate list returns NoCycle immediately.
  AbstractHistory A(Sch);
  unsigned P = A.addTransaction("P");
  A.addEo(A.entry(P), A.addEvent(P, M, op(M, "put"), {}));
  A.allowAllSo();
  bool Truncated = false;
  std::vector<Unfolding> Us = enumerateUnfoldings(A, 2, 100, Truncated);
  ASSERT_FALSE(Us.empty());
  SSG G(Us[0].H, AnalysisFeatures::all(), Us[0].SessionTags);
  G.analyze();
  UnfoldingResult R =
      solveUnfolding(Us[0], G, {}, AnalysisFeatures::all());
  EXPECT_EQ(R.Status, UnfoldingResult::NoCycle);
}

namespace {

/// Pigeonhole: N + 1 pigeons in N holes. Unsatisfiable, and exponentially
/// hard for resolution, so a check runs long enough to be interrupted.
void addPigeonhole(Z3Env &Env, int N) {
  z3::context &C = Env.ctx();
  auto P = [&](int I, int J) {
    return Env.boolConst("p" + std::to_string(I) + "_" + std::to_string(J));
  };
  for (int I = 0; I <= N; ++I) {
    z3::expr_vector Holes(C);
    for (int J = 0; J != N; ++J)
      Holes.push_back(P(I, J));
    Env.solver().add(z3::mk_or(Holes));
  }
  for (int J = 0; J != N; ++J)
    for (int I = 0; I <= N; ++I)
      for (int K = I + 1; K <= N; ++K)
        Env.solver().add(!P(I, J) || !P(K, J));
}

z3::check_result checkOrUnknown(Z3Env &Env) {
  try {
    return Env.solver().check();
  } catch (const z3::exception &) {
    return z3::unknown;
  }
}

} // namespace

TEST(Z3EnvInterrupt, InterruptedEnvIsNeverReusedForTheNextQuery) {
  // A worker solves on its slot's env; another thread interrupts it
  // mid-check (the bounded-check scheduler does this when the unit turns
  // subsumed). The env the worker gets next must answer sat and unsat on
  // known queries, never a stale `unknown`.
  Z3EnvSlot Slot;
  Z3Env &Env = Slot.get();
  Env.reset(/*Rlimit=*/0, /*WallMs=*/60000);
  addPigeonhole(Env, 11);
  std::atomic<bool> Started{false};
  z3::check_result Result = z3::sat;
  std::thread Worker([&] {
    Started = true;
    Result = checkOrUnknown(Env);
  });
  while (!Started)
    std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Env.interrupt();
  Worker.join();
  EXPECT_EQ(Result, z3::unknown);
  EXPECT_TRUE(Env.interrupted());

  Z3Env &Next = Slot.get();
  EXPECT_FALSE(Next.interrupted());
  for (int Round = 0; Round != 2; ++Round) {
    Next.reset(/*Rlimit=*/0, /*WallMs=*/60000);
    z3::expr X = Next.intConst("x");
    Next.solver().add(X > 3);
    EXPECT_EQ(checkOrUnknown(Next), z3::sat) << "round " << Round;
    Next.reset(/*Rlimit=*/0, /*WallMs=*/60000);
    z3::expr Y = Next.intConst("y");
    Next.solver().add(Y > 3 && Y < 2);
    EXPECT_EQ(checkOrUnknown(Next), z3::unsat) << "round " << Round;
  }
  // An env that was never interrupted is handed out again as is.
  EXPECT_EQ(&Slot.get(), &Next);
}
