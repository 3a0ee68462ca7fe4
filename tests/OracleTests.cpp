//===- tests/OracleTests.cpp - Oracle equivalence & determinism -----------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memoization oracle and the parallel bounded check are pure
/// performance features: they must never change an analysis verdict.
/// This suite pins that down on the shipped example programs:
///
///  * general SSG equivalence — for every example and every feature
///    ablation combination, the cached and uncached analyses build the
///    same graph (same dot rendering) and flag the same SCCs;
///  * end-to-end equivalence — for representative option sets, the full
///    pipeline produces identical verdicts, violations and statistics
///    with the oracle on and off;
///  * parallel determinism — the bounded check commits results in
///    enumeration order at every thread count, so violations, witness text
///    and every deterministic counter are identical at 1, 2 and 4 threads
///    (examples and bench apps), and a unit pruned against a speculative
///    cycle that the commit discards is solved at commit time.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "analysis/Scheduler.h"
#include "apps/Apps.h"
#include "frontend/Frontend.h"
#include "passes/PassManager.h"
#include "spec/CommutativityCache.h"
#include "ssg/GraphExport.h"
#include "ssg/SSG.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

using namespace c4;

#ifdef C4_SOURCE_DIR

namespace {

const char *ExampleFiles[] = {
    "/examples/c4l/fig1_put_get.c4l",
    "/examples/c4l/fig7_session_keys.c4l",
    "/examples/c4l/fig11_add_follower.c4l",
    "/examples/c4l/fig12_fresh_rows.c4l",
    "/examples/c4l/uniqueness_bug.c4l",
    "/examples/c4l/highscore_fixed.c4l",
};

std::optional<CompiledProgram> compileExample(const char *File) {
  std::ifstream In(std::string(C4_SOURCE_DIR) + File);
  if (!In.good())
    return std::nullopt;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  CompileResult R = compileC4L(Buffer.str());
  if (!R.ok())
    return std::nullopt;
  return std::move(R.Program);
}

/// The 64 on/off combinations of the six §9.3 ablation switches.
AnalysisFeatures featureCombo(unsigned Bits) {
  AnalysisFeatures F;
  F.Commutativity = Bits & 1;
  F.Absorption = Bits & 2;
  F.Constraints = Bits & 4;
  F.ControlFlow = Bits & 8;
  F.AsymmetricAntiDeps = Bits & 16;
  F.UniqueValues = Bits & 32;
  return F;
}

void expectSameViolations(const AnalysisResult &A, const AnalysisResult &B,
                          const char *Context) {
  ASSERT_EQ(A.Violations.size(), B.Violations.size()) << Context;
  for (size_t I = 0; I != A.Violations.size(); ++I) {
    const Violation &VA = A.Violations[I];
    const Violation &VB = B.Violations[I];
    EXPECT_EQ(VA.OrigTxns, VB.OrigTxns) << Context << " violation " << I;
    EXPECT_EQ(VA.TxnNames, VB.TxnNames) << Context << " violation " << I;
    EXPECT_EQ(VA.Inconclusive, VB.Inconclusive) << Context;
    EXPECT_EQ(VA.Validated, VB.Validated) << Context;
    EXPECT_EQ(VA.CE.has_value(), VB.CE.has_value()) << Context;
  }
}

void expectSameOutcome(const AnalysisResult &A, const AnalysisResult &B,
                       const char *Context) {
  expectSameViolations(A, B, Context);
  EXPECT_EQ(A.Generalized, B.Generalized) << Context;
  EXPECT_EQ(A.FastProvedSerializable, B.FastProvedSerializable) << Context;
  EXPECT_EQ(A.KChecked, B.KChecked) << Context;
  EXPECT_EQ(A.UnfoldingsChecked, B.UnfoldingsChecked) << Context;
  EXPECT_EQ(A.UnfoldingsSubsumed, B.UnfoldingsSubsumed) << Context;
  EXPECT_EQ(A.LayoutsFiltered, B.LayoutsFiltered) << Context;
  EXPECT_EQ(A.SSGFlagged, B.SSGFlagged) << Context;
  EXPECT_EQ(A.SMTRefuted, B.SMTRefuted) << Context;
  EXPECT_EQ(A.SMTUnknown, B.SMTUnknown) << Context;
  EXPECT_EQ(A.Truncated, B.Truncated) << Context;
}

/// Two runs that may differ only in scheduling: everything but timings,
/// cache-state and solver telemetry must match, witness text included.
void expectIdenticalRuns(const AnalysisResult &A, const AnalysisResult &B,
                         const std::string &Context) {
  expectSameOutcome(A, B, Context.c_str());
  for (size_t I = 0; I != A.Violations.size() && I != B.Violations.size();
       ++I)
    EXPECT_EQ(A.Violations[I].CE ? A.Violations[I].CE->Text : "",
              B.Violations[I].CE ? B.Violations[I].CE->Text : "")
        << Context << " violation " << I;
  EXPECT_EQ(A.SSGEdges, B.SSGEdges) << Context;
  EXPECT_EQ(A.SmtQueries, B.SmtQueries) << Context;
  EXPECT_EQ(A.SmtQueriesPrefiltered, B.SmtQueriesPrefiltered) << Context;
  EXPECT_EQ(A.PrefilterUnknowns, B.PrefilterUnknowns) << Context;
  EXPECT_EQ(A.PrefilterDisagreements, B.PrefilterDisagreements) << Context;
  EXPECT_EQ(A.SMTRetries, B.SMTRetries) << Context;
  EXPECT_EQ(A.SmtSolves, B.SmtSolves) << Context;
  EXPECT_EQ(A.UnfoldingsDeferred, B.UnfoldingsDeferred) << Context;
  EXPECT_EQ(A.DfsBudgetExhausted, B.DfsBudgetExhausted) << Context;
  EXPECT_EQ(A.DeadlineExpired, B.DeadlineExpired) << Context;
}

/// Analyzes \p P at 1, 2 and 4 threads and checks the runs are identical.
void expectThreadCountInvariant(const CompiledProgram &P, AnalyzerOptions O,
                                const std::string &Context) {
  O.NumThreads = 1;
  AnalysisResult Seq = analyze(*P.History, O);
  EXPECT_EQ(Seq.SpeculativeDiscarded, 0u) << Context; // nothing speculates
  for (unsigned Threads : {2u, 4u}) {
    O.NumThreads = Threads;
    expectIdenticalRuns(Seq, analyze(*P.History, O),
                        Context + " threads=" + std::to_string(Threads));
  }
}

} // namespace

TEST(OracleEquivalence, GeneralSSGMatchesUncachedAcrossAllAblations) {
  for (const char *File : ExampleFiles) {
    std::optional<CompiledProgram> P = compileExample(File);
    ASSERT_TRUE(P) << File;
    for (unsigned Bits = 0; Bits != 64; ++Bits) {
      AnalysisFeatures F = featureCombo(Bits);
      SSG Plain(*P->History, F);
      Plain.analyze();
      CommutativityOracle Oracle;
      SSG Cached(*P->History, F);
      Cached.setOracle(&Oracle);
      Cached.analyze();
      std::string Context =
          std::string(File) + " features=" + std::to_string(Bits);
      EXPECT_EQ(ssgToDot(*P->History, Plain.graph()),
                ssgToDot(*P->History, Cached.graph()))
          << Context;
      ASSERT_EQ(Plain.violations().size(), Cached.violations().size())
          << Context;
      for (size_t I = 0; I != Plain.violations().size(); ++I)
        EXPECT_EQ(Plain.violations()[I].Txns, Cached.violations()[I].Txns)
            << Context;
    }
  }
}

TEST(OracleEquivalence, FullPipelineVerdictsMatchUncached) {
  // Representative option sets: everything on, the two features the oracle
  // caches conditions for turned off, and the remaining ablations paired.
  std::vector<AnalyzerOptions> Configs(4);
  Configs[1].Features.Absorption = false;
  Configs[2].Features.AsymmetricAntiDeps = false;
  Configs[2].Features.UniqueValues = false;
  Configs[3].Features.Constraints = false;
  Configs[3].Features.ControlFlow = false;
  for (const char *File : ExampleFiles) {
    std::optional<CompiledProgram> P = compileExample(File);
    ASSERT_TRUE(P) << File;
    for (size_t C = 0; C != Configs.size(); ++C) {
      AnalyzerOptions On = Configs[C];
      On.UseOracle = true;
      AnalyzerOptions Off = Configs[C];
      Off.UseOracle = false;
      AnalysisResult RA = analyze(*P->History, On);
      AnalysisResult RB = analyze(*P->History, Off);
      std::string Context =
          std::string(File) + " config=" + std::to_string(C);
      expectSameOutcome(RA, RB, Context.c_str());
      // The cached run actually exercised the cache.
      EXPECT_GT(RA.CondCacheHits + RA.CondCacheMisses, 0u) << Context;
      EXPECT_EQ(RB.CondCacheHits + RB.CondCacheMisses, 0u) << Context;
    }
  }
}

TEST(OracleEquivalence, AtomicSetFilterVerdictsMatchUncached) {
  // The production CLI configuration: display filter + atomic sets.
  for (const char *File : ExampleFiles) {
    std::optional<CompiledProgram> P = compileExample(File);
    ASSERT_TRUE(P) << File;
    AnalyzerOptions On;
    On.DisplayFilter = true;
    On.UseAtomicSets = true;
    On.AtomicSets = P->AtomicSets;
    AnalyzerOptions Off = On;
    Off.UseOracle = false;
    AnalysisResult RA = analyze(*P->History, On);
    AnalysisResult RB = analyze(*P->History, Off);
    expectSameOutcome(RA, RB, File);
  }
}

TEST(ParallelDeterminism, BoundedCheckMatchesSequential) {
  // Helpers solve unfoldings speculatively but results are committed in
  // enumeration order, so every thread count must be indistinguishable
  // from one thread — same violations in the same order with the same
  // witness text, same subsumption and solver counters. Exercised on
  // programs with and without violations, in the CLI configuration and
  // unfiltered. (Thread counts above the core count still exercise the
  // ordered-commit path.)
  for (const char *File : ExampleFiles) {
    std::optional<CompiledProgram> P = compileExample(File);
    ASSERT_TRUE(P) << File;
    AnalyzerOptions Cli;
    Cli.DisplayFilter = true;
    Cli.UseAtomicSets = true;
    Cli.AtomicSets = P->AtomicSets;
    expectThreadCountInvariant(*P, Cli, std::string(File) + " cli");
    expectThreadCountInvariant(*P, AnalyzerOptions(),
                               std::string(File) + " unfiltered");
  }
}

TEST(ParallelDeterminism, BenchAppsMatchAtEveryThreadCount) {
  // The bench apps outside perfbench/gen.py's FILL_HEAVY (those four take
  // most of the corpus's time), compiled and reduced as c4-analyze does.
  const std::set<std::string> Heavy = {"Super Chat", "Cloud Card", "Relatd",
                                       "killrchat"};
  unsigned Apps = 0;
  for (const c4bench::BenchApp &App : c4bench::benchApps()) {
    if (Heavy.count(App.Name))
      continue;
    ++Apps;
    CompileResult C = compileC4L(App.Source);
    ASSERT_TRUE(C.ok()) << App.Name;
    CompiledProgram &P = *C.Program;
    PassOptions PassOpts;
    PassOpts.Lint = false;
    ASSERT_TRUE(runPasses(P, PassOpts).Ok) << App.Name;
    AnalyzerOptions O;
    O.DisplayFilter = true;
    O.UseAtomicSets = true;
    O.AtomicSets = P.AtomicSets;
    expectThreadCountInvariant(P, O, App.Name);
  }
  EXPECT_EQ(Apps, 24u);
}

TEST(ParallelDeterminism, ParallelRunWithoutOracleMatchesToo) {
  // Parallelism and memoization are independent switches; cross them.
  const char *File = "/examples/c4l/uniqueness_bug.c4l";
  std::optional<CompiledProgram> P = compileExample(File);
  ASSERT_TRUE(P) << File;
  AnalyzerOptions Seq;
  Seq.NumThreads = 1;
  AnalyzerOptions Par;
  Par.NumThreads = 3;
  Par.UseOracle = false;
  AnalysisResult RS = analyze(*P->History, Seq);
  AnalysisResult RP = analyze(*P->History, Par);
  expectSameOutcome(RS, RP, File);
  ASSERT_FALSE(RS.Violations.empty());
}

namespace {

/// A fake bounded-check unit outcome: the violation it would record.
struct FakeOutcome {
  std::vector<unsigned> Cycle; ///< empty = no cycle
};

} // namespace

TEST(ParallelDeterminism, ProvisionalPruneIsSolvedAtCommit) {
  // Units (key -> cycle found): 0: {1} -> {1}; 1: {1,2} -> {2};
  // 2: {2,3} -> none; 3: {4} -> none. The first helper takes unit 0 and
  // holds it until the second helper (which joins after the spin-up) has
  // solved unit 1, finding cycle {2}, pruned unit 2 against that cycle
  // and reached unit 3. The commit then finds unit 1 subsumed by {1} and
  // drops its cycle, so unit 2 is not subsumed after all: it must be
  // solved at commit time, after unit 3 — and the result must match the
  // sequential one.
  const std::vector<std::vector<unsigned>> Keys = {{1}, {1, 2}, {2, 3}, {4}};
  const std::vector<std::vector<unsigned>> Cycles = {{1}, {2}, {}, {}};
  SpecScheduler Sched(/*Threads=*/2, /*Dl=*/nullptr);
  ASSERT_EQ(Sched.helpers(), 2u);
  std::atomic<bool> ReachedUnit3{false};
  std::mutex LogMu;
  std::vector<size_t> SolveOrder;
  std::vector<std::vector<unsigned>> Committed;
  std::vector<size_t> CommitOrder;
  SpecHooks<FakeOutcome> H;
  H.Keys = &Keys;
  H.CommittedSubsumes = [&](const std::vector<unsigned> &Key) {
    for (const std::vector<unsigned> &V : Committed)
      if (std::includes(Key.begin(), Key.end(), V.begin(), V.end()))
        return true;
    return false;
  };
  H.Solve = [&](size_t I, SpecGate &) -> std::optional<FakeOutcome> {
    {
      std::lock_guard<std::mutex> Lock(LogMu);
      SolveOrder.push_back(I);
    }
    if (I == 3)
      ReachedUnit3 = true;
    if (I == 0) {
      auto Until = std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!ReachedUnit3 && std::chrono::steady_clock::now() < Until)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return FakeOutcome{Cycles[I]};
  };
  H.Found = [](const FakeOutcome &O) -> const std::vector<unsigned> * {
    return O.Cycle.empty() ? nullptr : &O.Cycle;
  };
  H.Commit = [&](size_t I, FakeOutcome &&O) -> const std::vector<unsigned> * {
    CommitOrder.push_back(I);
    if (O.Cycle.empty())
      return nullptr;
    Committed.push_back(O.Cycle);
    return &Committed.back();
  };
  Z3Env *Unused = nullptr;
  SpecStats St =
      Sched.run(Keys.size(), [&]() -> Z3Env & { return *Unused; }, H);

  // The sequential result.
  ASSERT_TRUE(St.Completed);
  EXPECT_EQ(St.Subsumed, 1u);
  EXPECT_EQ(Committed, (std::vector<std::vector<unsigned>>{{1}}));
  EXPECT_EQ(CommitOrder, (std::vector<size_t>{0, 2, 3}));
  // Unit 2 was pruned at claim time and solved once, at commit time;
  // unit 1's speculative cycle was thrown away.
  EXPECT_EQ(SolveOrder, (std::vector<size_t>{0, 1, 3, 2}));
  EXPECT_EQ(St.Discarded, 1u);
}

#endif // C4_SOURCE_DIR

TEST(OracleUnit, CachesCondObjectsAndSatVerdicts) {
  TypeRegistry Reg;
  const DataTypeSpec *Map = Reg.lookup("map");
  ASSERT_TRUE(Map);
  unsigned Put = Map->opIndex(*Map->findOp("put"));
  unsigned Get = Map->opIndex(*Map->findOp("get"));
  CommutativityOracle Oracle;
  const Cond &C1 = Oracle.notCommutes(*Map, Put, Get, CommuteMode::Plain);
  const Cond &C2 = Oracle.notCommutes(*Map, Put, Get, CommuteMode::Plain);
  EXPECT_EQ(&C1, &C2); // same memoized object
  OracleStats S = Oracle.stats();
  EXPECT_EQ(S.CondMisses, 1u);
  EXPECT_EQ(S.CondHits, 1u);

  // Distinct (ops, mode) keys get distinct entries.
  Oracle.notCommutes(*Map, Get, Put, CommuteMode::Plain);
  Oracle.notCommutes(*Map, Put, Get, CommuteMode::Far);
  EXPECT_EQ(Oracle.stats().CondMisses, 3u);

  // Satisfiability verdicts are cached per fact vector...
  EventFacts Src, Tgt;
  Src.push_back(ArgFact::symbol(1));
  Tgt.push_back(ArgFact::symbol(1));
  bool V1 = Oracle.notCommutesSatisfiable(*Map, Put, Get, CommuteMode::Plain,
                                          Src, Tgt);
  bool V2 = Oracle.notCommutesSatisfiable(*Map, Put, Get, CommuteMode::Plain,
                                          Src, Tgt);
  EXPECT_EQ(V1, V2);
  S = Oracle.stats();
  EXPECT_EQ(S.SatMisses, 1u);
  EXPECT_EQ(S.SatHits, 1u);

  // ...and distinguished by the facts.
  EventFacts Tgt2;
  Tgt2.push_back(ArgFact::symbol(2));
  Oracle.notCommutesSatisfiable(*Map, Put, Get, CommuteMode::Plain, Src,
                                Tgt2);
  EXPECT_EQ(Oracle.stats().SatMisses, 2u);
}
