//===- tests/IncrementalTests.cpp - Incremental re-analysis layer ---------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the incremental re-analysis layer: per-transaction content
/// digests (editing or adding one transaction never perturbs another's
/// digest; renames don't change any), snapshot serialization round-trips,
/// and the end-to-end differential contract — a warm re-analysis of an
/// edited program through a populated incremental cache must match a plain
/// cold run of the edited program on every verdict field and logical
/// counter, with `--no-incremental` as the A/B escape hatch.
///
//===----------------------------------------------------------------------===//

#include "analysis/Incremental.h"
#include "analysis/Pipeline.h"
#include "frontend/Frontend.h"

#include "gtest/gtest.h"

#include <cctype>
#include <dirent.h>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace c4;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << Path;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Fresh cache directory per test, under gtest's temp dir.
std::string freshDir(const char *Name) {
  std::string Dir = testing::TempDir() + "c4incr_" + Name;
  for (const char *Sub : {"/objects", "/tmp"}) {
    std::string D = Dir + Sub;
    if (DIR *Handle = ::opendir(D.c_str())) {
      while (struct dirent *E = ::readdir(Handle)) {
        std::string N = E->d_name;
        if (N != "." && N != "..")
          ::remove((D + "/" + N).c_str());
      }
      ::closedir(Handle);
    }
  }
  std::remove((Dir + "/VERSION").c_str());
  return Dir;
}

/// Compiles \p Source, failing the test on a compile error.
CompiledProgram compile(const std::string &Source) {
  CompileResult R = compileC4L(Source);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(*R.Program);
}

/// Name → content digest for every transaction of \p Source.
std::map<std::string, std::string> digestsByName(const std::string &Source) {
  CompiledProgram P = compile(Source);
  std::map<std::string, std::string> Out;
  for (unsigned T = 0; T != P.History->numTxns(); ++T)
    Out[P.History->txn(T).Name] = txnContentDigest(*P.History, T);
  return Out;
}

//===----------------------------------------------------------------------===//
// Per-transaction content digests
//===----------------------------------------------------------------------===//

const char *ThreeTxns = "container map M;\n"
                        "txn A(x, y) { M.put(x, y); }\n"
                        "txn B(z) { let v = M.get(z); return v; }\n"
                        "txn C(w) { M.put(w, 1); }\n";

TEST(TxnDigest, EditingOneTxnLeavesTheOthersUnchanged) {
  auto Base = digestsByName(ThreeTxns);
  auto Edited = digestsByName("container map M;\n"
                              "txn A(x, y) { M.put(x, y); }\n"
                              "txn B(z) { let v = M.get(z); return v; }\n"
                              "txn C(w) { M.put(w, 2); }\n");
  EXPECT_EQ(Base.at("A"), Edited.at("A"));
  EXPECT_EQ(Base.at("B"), Edited.at("B"));
  EXPECT_NE(Base.at("C"), Edited.at("C"));
}

TEST(TxnDigest, AddingATxnShiftsNoOtherDigest) {
  // A new transaction up front renumbers every global event id; the
  // digests localize event references, so the existing three survive.
  auto Base = digestsByName(ThreeTxns);
  auto Grown = digestsByName("container map M;\n"
                             "txn D(k) { M.put(k, 9); }\n"
                             "txn A(x, y) { M.put(x, y); }\n"
                             "txn B(z) { let v = M.get(z); return v; }\n"
                             "txn C(w) { M.put(w, 1); }\n");
  EXPECT_EQ(Base.at("A"), Grown.at("A"));
  EXPECT_EQ(Base.at("B"), Grown.at("B"));
  EXPECT_EQ(Base.at("C"), Grown.at("C"));
}

TEST(TxnDigest, RenamingIsInvisible) {
  auto Base = digestsByName(ThreeTxns);
  auto Renamed = digestsByName("container map M;\n"
                               "txn A(x, y) { M.put(x, y); }\n"
                               "txn Bee(z) { let v = M.get(z); return v; }\n"
                               "txn C(w) { M.put(w, 1); }\n");
  EXPECT_EQ(Base.at("A"), Renamed.at("A"));
  EXPECT_EQ(Base.at("B"), Renamed.at("Bee"));
  EXPECT_EQ(Base.at("C"), Renamed.at("C"));
}

TEST(TxnDigest, DistinctContentsGetDistinctDigests) {
  auto Base = digestsByName(ThreeTxns);
  EXPECT_NE(Base.at("A"), Base.at("B"));
  EXPECT_NE(Base.at("A"), Base.at("C"));
  EXPECT_NE(Base.at("B"), Base.at("C"));
}

TEST(TxnDigest, ContextDigestTracksOptionsNotIterationCaps) {
  CompiledProgram P = compile(ThreeTxns);
  std::vector<bool> Mask(P.History->numEvents(), true);
  AnalyzerOptions O;
  std::string Base = incrementalContextDigest(*P.History, O, Mask);

  // Caps shape how much work runs, not any per-query verdict: same context.
  AnalyzerOptions Caps;
  Caps.MaxK = 7;
  Caps.MaxUnfoldings = 17;
  Caps.DeadlineMs = 1234;
  EXPECT_EQ(Base, incrementalContextDigest(*P.History, Caps, Mask));

  // The display filter changes the event mask semantics; the budget
  // changes which queries can prove NoCycle. Both must split the context.
  AnalyzerOptions Display;
  Display.DisplayFilter = true;
  EXPECT_NE(Base, incrementalContextDigest(*P.History, Display, Mask));
  AnalyzerOptions Budget;
  Budget.Budget.Rlimit /= 2;
  EXPECT_NE(Base, incrementalContextDigest(*P.History, Budget, Mask));

  std::vector<bool> Partial = Mask;
  Partial.back() = false;
  EXPECT_NE(Base, incrementalContextDigest(*P.History, O, Partial));
}

//===----------------------------------------------------------------------===//
// Snapshot round-trips
//===----------------------------------------------------------------------===//

TEST(Snapshots, IncrementalRoundTrip) {
  IncrementalSnapshot S;
  // Keys are fingerprint digests — space-free by construction, which the
  // line format relies on.
  S.addRecord("key-1", {true, false, 0, 0, 0});
  S.addRecord("key-2", {false, true, 3, 2, 500000});
  S.addTxn("digest-a");
  S.addTxn("digest-b");
  std::string Blob = S.serialize();
  auto Back = IncrementalSnapshot::deserialize(Blob);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->serialize(), Blob);
  EXPECT_EQ(Back->numRecords(), 2u);
  EXPECT_EQ(Back->numTxns(), 2u);
  EXPECT_TRUE(Back->hasTxn("digest-a"));
  EXPECT_FALSE(Back->hasTxn("digest-c"));
  const IncrRecord *R = Back->record("key-2");
  ASSERT_NE(R, nullptr);
  EXPECT_FALSE(R->Prefiltered);
  EXPECT_TRUE(R->PrefilterUnknown);
  EXPECT_EQ(R->Attempts, 3u);
  EXPECT_EQ(R->CtxReuses, 2u);
  EXPECT_EQ(R->RlimitBudget, 500000u);
  EXPECT_EQ(Back->record("absent"), nullptr);

  EXPECT_FALSE(IncrementalSnapshot::deserialize("").has_value());
  EXPECT_FALSE(IncrementalSnapshot::deserialize("garbage\n").has_value());
  EXPECT_FALSE(
      IncrementalSnapshot::deserialize(Blob.substr(0, Blob.size() / 2))
          .has_value());
}

TEST(Snapshots, StoreConsultsOnlyTheBase) {
  IncrementalSnapshot Base;
  Base.addRecord("in-base", {false, false, 1, 0, 42});
  IncrementalStore Store(&Base);
  EXPECT_NE(Store.lookup("in-base"), nullptr);
  Store.record("fresh", {false, false, 2, 1, 43});
  // Determinism contract: the fresh overlay is invisible to lookups.
  EXPECT_EQ(Store.lookup("fresh"), nullptr);
  EXPECT_EQ(Store.hits(), 1u);
  EXPECT_EQ(Store.misses(), 1u);
  IncrementalSnapshot Out;
  Store.exportInto(Out);
  EXPECT_NE(Out.record("fresh"), nullptr);
  EXPECT_EQ(Out.record("in-base"), nullptr);
}

//===----------------------------------------------------------------------===//
// End-to-end differential: warm edit == plain cold
//===----------------------------------------------------------------------===//

/// The same normalization the bench differential applies (see
/// bench/bench_table1.cpp stripIncrementalValues): wall times, solver
/// resource telemetry, cache-state-dependent counters and model-chosen
/// counterexample witness text. Verdict structure and logical counters
/// stay, and must match byte for byte.
std::string stripVolatile(const std::string &Blob) {
  static const char *const Strip[] = {
      "backend_seconds",     "ssg_seconds",
      "enum_seconds",        "smt_seconds",
      "prefilter_seconds",   "incremental_seconds",
      "rlimit_spent",        "smt_retries",
      "smt_solves",          "sat_cache_hits",
      "sat_cache_misses",    "sat_assist_proven",
      "cond_cache_hits",     "cond_cache_misses",
      "txn_fingerprint_hits", "pair_verdicts_reused",
      "solver_ctx_reuses",   "speculative_discarded",
      "v.ce",
  };
  std::string Out;
  size_t Pos = 0;
  while (Pos < Blob.size()) {
    size_t End = Blob.find('\n', Pos);
    if (End == std::string::npos)
      End = Blob.size();
    std::string Line = Blob.substr(Pos, End - Pos);
    std::string Key = Line.substr(0, Line.find(' '));
    bool Stripped = false;
    for (const char *S : Strip)
      if (Key == S) {
        Out += Key;
        Out += '\n';
        Stripped = true;
        break;
      }
    if (!Stripped) {
      Out += Line;
      Out += '\n';
    }
    Pos = End + 1;
  }
  return Out;
}

/// Renames the last `txn`-declared transaction of \p Source by appending
/// "_edited" — the invalidation-granularity litmus edit the bench uses.
std::string renameLastTxn(const std::string &Source) {
  size_t Decl = Source.rfind("\ntxn ");
  if (Decl == std::string::npos)
    return std::string();
  size_t NameBegin = Decl + 5;
  size_t NameEnd = NameBegin;
  while (NameEnd < Source.size() &&
         (std::isalnum(static_cast<unsigned char>(Source[NameEnd])) ||
          Source[NameEnd] == '_'))
    ++NameEnd;
  return Source.substr(0, NameEnd) + "_edited" + Source.substr(NameEnd);
}

PipelineResult analyzeSource(const std::string &Source, AnalysisCache *Cache,
                             bool UseIncremental = true) {
  CompiledProgram P = compile(Source);
  AnalyzerOptions O;
  O.UseIncremental = UseIncremental;
  return analyzeCached(*P.History, O, *P.Registry, Cache);
}

TEST(IncrementalDifferential, WarmEditMatchesPlainColdOnEveryExample) {
  std::vector<std::string> Sources;
  std::string ExampleDir = std::string(C4_SOURCE_DIR) + "/examples/c4l";
  if (DIR *Handle = ::opendir(ExampleDir.c_str())) {
    while (struct dirent *E = ::readdir(Handle)) {
      std::string N = E->d_name;
      if (N.size() > 4 && N.substr(N.size() - 4) == ".c4l")
        Sources.push_back(readFile(ExampleDir + "/" + N));
    }
    ::closedir(Handle);
  }
  ASSERT_FALSE(Sources.empty());

  // Per program, its own cache directory: incremental reuse is a
  // per-program story, and the per-example scoping keeps every warm run
  // a clean same-program differential against its plain cold reference
  // (same scoping as bench_table1 --incremental).
  uint64_t TxnHits = 0;
  unsigned Idx = 0;
  for (const std::string &S : Sources) {
    std::string Dir =
        freshDir(("differential" + std::to_string(Idx++)).c_str());
    // Cold-populate the incremental cache with the unedited program.
    {
      AnalysisCache Cache(Dir, /*Incremental=*/true);
      ASSERT_TRUE(Cache.enabled());
      analyzeSource(S, &Cache);
      EXPECT_GT(Cache.incrTxns(), 0u);
    }
    // Edit one transaction; a warm run through the populated cache
    // (reopened from disk, as a restarted tool would see it) must match a
    // plain cold run of the edited program.
    AnalysisCache Cache(Dir, /*Incremental=*/true);
    ASSERT_TRUE(Cache.enabled());
    EXPECT_TRUE(Cache.incremental());
    std::string Edited = renameLastTxn(S);
    ASSERT_FALSE(Edited.empty());
    PipelineResult Cold = analyzeSource(Edited, nullptr);
    PipelineResult Warm = analyzeSource(Edited, &Cache);
    EXPECT_EQ(stripVolatile(serializeResult(Warm.R)),
              stripVolatile(serializeResult(Cold.R)));
    TxnHits += Warm.R.TxnFingerprintHits;
  }
  // The rename left every transaction's content digest intact, so the
  // warm runs must actually have recognized them.
  EXPECT_GT(TxnHits, 0u);
}

TEST(IncrementalDifferential, NoIncrementalEscapeHatchAgreesWithPlain) {
  std::string Dir = freshDir("escape");
  std::string Source = readFile(std::string(C4_SOURCE_DIR) +
                                "/examples/c4l/uniqueness_bug.c4l");
  {
    AnalysisCache Cache(Dir, /*Incremental=*/true);
    ASSERT_TRUE(Cache.enabled());
    analyzeSource(Source, &Cache);
  }
  std::string Edited = renameLastTxn(Source);
  ASSERT_FALSE(Edited.empty());
  AnalysisCache Cache(Dir, /*Incremental=*/true);
  PipelineResult Plain = analyzeSource(Edited, nullptr);
  PipelineResult Off = analyzeSource(Edited, &Cache, /*UseIncremental=*/false);
  PipelineResult On = analyzeSource(Edited, &Cache, /*UseIncremental=*/true);
  // --no-incremental bypasses every reuse layer: no reuse counters at all.
  EXPECT_EQ(Off.R.TxnFingerprintHits, 0u);
  // All three agree on verdicts and logical counters.
  EXPECT_EQ(stripVolatile(serializeResult(Off.R)),
            stripVolatile(serializeResult(Plain.R)));
  EXPECT_EQ(stripVolatile(serializeResult(On.R)),
            stripVolatile(serializeResult(Plain.R)));
}

} // namespace
