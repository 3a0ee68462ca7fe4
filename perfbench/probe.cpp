//===- perfbench/probe.cpp - In-process helper of the C4 benchmark --------===//
///
/// \file
/// The benchmark's entry point (run.py) times the shipped tools for every
/// end-to-end number; this probe serves the parts that need the libraries
/// directly:
///
///   c4-perfprobe dump <dir>
///       writes the 28 Table 1 programs as <dir>/NN.c4l plus
///       <dir>/apps.json (index, name, file, transaction names, the E/H/F
///       classification rules and the paper's filtered E/H/F row).
///   c4-perfprobe digests <file.c4l>...
///       one JSON line per file: compile status and the name-free
///       txnContentDigest of every transaction after the default passes.
///   c4-perfprobe run [--threads N] [--chrome FILE] <plan.json>
///       executes a plan of layer calls (see runOp) and prints one JSON
///       line per operation (verdict, deterministic counts) and a final
///       {"layers": ...} line with the per-layer totals. With --chrome the
///       recorded spans are written as Chrome trace-event JSON.
///
/// Spans are recorded here, around each call the probe makes into a
/// layer's public entry point; nothing inside the analyzer is
/// instrumented. Layers that are reachable only through analyze() are
/// reported from the stage seconds AnalysisResult returns, laid out as
/// children of the analyzeCached span. With one analysis thread those
/// stage times are exclusive wall time, and the rest of the span is
/// reported as "analysis.unattributed".
///
//===----------------------------------------------------------------------===//

#include "analysis/Incremental.h"
#include "analysis/Pipeline.h"
#include "analysis/VerdictCache.h"
#include "apps/Apps.h"
#include "frontend/Frontend.h"
#include "passes/PassManager.h"
#include "ssg/SSG.h"
#include "support/DiskCache.h"
#include "support/Json.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace c4;

namespace {

using Clock = std::chrono::steady_clock;

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::stringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path);
  Out << Text;
  return static_cast<bool>(Out);
}

std::string quote(const std::string &S) { return "\"" + jsonEscape(S) + "\""; }

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.9g", V);
  return Buf;
}

int cmdDump(const std::string &Dir) {
  const std::vector<c4bench::BenchApp> &Apps = c4bench::benchApps();
  std::string Manifest = "[\n";
  for (size_t I = 0; I != Apps.size(); ++I) {
    char File[16];
    std::snprintf(File, sizeof File, "%02zu.c4l", I);
    if (!writeFile(Dir + "/" + File, Apps[I].Source)) {
      std::fprintf(stderr, "error: cannot write %s/%s\n", Dir.c_str(), File);
      return 2;
    }
    CompileResult C = compileC4L(Apps[I].Source);
    if (!C.ok()) {
      std::fprintf(stderr, "error: %s does not compile: %s\n", Apps[I].Name,
                   C.Error.c_str());
      return 2;
    }
    std::string Txns;
    for (unsigned T = 0; T != C.Program->History->numTxns(); ++T)
      Txns += (T ? ", " : "") + quote(C.Program->History->txn(T).Name);
    // The Table 1 classification rules (a violation whose transaction set
    // includes a rule's set gets the rule's class; first match wins,
    // default harmless) and the paper's filtered E/H/F row.
    static const char *ClassName[] = {"E", "H", "F"};
    std::string Rules;
    for (const c4bench::ClassRule &Rule : Apps[I].Rules) {
      std::string Set;
      for (size_t T = 0; T != Rule.Txns.size(); ++T)
        Set += (T ? ", " : "") + quote(Rule.Txns[T]);
      Rules += std::string(Rules.empty() ? "" : ", ") + "{\"txns\": [" + Set +
               "], \"class\": \"" + ClassName[static_cast<int>(Rule.Class)] +
               "\"}";
    }
    const c4bench::PaperRow &Row = Apps[I].PaperFiltered;
    Manifest += "  {\"index\": " + std::to_string(I) +
                ", \"name\": " + quote(Apps[I].Name) + ", \"file\": " +
                quote(File) + ", \"txns\": [" + Txns + "], \"rules\": [" +
                Rules + "], \"paper_ehf\": [" + std::to_string(Row.E) +
                ", " + std::to_string(Row.H) + ", " + std::to_string(Row.F) +
                "]}" + (I + 1 != Apps.size() ? ",\n" : "\n");
  }
  Manifest += "]\n";
  return writeFile(Dir + "/apps.json", Manifest) ? 0 : 2;
}

/// Compiles \p Source and runs the default pass pipeline exactly as
/// c4-analyze and c4-serve do (reduction on, lint off).
std::optional<CompiledProgram> compileAndReduce(const std::string &Source,
                                                std::string &Error) {
  CompileResult C = compileC4L(Source);
  if (!C.ok()) {
    Error = C.Error;
    return std::nullopt;
  }
  PassOptions PO;
  PO.Lint = false;
  PassResult PR = runPasses(*C.Program, PO, &Source);
  if (!PR.Ok) {
    Error = PR.Error;
    return std::nullopt;
  }
  return std::move(*C.Program);
}

int cmdDigests(int Argc, char **Argv) {
  for (int I = 0; I != Argc; ++I) {
    std::string Source, Error;
    std::string Line = "{\"file\": " + quote(Argv[I]);
    if (!readFile(Argv[I], Source)) {
      std::printf("%s, \"ok\": false, \"error\": \"unreadable\"}\n",
                  Line.c_str());
      continue;
    }
    std::optional<CompiledProgram> P = compileAndReduce(Source, Error);
    if (!P) {
      std::printf("%s, \"ok\": false, \"error\": %s}\n", Line.c_str(),
                  quote(Error).c_str());
      continue;
    }
    const AbstractHistory &H = *P->History;
    std::string Digests;
    for (unsigned T = 0; T != H.numTxns(); ++T)
      Digests += std::string(T ? ", " : "") + quote(H.txn(T).Name) + ": " +
                 quote(txnContentDigest(H, T));
    std::printf("%s, \"ok\": true, \"digests\": {%s}}\n", Line.c_str(),
                Digests.c_str());
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// The traced plan runner
//===----------------------------------------------------------------------===//

/// One recorded span: [Start, Start + Dur) in microseconds since the run
/// began, on the probe's single thread, tagged with the operation id.
struct Span {
  std::string Name;
  double StartUs, DurUs;
  unsigned Op;
};

class Tracer {
public:
  Tracer() : T0(Clock::now()) {}

  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - T0)
        .count();
  }

  /// Times \p F as a span named \p Name.
  template <typename Fn> void span(const char *Name, Fn &&F) {
    double Start = nowUs();
    F();
    add(Name, Start, nowUs() - Start);
  }

  void add(const std::string &Name, double StartUs, double DurUs) {
    Spans.push_back({Name, StartUs, DurUs, CurOp});
    Self[Name] += DurUs / 1e6;
  }

  void setOp(unsigned Op) { CurOp = Op; }
  double total(const std::string &Name) const {
    auto It = Self.find(Name);
    return It == Self.end() ? 0 : It->second;
  }

  std::string chromeJson() const {
    std::string Out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::string Cat = S.Name.substr(0, S.Name.find('.'));
      Out += "{\"name\": " + quote(S.Name) + ", \"cat\": " + quote(Cat) +
             ", \"ph\": \"X\", \"ts\": " + num(S.StartUs) +
             ", \"dur\": " + num(S.DurUs) +
             ", \"pid\": 1, \"tid\": 1, \"args\": {\"op\": " +
             std::to_string(S.Op) + "}}" +
             (I + 1 != Spans.size() ? ",\n" : "\n");
    }
    return Out + "]}\n";
  }

private:
  Clock::time_point T0;
  std::vector<Span> Spans;
  std::map<std::string, double> Self; ///< summed duration per span name
  unsigned CurOp = 0;
};

/// Per-layer totals accumulated over the plan (counts and seconds apart).
struct Ledger {
  std::map<std::string, double> Sec;
  std::map<std::string, uint64_t> Cnt;
};

void addResult(Ledger &L, const AnalysisResult &R) {
  L.Sec["ssg.s"] += R.SSGSeconds;
  L.Sec["unfold.enum_s"] += R.EnumSeconds;
  L.Sec["domain.prefilter_s"] += R.PrefilterSeconds;
  L.Sec["smt.s"] += R.SmtSeconds;
  L.Sec["incremental.s"] += R.IncrementalSeconds;
  L.Sec["analysis.backend_s"] += R.BackendSeconds;
  L.Cnt["ssg.edges"] += R.SSGEdges;
  L.Cnt["ssg.flagged"] += R.SSGFlagged;
  L.Cnt["unfold.layouts_filtered"] += R.LayoutsFiltered;
  L.Cnt["unfold.unfoldings_checked"] += R.UnfoldingsChecked;
  L.Cnt["unfold.unfoldings_subsumed"] += R.UnfoldingsSubsumed;
  L.Cnt["unfold.dfs_budget_exhausted"] += R.DfsBudgetExhausted;
  L.Cnt["domain.killed"] += R.SmtQueriesPrefiltered;
  L.Cnt["domain.sat_assist_proven"] += R.SatAssistProven;
  L.Cnt["smt.queries"] += R.SmtQueries;
  L.Cnt["smt.solves"] += R.SmtSolves;
  L.Cnt["smt.retries"] += R.SMTRetries;
  L.Cnt["smt.unknown"] += R.SMTUnknown;
  L.Cnt["smt.rlimit_spent"] += R.RlimitSpent;
  L.Cnt["smt.ctx_reuses"] += R.SolverCtxReuses;
  L.Cnt["oracle.cond_hits"] += R.CondCacheHits;
  L.Cnt["oracle.cond_misses"] += R.CondCacheMisses;
  L.Cnt["oracle.sat_hits"] += R.SatCacheHits;
  L.Cnt["oracle.sat_misses"] += R.SatCacheMisses;
  L.Cnt["incremental.txn_hits"] += R.TxnFingerprintHits;
  L.Cnt["incremental.replayed"] += R.SmtQueries - R.SmtSolves;
  L.Cnt["incremental.constraint_hits"] += R.ConstraintCacheHits;
  L.Cnt["incremental.constraint_misses"] += R.ConstraintCacheMisses;
}

/// The analyzeCached span's children: the stage seconds of \p R laid end to
/// end from \p StartUs, then the rest of analyze()'s own clock
/// (BackendSeconds) as "analysis.unattributed", then the rest of \p SpanUs
/// as "analysis.pipeline": analyzeCached's work around analyze() (opening
/// and persisting the incremental snapshot, copying the result).
void addStageChildren(Tracer &T, Ledger &L, const AnalysisResult &R,
                      double StartUs, double SpanUs) {
  const std::pair<const char *, double> Stages[] = {
      {"ssg.stage", R.SSGSeconds},
      {"unfold.enum", R.EnumSeconds},
      {"domain.prefilter", R.PrefilterSeconds},
      {"smt.solve", R.SmtSeconds},
      {"incremental.lookup", R.IncrementalSeconds}};
  double At = StartUs, Sum = 0;
  for (const auto &[Name, Sec] : Stages) {
    if (Sec <= 0)
      continue;
    T.add(Name, At, Sec * 1e6);
    At += Sec * 1e6;
    Sum += Sec;
  }
  double Rest = R.BackendSeconds - Sum;
  double Pipeline = SpanUs / 1e6 - R.BackendSeconds;
  if (Rest > 0)
    T.add("analysis.unattributed", At, Rest * 1e6);
  if (Pipeline > 0)
    T.add("analysis.pipeline", At + std::max(Rest, 0.0) * 1e6,
          Pipeline * 1e6);
  L.Sec["analysis.unattributed_s"] += Rest;
  L.Sec["analysis.pipeline_s"] += Pipeline;
  L.Sec["analysis.cached_s"] += SpanUs / 1e6;
}

/// Verdict of one analysis, for run.py's expected-verdict check:
/// serializability, the violations' sorted transaction-name sets, triage
/// counts and the deterministic counters.
std::string verdictJson(const AnalysisResult &R) {
  std::vector<std::string> Sets;
  for (const Violation &V : R.Violations) {
    std::vector<std::string> Names = V.TxnNames;
    std::sort(Names.begin(), Names.end());
    std::string S = "[";
    for (size_t I = 0; I != Names.size(); ++I)
      S += (I ? ", " : "") + quote(Names[I]);
    Sets.push_back(S + "]");
  }
  std::sort(Sets.begin(), Sets.end());
  std::string Viol;
  for (size_t I = 0; I != Sets.size(); ++I)
    Viol += (I ? ", " : "") + Sets[I];
  return "\"serializable\": " + std::string(R.serializable() ? "true" : "false") +
         ", \"violations\": [" + Viol + "], \"counts\": {\"violations\": " +
         std::to_string(R.Violations.size()) +
         ", \"validated\": " + std::to_string(R.validatedViolations()) +
         ", \"smt_queries\": " + std::to_string(R.SmtQueries) +
         ", \"layouts_filtered\": " + std::to_string(R.LayoutsFiltered) +
         ", \"unfoldings_checked\": " + std::to_string(R.UnfoldingsChecked) +
         ", \"unfoldings_subsumed\": " + std::to_string(R.UnfoldingsSubsumed) +
         ", \"ssg_edges\": " + std::to_string(R.SSGEdges) + "}";
}

struct Runner {
  unsigned Threads = 1;
  Tracer T;
  Ledger L;
  std::unique_ptr<DiskCache> Verdicts; ///< the plan's own verdict store

  AnalyzerOptions options(const CompiledProgram &P) const {
    AnalyzerOptions O;
    O.DisplayFilter = true;
    O.UseAtomicSets = true;
    O.AtomicSets = P.AtomicSets;
    O.NumThreads = Threads;
    return O;
  }

  /// Frontend and passes, each in its own span.
  std::optional<CompiledProgram> load(const std::string &File,
                                      std::string &Error) {
    std::string Source;
    if (!readFile(File, Source)) {
      Error = "unreadable";
      return std::nullopt;
    }
    CompileResult C;
    T.span("frontend.compile", [&] { C = compileC4L(Source); });
    if (!C.ok()) {
      Error = C.Error;
      return std::nullopt;
    }
    PassOptions PO;
    PO.Lint = false;
    PassResult PR;
    T.span("passes.run", [&] { PR = runPasses(*C.Program, PO, &Source); });
    if (!PR.Ok) {
      Error = PR.Error;
      return std::nullopt;
    }
    L.Cnt["passes.fresh_promotions"] += PR.Stats.FreshPromotions;
    L.Cnt["passes.events_removed"] +=
        PR.Stats.EventsBefore - PR.Stats.EventsAfter;
    return std::move(*C.Program);
  }

  /// analyzeCached in a span, with the stage children and the ledger.
  PipelineResult analyzeSpan(const CompiledProgram &P,
                             const AnalyzerOptions &O, AnalysisCache *C) {
    double Start = T.nowUs();
    PipelineResult PR = analyzeCached(*P.History, O, *P.Registry, C);
    double Dur = T.nowUs() - Start;
    T.add("analysis.analyzeCached", Start, Dur);
    if (!PR.CacheHit) {
      addResult(L, PR.R);
      addStageChildren(T, L, PR.R, Start, Dur);
    }
    return PR;
  }

  /// Runs one plan operation; returns its JSON result line.
  std::string runOp(const JsonValue &Op) {
    const std::string *Kind = Op.get("op") ? Op.get("op")->asString() : nullptr;
    const std::string *File =
        Op.get("file") ? Op.get("file")->asString() : nullptr;
    if (!Kind || !File)
      return "\"ok\": false, \"error\": \"malformed plan entry\"";
    std::string Error;
    std::optional<CompiledProgram> P = load(*File, Error);
    if (!P)
      return "\"ok\": false, \"error\": " + quote(Error);
    AnalyzerOptions O = options(*P);

    // The verdict-cache path spelled out layer by layer: general SSG
    // (except on a hit), fingerprint, store lookup, then either deserialize
    // or the back end plus serialize and store. "warm" and "fill" run the
    // back end through an incremental AnalysisCache over the plan's
    // directory, as one c4-analyze --incremental-cache process would;
    // opening it loads the persisted snapshots and counts as lookup.
    bool Incremental = *Kind == "warm" || *Kind == "fill";
    const std::string *Dir =
        Op.get("cache") ? Op.get("cache")->asString() : nullptr;
    if ((*Kind != "cold" && *Kind != "hit" && !Incremental) ||
        (Incremental && !Dir))
      return "\"ok\": false, \"error\": " + quote("bad op " + *Kind);
    if (*Kind != "hit")
      T.span("ssg.general", [&] {
        SSG G(*P->History, O.Features);
        G.analyze();
      });
    std::string Key;
    T.span("verdict.fingerprint",
           [&] { Key = fingerprintAnalysis(*P->History, O); });
    std::optional<std::string> Blob;
    T.span("verdict.get", [&] { Blob = Verdicts->get("v-" + Key); });
    std::optional<AnalysisResult> R;
    bool Hit = false;
    if (Blob) {
      T.span("verdict.deserialize", [&] { R = deserializeResult(*Blob); });
      Hit = R.has_value();
    }
    if (!Hit) {
      std::unique_ptr<AnalysisCache> C;
      if (Incremental)
        T.span("verdict.cache_open",
               [&] { C = std::make_unique<AnalysisCache>(*Dir, true); });
      PipelineResult PR = analyzeSpan(*P, O, C.get());
      Hit = PR.CacheHit;
      R = std::move(PR.R);
      std::string Out;
      T.span("verdict.serialize", [&] { Out = serializeResult(*R); });
      T.span("verdict.put", [&] { Verdicts->put("v-" + Key, Out); });
    }
    ++L.Cnt[Hit ? "verdict.hits" : "verdict.misses"];
    return std::string("\"ok\": true, \"cache_hit\": ") +
           (Hit ? "true" : "false") +
           ", \"backend_s\": " + num(Hit ? 0.0 : R->BackendSeconds) + ", " +
           verdictJson(*R);
  }

  std::string layersJson() {
    // Self times of the recorded spans, then the stage/derived totals.
    const char *SpanSec[][2] = {
        {"frontend.compile", "frontend.compile_s"},
        {"passes.run", "passes.run_s"},
        {"ssg.general", "ssg.general_s"},
        {"verdict.fingerprint", "verdict.fingerprint_s"}};
    for (const auto &P : SpanSec)
      L.Sec[P[1]] = T.total(P[0]);
    L.Sec["verdict.lookup_s"] = T.total("verdict.get") +
                                T.total("verdict.deserialize") +
                                T.total("verdict.cache_open");
    L.Sec["verdict.store_s"] =
        T.total("verdict.serialize") + T.total("verdict.put");
    std::string Out = "{\"layers\": {";
    bool First = true;
    for (const auto &[K, V] : L.Sec) {
      Out += (First ? "" : ", ") + quote(K) + ": " + num(V);
      First = false;
    }
    for (const auto &[K, V] : L.Cnt) {
      Out += (First ? "" : ", ") + quote(K) + ": " + std::to_string(V);
      First = false;
    }
    return Out + "}}";
  }
};

int cmdRun(int Argc, char **Argv) {
  Runner Run;
  const char *Chrome = nullptr, *PlanPath = nullptr;
  for (int I = 0; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--threads") && I + 1 < Argc)
      Run.Threads = static_cast<unsigned>(std::atoi(Argv[++I]));
    else if (!std::strcmp(Argv[I], "--chrome") && I + 1 < Argc)
      Chrome = Argv[++I];
    else
      PlanPath = Argv[I];
  }
  std::string Text, Error;
  if (!PlanPath || !readFile(PlanPath, Text)) {
    std::fprintf(stderr, "error: cannot read plan\n");
    return 2;
  }
  std::optional<JsonValue> Plan = parseJson(Text, Error);
  const JsonValue *Ops = Plan ? Plan->get("ops") : nullptr;
  const JsonValue *Store = Plan ? Plan->get("verdict_dir") : nullptr;
  if (!Ops || !Ops->asArray() || !Store || !Store->asString()) {
    std::fprintf(stderr, "error: malformed plan: %s\n", Error.c_str());
    return 2;
  }
  Run.Verdicts = std::make_unique<DiskCache>(*Store->asString());
  unsigned Id = 0;
  for (const JsonValue &Op : *Ops->asArray()) {
    Run.T.setOp(Id);
    std::string Line = Run.runOp(Op);
    std::printf("{\"id\": %u, %s}\n", Id++, Line.c_str());
    std::fflush(stdout);
  }
  std::printf("%s\n", Run.layersJson().c_str());
  if (Chrome && !writeFile(Chrome, Run.T.chromeJson())) {
    std::fprintf(stderr, "error: cannot write %s\n", Chrome);
    return 2;
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc >= 3 && !std::strcmp(Argv[1], "dump"))
    return cmdDump(Argv[2]);
  if (Argc >= 3 && !std::strcmp(Argv[1], "digests"))
    return cmdDigests(Argc - 2, Argv + 2);
  if (Argc >= 3 && !std::strcmp(Argv[1], "run"))
    return cmdRun(Argc - 2, Argv + 2);
  std::fprintf(stderr,
               "usage: %s dump <dir> | digests <file>... | "
               "run [--threads N] [--chrome FILE] <plan.json>\n",
               Argv[0]);
  return 2;
}
