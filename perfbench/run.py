"""The C4 benchmark: one command, three workloads, every verdict checked.

    python3 perfbench/run.py --workload cold-corpus --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The first run builds the analyzer
tools and the benchmark's probe from source (CMake, perfbench/CMakeLists.txt)
into $CARGO_TARGET_DIR, or .bench_build when that is unset; scratch files go
to .bench_work/ and are removed at exit. BENCHMARK.json gates cold-corpus and
warm-edit; serve-mix runs the same way but is not gated. See
perfbench/README.md for the workloads, the metrics and how each maps onto
the layers.
"""

import argparse
import gc
import json
import math
import os
import random
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import gen  # noqa: E402

BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
ANALYZE = os.path.join(BUILD, "tools", "c4-analyze")
SERVE = os.path.join(BUILD, "tools", "c4-serve")
ROUTER = os.path.join(BUILD, "tools", "c4-router")
PROBE = os.path.join(BUILD, "c4-perfprobe")
JOBS = "4"  # at most nproc threads and processes, builds included


class BenchError(Exception):
    """A set-up failure: the run prints no result and exits non-zero."""


def build():
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "perfbench-build.log")
    steps = [["cmake", "--build", BUILD, "-j", JOBS]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT):
                with open(log) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: %s" % " ".join(cmd))


def dump_corpus(out_dir):
    os.makedirs(out_dir, exist_ok=True)
    if subprocess.call([PROBE, "dump", out_dir]):
        raise BenchError("c4-perfprobe dump failed")
    return gen.load_corpus(out_dir)


def probe_plan(ops, verdict_dir, threads=1, chrome=None):
    """Runs a plan in c4-perfprobe; returns (per-op results, layer totals)."""
    plan = os.path.join(os.path.dirname(verdict_dir), "plan-%d.json" % os.getpid())
    with open(plan, "w") as f:
        json.dump({"verdict_dir": verdict_dir, "ops": ops}, f)
    cmd = [PROBE, "run", "--threads", str(threads)]
    if chrome:
        cmd += ["--chrome", chrome]
    proc = subprocess.run(cmd + [plan], stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        raise BenchError("c4-perfprobe run failed (%d)" % proc.returncode)
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    return lines[:-1], lines[-1]["layers"]


# ---------------------------------------------------------------------------
# Statistics and checks
# ---------------------------------------------------------------------------

def pct(values, q):
    """The q-th percentile (0..100) of `values`, linearly interpolated."""
    s = sorted(values)
    if not s:
        return 0.0
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(values):
    return pct(values, 50)


EXPECTED = {}  # perfbench/expected.json, loaded by main()

COUNT_KEYS = ("smt_queries", "layouts_filtered", "unfoldings_checked",
              "unfoldings_subsumed", "ssg_edges")


def stats_verdict(stats):
    """The comparable part of a --stats-json object (c4-analyze, c4-serve)."""
    counts = {k: stats[k] for k in COUNT_KEYS}
    counts["violations"] = stats["violations"]
    counts["validated"] = stats["violations_validated"]
    return stats["serializable"], counts


def normalize_sets(sets):
    """Violation transaction-name sets in one canonical order."""
    return sorted(sorted(v) for v in sets)


def check(key, serializable, counts, violations=None):
    """True when a verdict matches expected.json exactly. `violations` (the
    sorted transaction-name sets) is compared when the output carries it."""
    want = EXPECTED.get(key)
    if want is None:
        return False
    if serializable != want["serializable"] or counts != want["counts"]:
        return False
    return (violations is None
            or normalize_sets(violations) == want["violations"])


def report_violation_sets(text):
    """Sorted transaction-name sets from a c4-analyze text report."""
    marker = "violation involving transactions: "
    sets = []
    for line in text.splitlines():
        if line.startswith(marker):
            names = line[len(marker):].split(" (")[0].split(", ")
            sets.append(sorted(names))
    return sorted(sets)


def run_analyze(args):
    """Runs c4-analyze; returns (wall seconds, stdout, exit code, maxrss MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([ANALYZE] + args, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    with proc.stdout:
        out = proc.stdout.read()
    # wait4 rather than wait: the child's own peak RSS comes with it.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    return wall, out, proc.returncode, usage.ru_maxrss / 1024.0


class Tally:
    """Operations attempted and failed (failed, refused, timed out or with a
    verdict other than expected.json's)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)


def analyze_checked(tally, key, args, threads=4):
    """One timed c4-analyze --stats-json run, checked against `key`."""
    wall, out, code, rss = run_analyze(
        ["--threads", str(threads), "--stats-json"] + args)
    try:
        ser, counts = stats_verdict(json.loads(out))
        ok = check(key, ser, counts) and code == (0 if ser else 1)
    except (ValueError, KeyError):
        ok = False
    tally.record(ok, key)
    return wall, rss


def generator_selftest(apps, work, tally, draw):
    """The generator's own checks, before anything is timed: `draw()` (the
    workload's seeded draw) gives byte-identical inputs twice; every edit of
    the edit space compiles; a rename keeps every txnContentDigest and a
    body edit changes exactly its own transaction's."""
    tally.record(draw() == draw(), "generator: same seed, same inputs")
    out_dir = os.path.join(work, "selftest")
    os.makedirs(out_dir)
    edits = gen.all_edits(apps)
    paths = [os.path.join(out_dir, "%02d.c4l" % a["index"]) for a in apps]
    for app, path in zip(apps, paths):
        with open(path, "w") as f:
            f.write(app["source"])
    paths += [gen.write_edit(a, t, k, out_dir) for a, t, k in edits]
    proc = subprocess.run([PROBE, "digests"] + paths, stdout=subprocess.PIPE,
                          text=True)
    lines = [json.loads(l) for l in proc.stdout.splitlines()]
    if proc.returncode or len(lines) != len(paths):
        raise BenchError("c4-perfprobe digests failed")
    for app, res in zip(apps, lines):
        tally.record(res["ok"], "generator: original:%02d" % app["index"])
    before = {a["index"]: r.get("digests") for a, r in zip(apps, lines)}
    for (app, txn, kind), res in zip(edits, lines[len(apps):]):
        ok = res["ok"] and before[app["index"]] is not None
        if ok:
            old = before[app["index"]]
            new = {txn if n == txn + gen.RENAME_SUFFIX else n: d
                   for n, d in res["digests"].items()}
            changed = [n for n in old if old[n] != new.get(n)]
            ok = set(new) == set(old) and changed == (
                [] if kind == "rename" else [txn])
        tally.record(ok, "generator: " + gen.edit_id(app, txn, kind))
    shutil.rmtree(out_dir)


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def tail_pct(n):
    """The highest whole percentile with at least 10 of `n` samples beyond
    it (p64 over 28 programs, p58 over 24 edits)."""
    return max(50, int(100 * (1 - 10.0 / n)))


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def latency_metrics(walls_s, q):
    """The typical per-operation wall time (geometric mean) and its p`q`,
    in ms. The operations of one run are a fixed, heterogeneous mix, so a
    median lands on whichever operation sits in the middle, and a single
    operation whose time is bimodal (warm Events edits: 0.5 s or 1.2 s for
    the same input and cache) flips it from run to run; the geometric mean
    weighs every operation alike and moves by that operation's share."""
    return geomean(walls_s) * 1e3, pct(walls_s, q) * 1e3


# ---------------------------------------------------------------------------
# cold-corpus: the 28 programs, no cache, c4-analyze --threads 4
# ---------------------------------------------------------------------------

def smt_apps(apps):
    """The editable apps whose analysis reaches the SMT stage: the ones an
    edit gives the incremental layers and the back end real work on."""
    return [a for a in gen.edit_apps(apps)
            if EXPECTED["original:%02d" % a["index"]]["counts"]
            ["smt_queries"] > 0]


# Programs outside gen.FILL_HEAVY take well under a second each; they are
# analyzed this many times per pass, interleaved, and each counts with the
# median of its runs, so the per-program figures are not one noisy process
# each. The four FILL_HEAVY programs (~22 of the ~25 s of one pass) run once.
LIGHT_REPEATS = 3


# Set-up runs this many times and setup_s is the median.
SETUP_REPEATS = 3


def cold_setup(work, seed, i):
    """Writes the corpus and the seeded visiting order, then has c4-analyze
    compile each program and print its general SSG (--dot, no analysis):
    the tool's start-up, front end and general graph over the corpus."""
    corpus = os.path.join(work, "corpus-%d" % i)
    apps = dump_corpus(corpus)
    for app in apps:
        _, out, code, _ = run_analyze(["--dot", os.path.join(corpus,
                                                            app["file"])])
        if code or not out.startswith("digraph"):
            raise BenchError("c4-analyze --dot failed on %s" % app["file"])
    order = [a for a in apps for _ in range(
        1 if a["name"] in gen.FILL_HEAVY else LIGHT_REPEATS)]
    random.Random(seed).shuffle(order)
    return [(a, os.path.join(corpus, a["file"])) for a in order]


def cold_corpus(args, work, tally):
    """One pass over the corpus, whatever --seconds says: the corpus is the
    unit of work (a pass takes ~35 s on a 4-core box)."""
    setups = []
    for i in range(SETUP_REPEATS):
        sec, plan = timed(lambda: cold_setup(work, args.seed, i))
        setups.append(sec)
    if args.trace:
        seen, ops = set(), []
        for app, path in plan:
            if app["index"] not in seen:
                seen.add(app["index"])
                # The four heavy programs would double the traced run's
                # ~60 s if run again untraced; the overhead is taken over
                # the 24 others.
                ops.append({"op": "cold", "file": path,
                            "key": "original:%02d" % app["index"],
                            "untraced": app["name"] not in gen.FILL_HEAVY})
        layers = trace_plan(args, work, tally, ops)
        apps = dump_corpus(os.path.join(work, "corpus"))
        layers.update(serve_probe(apps, work, args.seed, tally))
        return {}, layers

    runs, rss = {}, 0.0
    pass_start = time.perf_counter()
    for app, path in plan:
        wall, peak = analyze_checked(
            tally, "original:%02d" % app["index"], [path])
        runs.setdefault(app["index"], []).append(wall)
        rss = max(rss, peak)
    pass_s = time.perf_counter() - pass_start
    walls = [median(w) for w in runs.values()]
    total = sum(walls)
    q = tail_pct(len(walls))
    typical, tail = latency_metrics(walls, q)
    print("cold-corpus: %d programs (%d analyses in %.3f s); cold_corpus_s "
          "%.3f, per-program geomean %.1f ms, p50 %.1f ms, p%d %.1f ms, p90 "
          "%.1f ms, cold_peak_rss_mb %.1f"
          % (len(walls), len(plan), pass_s, total, typical,
             pct(walls, 50) * 1e3, q, tail, pct(walls, 90) * 1e3, rss))
    # rate_per_s: analyses per second of the whole pass, repeats included.
    return {"setup_s": median(setups), "typical_ms": typical, "tail_ms": tail,
            "miss_total_s": total, "rate_per_s": len(plan) / pass_s,
            "peak_rss_mb": rss}, {}


# ---------------------------------------------------------------------------
# warm-edit: one incremental cache per app, then seeded one-transaction edits
# ---------------------------------------------------------------------------

# A round takes ~12 s on a 4-core box: two rounds per 20 s of --seconds.
# Two rounds give each app two of its edits, all it has for most apps'
# kind, which keeps the seed's choice of transactions from moving totals.
ROUNDS_PER_20S = 2


def edit_rounds(apps, rng, rounds):
    """`rounds` rounds of one edit per app of smt_apps. The kind is fixed
    per app, alternating in app order and starting with a body edit; the
    transaction rotates through the app's edits of that kind from a seeded
    offset. So a round costs about the same whatever the seed (a body edit
    can cost 10x a rename of the same app), both kinds are always in the
    mix, and an app with two edits of its kind has both in every run."""
    per_app = []
    for n, app in enumerate(smt_apps(apps)):
        kind = "body" if n % 2 == 0 else "rename"
        edits = [e for e in gen.all_edits([app]) if e[2] == kind]
        per_app.append((edits, rng.randrange(len(edits))))
    out = []
    for r in range(rounds):
        picked = [edits[(offset + r) % len(edits)]
                  for edits, offset in per_app]
        rng.shuffle(picked)
        out.append(picked)
    return out


def warm_edit(args, work, tally):
    apps = dump_corpus(os.path.join(work, "corpus"))
    editable = smt_apps(apps)
    os.makedirs(os.path.join(work, "cache"))
    caches = {a["index"]: os.path.join(work, "cache", "%02d" % a["index"])
              for a in editable}
    nrounds = 1 if args.trace else max(
        1, round(args.seconds * ROUNDS_PER_20S / 20))
    generator_selftest(
        apps, work, tally,
        lambda: [[gen.apply_edit(*e) for e in r] for r in edit_rounds(
            apps, random.Random(args.seed), nrounds)])
    rounds = edit_rounds(apps, random.Random(args.seed), nrounds)
    edits_dir = os.path.join(work, "edits")
    os.makedirs(edits_dir)

    if args.trace:
        fills = [{"op": "fill", "key": "original:%02d" % a["index"],
                  "file": os.path.join(work, "corpus", a["file"]),
                  "cache": caches[a["index"]]} for a in editable]
        trace_plan(args, work, tally, fills, measured=False)
        ops, pristine = [], []
        for n, (app, txn, kind) in enumerate(rounds[0]):
            cache = os.path.join(work, "edit-cache-%d" % n)
            shutil.copytree(caches[app["index"]], cache)
            ops.append({"op": "warm", "key": gen.edit_id(app, txn, kind),
                        "file": gen.write_edit(app, txn, kind, edits_dir),
                        "cache": cache})
            pristine.append(caches[app["index"]])
        # The timed run reads each edit's verdict back as a verdict-cache
        # hit; so does the trace, which measures the hit path here.
        ops += [dict(op, op="hit") for op in ops]
        pristine += [None] * len(pristine)
        layers = trace_plan(args, work, tally, ops, pristine=pristine)
        layers.update(serve_probe(apps, work, args.seed, tally))
        return {}, layers

    def fill():
        for app in editable:
            analyze_checked(tally, "original:%02d" % app["index"],
                            ["--incremental-cache", caches[app["index"]],
                             os.path.join(work, "corpus", app["file"])])
    setup_s, _ = timed(fill)

    totals, walls, rss = [], [], 0.0
    cache = os.path.join(work, "edit-cache")
    phase_start = time.perf_counter()
    for edits in rounds:
        total = 0.0
        for app, txn, kind in edits:
            key = gen.edit_id(app, txn, kind)
            path = gen.write_edit(app, txn, kind, edits_dir)
            shutil.rmtree(cache, ignore_errors=True)
            shutil.copytree(caches[app["index"]], cache)
            wall, peak = analyze_checked(
                tally, key, ["--incremental-cache", cache, path])
            walls.append(wall)
            total += wall
            rss = max(rss, peak)
            # The warm verdict again, now a verdict-layer hit, as a text
            # report: its violation sets must equal the cold run's.
            _, text, _, _ = run_analyze(["--incremental-cache", cache, path])
            if report_violation_sets(text) != EXPECTED[key]["violations"]:
                tally.record(False, key + " (violation sets)")
        totals.append(total)
    phase_s = time.perf_counter() - phase_start
    q = tail_pct(len(walls))
    typical, tail = latency_metrics(walls, q)
    round_s = sum(totals) / len(totals)
    print("warm-edit: setup (fill %d caches) %.3f s; %d rounds of %d edits "
          "in %.3f s; geomean %.1f ms, warm_edit_p50_ms %.1f, "
          "warm_edit_p%d_ms %.1f, warm_edit_p90_ms %.1f, warm_edit_total_s "
          "%.3f (mean per round)"
          % (len(editable), setup_s, len(totals), len(rounds[0]), phase_s,
             typical, pct(walls, 50) * 1e3, q, tail, pct(walls, 90) * 1e3,
             round_s))
    # rate_per_s: edits per second of the whole timed phase, each edit's
    # cache copy and verdict re-read included.
    return {"setup_s": setup_s, "typical_ms": typical, "tail_ms": tail,
            "miss_total_s": round_s, "rate_per_s": len(walls) / phase_s,
            "peak_rss_mb": rss}, {}


# ---------------------------------------------------------------------------
# The traced run (in-process, one analysis thread)
# ---------------------------------------------------------------------------

TRACE_DIR = os.path.join(ROOT, ".bench_work", "traces")


def ratio(num, den):
    return num / den if den else 0.0


def tracing_overhead_s(ops, results, tally, pristine):
    """The traced back-end seconds of the operations the traced run
    analyzed (a verdict-cache hit runs no back end), minus those of the
    same operations untraced: one c4-analyze --threads 1 --stats-json
    process each, an incremental one on a fresh copy of `pristine[n]` when
    that is set. An op with "untraced": false is left out of both sides.
    Each untraced verdict is checked too."""
    traced = total = 0.0
    cache = os.path.join(os.path.dirname(ops[0]["file"]), "untraced-cache")
    for n, (op, res) in enumerate(zip(ops, results)):
        if res.get("cache_hit") or not op.get("untraced", True):
            continue
        traced += res["backend_s"]
        extra = []
        if pristine and pristine[n]:
            shutil.rmtree(cache, ignore_errors=True)
            shutil.copytree(pristine[n], cache)
            extra = ["--incremental-cache", cache]
        _, out, code, _ = run_analyze(
            ["--threads", "1", "--stats-json"] + extra + [op["file"]])
        try:
            stats = json.loads(out)
            ser, counts = stats_verdict(stats)
            tally.record(check(op["key"], ser, counts)
                         and code == (0 if ser else 1),
                         op["key"] + " (untraced)")
            total += stats["backend_seconds"]
        except (ValueError, KeyError):
            tally.record(False, op["key"] + " (untraced)")
    shutil.rmtree(cache, ignore_errors=True)
    print("trace: back end of the compared operations %.3f s traced, "
          "%.3f s untraced" % (traced, total))
    return traced - total


def trace_plan(args, work, tally, ops, measured=True, pristine=None):
    """Runs `ops` in c4-perfprobe at one analysis thread, checks every
    verdict (violation sets included) and returns the per-layer metrics.
    For the workload's `measured` plan the spans go to
    .bench_work/traces/<workload>-seed<N>.json and the same operations run
    again untraced (see tracing_overhead_s), for trace.overhead_s."""
    path = None
    if measured:
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, "%s-seed%d.json"
                            % (args.workload, args.seed))
    results, layers = probe_plan(ops, os.path.join(work, "verdicts"),
                                 threads=1, chrome=path)
    for op, res in zip(ops, results):
        ok = bool(res.get("ok")) and check(op["key"], res["serializable"],
                                           res["counts"], res["violations"])
        tally.record(ok, op["key"])
    if not measured:
        return layers
    with open(path) as f:
        spans = sum(1 for _ in f) - 2  # one span a line, in brackets
    print("trace: %d spans over %d operations written to %s"
          % (spans, len(ops), os.path.relpath(path, ROOT)))
    overhead = tracing_overhead_s(ops, results, tally, pristine)
    get = lambda k: layers.get(k, 0)
    out = dict(layers)
    out["verdict.hit_ratio"] = ratio(
        get("verdict.hits"), get("verdict.hits") + get("verdict.misses"))
    out["domain.kill_ratio"] = ratio(get("domain.killed"), get("smt.queries"))
    out["oracle.cond_hit_ratio"] = ratio(
        get("oracle.cond_hits"),
        get("oracle.cond_hits") + get("oracle.cond_misses"))
    out["oracle.sat_hit_ratio"] = ratio(
        get("oracle.sat_hits"),
        get("oracle.sat_hits") + get("oracle.sat_misses"))
    out["incremental.constraint_hit_ratio"] = ratio(
        get("incremental.constraint_hits"),
        get("incremental.constraint_hits")
        + get("incremental.constraint_misses"))
    out["trace.overhead_s"] = overhead
    return out


# ---------------------------------------------------------------------------
# serve-mix: c4-router with 2 c4-serve workers, closed-loop clients
# ---------------------------------------------------------------------------

CONNECTIONS = 4
SERVE_WORKERS = 2
# Every phase is closed-loop: a client sends its next request as soon as a
# reply arrives, so the load follows the fleet's own pace and a slow second
# of the host delays the next requests instead of queueing a burst of them
# (an open loop at fixed rates let such seconds decide its latencies).
#   single:   one client, one request in flight, hits only. typical_ms is
#             the median hit reply time: the path one user sees.
#   saturate: CONNECTIONS clients with SATURATE_DEPTH requests in flight
#             each, hits only. rate_per_s is hit replies per second and
#             tail_ms the hits' p90: the fleet at capacity.
#   mixed:    one client sends the misses one after another while another
#             sends hits. miss_total_s is the misses' summed reply time. The hits' p99 beside them, where a hit held up behind a
#             miss (head-of-line blocking) shows, is printed; it is too
#             noisy to gate (it spread 0.6 between the quartiles of runs).
# single and saturate take these shares of --seconds, cut into SLICES
# slices each that alternate; each of their metrics is the median over its
# slices, so a few seconds in which the host is slow move a minority of
# the slices rather than a whole phase. mixed lasts as long as its misses.
SINGLE_SHARE, SATURATE_SHARE, SLICES = 0.25, 0.25, 8
SATURATE_DEPTH = 2
# Misses per edit kind and app: ~48 misses, ~20 s of back-end work one
# after another, so miss_total_s averages the host over that long.
MISSES_PER_KIND = 2
# Set-up ends with untimed saturating hits for this share of --seconds.
WARM_SHARE = 0.05
ZIPF_S = 1.1
# Analysis threads per request: the 4 cores split over the 2 workers. It
# is not part of the verdict fingerprint, so it changes no cache key.
REQUEST_THREADS = 2


class Fleet:
    """A c4-router process group on a fresh cache dir, on 127.0.0.1:<free>."""

    def __init__(self, work):
        # Relative to the checkout root, which is the fleet's working
        # directory: the workers' Unix sockets live in this directory, and
        # a socket path must stay under ~100 bytes wherever the checkout is.
        self.dir = os.path.relpath(os.path.join(work, "fleet"), ROOT)
        self.err_path = os.path.join(work, "router.err")
        self.err = open(self.err_path, "w")
        self.proc = subprocess.Popen(
            [ROUTER, "--workers", str(SERVE_WORKERS), "--worker-threads",
             str(4 // SERVE_WORKERS), "--tcp", "127.0.0.1:0", "--cache-dir",
             self.dir, "--serve-bin", SERVE],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self.err, start_new_session=True)
        self.port = None
        deadline = time.monotonic() + 30
        while self.port is None and time.monotonic() < deadline:
            with open(self.err_path) as f:
                for line in f:
                    if "listening on" in line:
                        self.port = int(line.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        if self.port is None:
            self.stop()
            raise BenchError("c4-router did not come up")

    def control(self, request, path=None):
        """One control op over a fresh connection (TCP, or a worker's shard
        socket at `path`); returns the parsed reply."""
        if path:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            s.connect(os.path.relpath(os.path.join(ROOT, path)))
        else:
            s = socket.create_connection(("127.0.0.1", self.port))
        with s:
            s.settimeout(30)
            s.sendall((json.dumps(request) + "\n").encode())
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = s.recv(65536)
                if not chunk:
                    break
                buf += chunk
        return json.loads(buf)

    def settle(self, quiet_s=2.0, limit_s=15.0):
        """Waits until the snapshot tier (a cycle per second) has imported
        nothing new for `quiet_s`: the warm-up's facts have circulated."""
        last, since = None, time.monotonic()
        end = since + limit_s
        while time.monotonic() < end:
            n = self.control({"id": 0, "op": "stats"}).get(
                "snapshot_facts_imported")
            if n != last:
                last, since = n, time.monotonic()
            elif time.monotonic() - since >= quiet_s:
                return
            time.sleep(0.25)

    def worker_stats(self):
        out = []
        for i in range(SERVE_WORKERS):
            out.append(self.control({"id": 0, "op": "stats"},
                                    os.path.join(self.dir,
                                                 "worker-%d.sock" % i)))
        return out

    def stop(self):
        """Graceful shutdown, then make sure the whole group is gone.
        Returns the peak RSS in MB of the router and of the workers it
        reaped (wait4 carries both), or 0 when it did not exit in time."""
        rss = 0.0
        try:
            if self.proc.returncode is None and self.port:
                self.control({"id": 0, "op": "shutdown"})
        except (OSError, ValueError):
            pass
        deadline = time.monotonic() + 60
        while self.proc.returncode is None and time.monotonic() < deadline:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                rss = usage.ru_maxrss / 1024.0
            else:
                time.sleep(0.05)
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.err.close()
        return rss

class Client:
    """Closed-loop load over CONNECTIONS pipelined TCP connections from one
    thread; every reply is timed from its request's send."""

    def __init__(self, port):
        self.conns = []
        for _ in range(CONNECTIONS):
            s = socket.create_connection(("127.0.0.1", port))
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            s.setblocking(False)
            self.conns.append({"sock": s, "out": bytearray(), "in": b""})
        self.sel = selectors.DefaultSelector()
        for c in self.conns:
            self.sel.register(c["sock"], selectors.EVENT_READ, c)
        self.next_id = 0

    def close(self):
        for c in self.conns:
            self.sel.unregister(c["sock"])
            c["sock"].close()
        self.sel.close()

    def run(self, streams, seconds=None, timeout_s=120):
        """`streams`: (connection index, depth, iterator of (payload,
        tag)). Keeps `depth` requests of each stream in flight on its
        connection and stops sending once `seconds` have passed or, with
        `seconds` None, once any stream runs out. Returns the records in
        send order (tag, latency_s, parsed reply; latency_s is None when no
        reply came within timeout_s of the stop) and the seconds from the
        start to the last reply."""
        gc.disable()  # no collector pauses on the timed path
        try:
            return self._run(streams, seconds, timeout_s)
        finally:
            gc.enable()

    def _run(self, streams, seconds, timeout_s):
        t0 = time.perf_counter()
        recs, pending, inflight = [], {}, [0] * len(streams)
        state = {"sending": True, "stop": None, "last": 0.0}

        def refill(k, now):
            conn, depth, source = streams[k]
            while state["sending"] and inflight[k] < depth:
                item = next(source, None)
                if item is None:
                    state["sending"] = False
                    return
                rid = self.next_id
                self.next_id += 1
                rec = {"tag": item[1], "sent": now, "latency_s": None,
                       "reply": None}
                recs.append(rec)
                pending[rid] = (k, rec)
                inflight[k] += 1
                self.conns[conn]["out"] += b'{"id": %d, %s\n' % (rid,
                                                                  item[0])

        for k in range(len(streams)):
            refill(k, 0.0)
        while pending:
            now = time.perf_counter() - t0
            if seconds is not None and now >= seconds:
                state["sending"] = False
            if not state["sending"]:
                state["stop"] = state["stop"] or now
                if now > state["stop"] + timeout_s:
                    break
            for c in self.conns:
                if c["out"]:
                    try:
                        n = c["sock"].send(c["out"])
                        del c["out"][:n]
                    except BlockingIOError:
                        pass
            for key, _ in self.sel.select(0.02):
                c = key.data
                try:
                    chunk = c["sock"].recv(1 << 20)
                except BlockingIOError:
                    continue
                if not chunk:
                    raise BenchError("c4-router closed a connection")
                c["in"] += chunk
                *lines, c["in"] = c["in"].split(b"\n")
                got = time.perf_counter() - t0
                for line in lines:
                    # Replies start with the echoed id; the rest is parsed
                    # after the phase, off the timed path.
                    entry = pending.pop(int(line[7:line.index(b",")]), None)
                    if entry:
                        k, rec = entry
                        rec["latency_s"] = got - rec["sent"]
                        rec["reply"] = line
                        inflight[k] -= 1
                        state["last"] = got
                        refill(k, got)
        for rec in recs:
            if rec["reply"] is not None:
                rec["reply"] = json.loads(rec["reply"])
        return recs, state["last"]


def request_payload(source):
    """The request body after the id: the inline program."""
    return json.dumps({"threads": REQUEST_THREADS,
                       "program": source})[1:].encode()


def reply_ok(rec):
    reply = rec["reply"]
    if not reply or not reply.get("ok") or reply.get("overloaded"):
        return False
    try:
        ser, counts = stats_verdict(reply["stats"])
    except KeyError:
        return False
    return check(rec["tag"][1], ser, counts)


def serve_inputs(apps, seed, work):
    """The seeded requests. Hits: the 24 programs outside gen.FILL_HEAVY,
    ranked for zipf popularity in corpus order, whatever the seed: which
    program is hottest sets a hit's cost and how the load splits over the
    workers, and a seeded rank order spread the hit metrics 0.14-0.20
    between the quartiles of runs. The seed draws the request sequences
    (hit_stream). Misses: never-seen edits, MISSES_PER_KIND renames and
    as many body edits (seeded transactions) of each app in smt_apps, in
    seeded order, so every run's misses cost about the same."""
    rng = random.Random(seed)
    corpus = os.path.join(work, "corpus")
    hits = [{"key": "original:%02d" % a["index"],
             "file": os.path.join(corpus, a["file"]),
             "payload": request_payload(a["source"])}
            for a in gen.edit_apps(apps)]
    edits_dir = os.path.join(work, "edits")
    os.makedirs(edits_dir, exist_ok=True)
    drawn = []
    for app in smt_apps(apps):
        edits = gen.all_edits([app])
        for kind in ("rename", "body"):
            pool = [e for e in edits if e[2] == kind]
            drawn += rng.sample(pool, min(MISSES_PER_KIND, len(pool)))
    rng.shuffle(drawn)
    misses = [{"key": gen.edit_id(a, t, k),
               "file": gen.write_edit(a, t, k, edits_dir),
               "payload": request_payload(gen.apply_edit(a, t, k))}
              for a, t, k in drawn]
    return hits, misses


def hit_stream(hits, seed, name):
    """An endless seeded sequence of hit requests by zipf popularity; each
    client of each phase draws from its own."""
    rng = random.Random("%d/%s" % (seed, name))
    popularity = [1.0 / (k + 1) ** ZIPF_S for k in range(len(hits))]
    while True:
        for h in rng.choices(hits, popularity, k=256):
            yield h["payload"], ("hit", h["key"])


def requests(items, tag):
    return iter([(i["payload"], (tag, i["key"])) for i in items])


def serve_session(work, hits, misses, seed, seconds, tally):
    """A fresh fleet: set-up (every hit program once, snapshot tier
    settled, untimed hits), then the single and saturate phases, then the
    mixed phase when there are misses. Every reply is checked. Returns the
    set-up seconds (fleet start and the first pass over the hit programs;
    the settle wait and the untimed hits are idle or fixed time), the
    records and wall seconds of each phase's slices, the fleet's counters
    (router and per-worker stats) and the fleet's peak RSS."""
    start = time.perf_counter()
    fleet = Fleet(work)
    phases = {"warmup": [], "single": [], "saturate": [], "mixed": []}
    try:
        client = Client(fleet.port)
        try:
            first = requests(hits, "warmup")
            phases["warmup"].append(client.run(
                [(k, 1, first) for k in range(CONNECTIONS)]))
            setup_s = time.perf_counter() - start
            fleet.settle()
            client.run([(k, SATURATE_DEPTH,
                         hit_stream(hits, seed, "warm-%d" % k))
                        for k in range(CONNECTIONS)], WARM_SHARE * seconds)
            single = hit_stream(hits, seed, "single")
            saturate = [hit_stream(hits, seed, "sat-%d" % k)
                        for k in range(CONNECTIONS)]
            for _ in range(SLICES):
                phases["single"].append(client.run(
                    [(0, 1, single)], SINGLE_SHARE * seconds / SLICES))
                phases["saturate"].append(client.run(
                    [(k, SATURATE_DEPTH, saturate[k])
                     for k in range(CONNECTIONS)],
                    SATURATE_SHARE * seconds / SLICES))
            if misses:
                phases["mixed"].append(client.run(
                    [(0, 1, requests(misses, "miss")),
                     (1, 1, hit_stream(hits, seed, "mixed"))]))
        finally:
            client.close()
        counters = (fleet.control({"id": 0, "op": "stats"}),
                    fleet.worker_stats())
    finally:
        rss = fleet.stop()
    if not rss:
        raise BenchError("c4-router did not shut down")
    for recs, _ in sum(phases.values(), []):
        for rec in recs:
            tally.record(rec["latency_s"] is not None and reply_ok(rec),
                         rec["tag"][1])
    return setup_s, phases, counters, rss


def latencies(recs, tag):
    return [r["latency_s"] for r in recs
            if r["tag"][0] == tag and r["latency_s"] is not None]


def serve_layers(phases, counters):
    """The tools layer's per-layer metrics from one serve_session."""
    routed, workers = counters
    # Reply time beyond what the worker reports doing, on the single
    # phase's hits (no queueing): relay, protocol and verdict-cache work
    # outside the stages (a hit replays the back end's seconds, which it
    # did not spend, so they do not count).
    over = []
    for rec in sum((recs for recs, _ in phases["single"]), []):
        st = (rec["reply"] or {}).get("stats")
        if rec["latency_s"] is None or not st:
            continue
        work_s = st["frontend_seconds"] + st["pass_seconds"]
        if not rec["reply"].get("cache_hit"):
            work_s += st["backend_seconds"]
        over.append(rec["latency_s"] - work_s)
    return {
        "serve.overhead_ms": median(over) * 1e3,
        "serve.backend_runs": sum(w.get("backend_runs", 0) for w in workers),
        "serve.single_flight_waits": sum(w.get("single_flight_waits", 0)
                                         for w in workers),
        "serve.overloaded": sum(1 for recs, _ in sum(phases.values(), [])
                                for r in recs if r["reply"]
                                and r["reply"].get("overloaded")),
        "router.rerouted": routed.get("rerouted_requests", 0),
        "router.snapshot_facts_imported":
            routed.get("snapshot_facts_imported", 0)}


# The traced runs of cold-corpus and warm-edit, whose timed runs use no
# fleet, measure the tools layer on this short fixed load: the hit
# programs through a fresh fleet (set-up, then the single and saturate
# phases), no misses.
PROBE_SECONDS = 4


def serve_probe(apps, work, seed, tally):
    hits, _ = serve_inputs(apps, seed, work)
    _, phases, counters, _ = serve_session(work, hits, [], seed,
                                           PROBE_SECONDS, tally)
    return serve_layers(phases, counters)


def serve_mix(args, work, tally):
    apps = dump_corpus(os.path.join(work, "corpus"))

    def draw():
        hits, misses = serve_inputs(apps, args.seed, work)
        stream = hit_stream(hits, args.seed, "single")
        return hits, misses, [next(stream) for _ in range(1000)]
    generator_selftest(apps, work, tally, draw)
    hits, misses = serve_inputs(apps, args.seed, work)

    layers = {}
    seconds = args.seconds
    if args.trace:
        ops = [{"op": "cold", "key": h["key"], "file": h["file"]}
               for h in hits]
        files = {h["key"]: h["file"] for h in hits}
        stream = hit_stream(hits, args.seed, "trace")
        for _ in range(400):
            key = next(stream)[1][1]
            ops.append({"op": "hit", "key": key, "file": files[key]})
        ops += [{"op": "cold", "key": m["key"], "file": m["file"]}
                for m in misses]
        layers = trace_plan(args, work, tally, ops)
        seconds = min(seconds, 2 * PROBE_SECONDS)

    setup_s, phases, counters, rss = serve_session(
        work, hits, misses, args.seed, seconds, tally)
    single_n = sum(len(latencies(recs, "hit")) for recs, _ in phases["single"])
    single = [median(latencies(recs, "hit")) for recs, _ in phases["single"]]
    sat = [latencies(recs, "hit") for recs, _ in phases["saturate"]]
    rates = [len(lat) / wall
             for lat, (_, wall) in zip(sat, phases["saturate"])]
    sat_p90 = [pct(lat, 90) for lat in sat]
    mixed, _ = phases["mixed"][0]
    mixed_hits = latencies(mixed, "hit")
    miss_lat = latencies(mixed, "miss")
    metrics = {"setup_s": setup_s, "typical_ms": median(single) * 1e3,
               "tail_ms": median(sat_p90) * 1e3,
               "miss_total_s": sum(miss_lat), "rate_per_s": median(rates),
               "peak_rss_mb": rss}
    print("serve-mix: set-up %.3f s; single: %d hits, p50 %.3f ms (slices "
          "%.3f-%.3f); saturate: %d hits, %.1f/s (slices %.1f-%.1f), p90 "
          "%.3f ms (slices %.3f-%.3f); mixed: %d misses, total %.3f s, p50 "
          "%.0f ms, %d hits beside them, p99 %.3f ms, max %.1f ms; fleet "
          "peak rss %.1f MB"
          % (setup_s, single_n, metrics["typical_ms"], min(single) * 1e3,
             max(single) * 1e3, sum(map(len, sat)), metrics["rate_per_s"],
             min(rates), max(rates), metrics["tail_ms"], min(sat_p90) * 1e3,
             max(sat_p90) * 1e3, len(miss_lat), metrics["miss_total_s"],
             pct(miss_lat, 50) * 1e3, len(mixed_hits),
             pct(mixed_hits, 99) * 1e3, max(mixed_hits) * 1e3, rss))
    if args.trace:
        layers.update(serve_layers(phases, counters))
        return {}, layers
    return metrics, {}


# ---------------------------------------------------------------------------

WORKLOADS = {"cold-corpus": cold_corpus, "warm-edit": warm_edit,
             "serve-mix": serve_mix}

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run still stops its fleet and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        with open(os.path.join(HERE, "expected.json")) as f:
            EXPECTED.update(json.load(f))
        build()
        work = os.path.join(ROOT, ".bench_work", "%s-%d"
                            % (args.workload, os.getpid()))
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        tally = Tally()
        try:
            timed_metrics, layers = WORKLOADS[args.workload](args, work, tally)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (BenchError, OSError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 2

    print("%s: %d operations, %d failed (failed_share %.4f)%s"
          % (args.workload, tally.attempted, tally.failed,
             ratio(tally.failed, tally.attempted),
             "; first: " + ", ".join(tally.notes) if tally.notes else ""))
    # BENCHMARK.json names the metrics and their units. A layer that does no
    # work on this workload reports 0; a missing end-to-end metric is a bug.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    values = layers if args.trace else timed_metrics
    if not args.trace and any(m["name"] not in values for m in spec):
        sys.stderr.write("error: a workload metric is missing\n")
        return 2
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in spec}
    if args.trace:
        print("trace: incremental.s %.6f s (the analyzer's incremental "
              "stage, 0 by construction without an incremental cache)"
              % layers.get("incremental.s", 0))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
