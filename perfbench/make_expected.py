"""Regenerates perfbench/expected.json: the verdict of every program the
benchmark can generate (the 28 Table 1 programs and every edit in
gen.all_edits), each from a plain cold analysis.

    python3 perfbench/make_expected.py

Each entry holds the `serializable` flag, every violation's sorted
transaction-name set and the deterministic counts the benchmark compares
exactly (smt_queries, layouts_filtered, unfoldings_checked,
unfoldings_subsumed, ssg_edges, violation totals). The script then prints
what needs a human look before the file is committed:

  * for each Table 1 program, the E/H/F split of its violations under the
    app's classification rules (bench/apps), next to the paper's row;
  * every edit whose verdict is not what the edit predicts. A rename must
    map exactly onto the original verdict under the new name. A body edit
    repeats a non-displayed read inside one atomic transaction, so it must
    keep the verdict too; if it does not, the entry is listed with the
    violations it lost and gained.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import gen  # noqa: E402
import run  # noqa: E402


def classify(app, txns):
    for rule in app["rules"]:
        if set(rule["txns"]) <= set(txns):
            return rule["class"]
    return "H"


def main():
    run.build()
    work = os.path.join(run.ROOT, ".bench_work", "expected")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    apps = run.dump_corpus(os.path.join(work, "corpus"))
    programs = [("original:%02d" % a["index"], a,
                 os.path.join(work, "corpus", a["file"])) for a in apps]
    edits_dir = os.path.join(work, "edits")
    os.makedirs(edits_dir)
    for app, txn, kind in gen.all_edits(apps):
        programs.append((gen.edit_id(app, txn, kind), app,
                         gen.write_edit(app, txn, kind, edits_dir)))
    ops = [{"op": "cold", "file": path} for _, _, path in programs]
    results, _ = run.probe_plan(ops, os.path.join(work, "verdicts"),
                                threads=4)
    out = {}
    for (key, app, _), res in zip(programs, results):
        if not res.get("ok"):
            sys.exit("error: %s: %s" % (key, res.get("error")))
        out[key] = {"app": app["name"], "serializable": res["serializable"],
                    "violations": run.normalize_sets(res["violations"]),
                    "counts": res["counts"]}

    for app in apps:
        orig = out["original:%02d" % app["index"]]
        ehf = [0, 0, 0]
        for v in orig["violations"]:
            ehf["EHF".index(classify(app, v))] += 1
        print("%-18s E/H/F %s  paper %s" % (app["name"], ehf,
                                           app["paper_ehf"]))
    for key, entry in sorted(out.items()):
        if key.startswith("original:"):
            continue
        index, txn, kind = key.split(":")
        orig = out["original:" + index]
        got = entry["violations"]
        if kind == "rename":
            want = run.normalize_sets(
                [[txn + gen.RENAME_SUFFIX if t == txn else t for t in v]
                 for v in orig["violations"]])
            if (entry["serializable"], got) != (orig["serializable"], want):
                print("REVIEW rename %s: %s -> %s" % (key, want, got))
            continue
        # A body edit repeats a read the transaction already makes.
        if (entry["serializable"], got) != (orig["serializable"],
                                            orig["violations"]):
            print("REVIEW body %s: lost %s, gained %s" % (
                key, [v for v in orig["violations"] if v not in got],
                [v for v in got if v not in orig["violations"]]))
    with open(os.path.join(HERE, "expected.json"), "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
