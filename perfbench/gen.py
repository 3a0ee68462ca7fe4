"""Seeded input generator of the C4 benchmark.

The corpus is the 28 Table 1 programs, written out by `c4-perfprobe dump`.
An *edit* is a triple (app, transaction, kind) applied to one program:

  rename  the transaction gets a new name; every transaction content digest
          stays the same, so the incremental layer replays everything;
  body    the first top-level, non-displayed query of the transaction is
          issued a second time into a fresh variable (one statement), which
          changes exactly that transaction's digest.

The edit space is finite and enumerable (`all_edits`), so every edit a seed
can draw has an entry in expected.json. The workloads in run.py draw from it
with a private `random.Random(seed)`, so the same seed gives the same inputs.
"""

import json
import os
import re

RENAME_SUFFIX = "_rn"

# Apps whose --incremental-cache fill alone takes 9-22 s on a 4-core box
# (66 s together, against ~19 s for the other 24), and whose cold analysis
# takes 2-9 s. Neither their edits nor their warm-up fit a run of warm-edit
# or serve-mix; they are measured in cold-corpus.
FILL_HEAVY = ("Super Chat", "Cloud Card", "Relatd", "killrchat")
CONTAINER_RE = re.compile(r"^\s*container\s+\w+\s+(\w+)\s*;", re.M)


def load_corpus(corpus_dir):
    """Returns the app manifest with each entry's source text attached."""
    with open(os.path.join(corpus_dir, "apps.json")) as f:
        apps = json.load(f)
    for app in apps:
        with open(os.path.join(corpus_dir, app["file"])) as f:
            app["source"] = f.read()
    return apps


def _txn_body(src, txn):
    """(start, end) of the text between the braces of `txn <name>(...)`."""
    m = re.search(r"\btxn\s+%s\s*\(" % re.escape(txn), src)
    if not m:
        raise ValueError("no transaction %r" % txn)
    open_brace = src.index("{", m.end())
    depth = 0
    for i in range(open_brace, len(src)):
        if src[i] == "{":
            depth += 1
        elif src[i] == "}":
            depth -= 1
            if depth == 0:
                return open_brace + 1, i
    raise ValueError("unbalanced transaction %r" % txn)


def rename_edit(src, txn):
    new = txn + RENAME_SUFFIX
    out = re.sub(r"\btxn\s+%s\s*\(" % re.escape(txn), "txn %s(" % new, src)
    # Session-order declarations name transactions too.
    out = re.sub(r"^(\s*order\b.*)$",
                 lambda m: re.sub(r"\b%s\b" % re.escape(txn), new, m.group(1)),
                 out, flags=re.M)
    return out


def body_edit(src, txn):
    """Inserts a second copy of the first top-level query whose result is
    not displayed, bound to a new name, right after it: one new statement
    in one transaction. The twin reads the same state inside the same
    atomic transaction, so the verdict should not move; only the work
    does. Returns None when the body has no such query."""
    containers = set(CONTAINER_RE.findall(src))
    start, end = _txn_body(src, txn)
    body = src[start:end]
    displayed = set(re.findall(r"\bdisplay\s*\(\s*(\w+)\s*\)", body))
    query = re.compile(r"let\s+(\w+)\s*=\s*((\w+)\.\w+\([^;{}]*\))\s*;")
    depth = 0
    for i, c in enumerate(body):
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
        elif depth == 0 and c == "l":
            m = query.match(body, i)
            prev = body[:i].rstrip()
            if (m and (not prev or prev[-1] in ";{}")
                    and m.group(3) in containers
                    and m.group(1) not in displayed):
                stmt = " let %s_ed = %s;" % (m.group(1), m.group(2))
                pos = start + m.end()
                return src[:pos] + stmt + src[pos:]
    return None


def apply_edit(app, txn, kind):
    if kind == "rename":
        return rename_edit(app["source"], txn)
    if kind == "body":
        return body_edit(app["source"], txn)
    raise ValueError(kind)


def edit_id(app, txn, kind):
    return "%02d:%s:%s" % (app["index"], txn, kind)


def edit_apps(apps):
    return [a for a in apps if a["name"] not in FILL_HEAVY]


def all_edits(apps):
    """Every (app, txn, kind) the generator can produce, in a fixed order."""
    out = []
    for app in edit_apps(apps):
        for txn in app["txns"]:
            out.append((app, txn, "rename"))
            if body_edit(app["source"], txn) is not None:
                out.append((app, txn, "body"))
    return out


def write_edit(app, txn, kind, out_dir):
    path = os.path.join(out_dir, "%02d_%s_%s.c4l" % (app["index"], txn, kind))
    with open(path, "w") as f:
        f.write(apply_edit(app, txn, kind))
    return path
