"""Output check: compare each command's outputs to references recorded at the
reference commit (5e5ba90, named in each references file).

Numbers are compared column by column: |run - reference| must stay within
RTOL times the largest magnitude in that reference column (or vector).
A rounding-only change moves these outputs far less than RTOL
(reassociating the final products of eval_P moves them by about 1e-16); a
wrong tensor entry, a dropped tuple or a changed coefficient moves them by far
more (scaling the cubic coefficient by 1.001 moves the effective final state
by 4e-5).  Integers, booleans and tuple counts must match exactly.

Statistical verdicts can miss by chance.  A verdict that is False in the
reference is an expected miss: it is reported, not counted as a failure, and
the command's expected exit code is then 3 (study criteria failed).  Any
verdict that differs from its reference is a failure.
"""

import json
import os

RTOL = 1e-8

# report tables checked per study kind
STUDY_TABLES = {"converge": ("deviation",),
                "stochastic": ("mean_actions", "var_actions")}


def _final_state(path):
    with open(path, "r", encoding="utf-8") as fh:
        last = None
        for line in fh:
            last = line
    row = json.loads(last)
    return {"re": row["re"], "im": row["im"]}


def observe(command, out_dir, table_doc=None):
    """The checked facts of one command's outputs, as a JSON-ready dict."""
    kind = command.argv[0]
    if kind == "resonances":
        counts = {}
        for entry in table_doc["resonances"]:
            key = ",".join(str(s) for s in entry["pattern"])
            counts[key] = counts.get(key, 0) + len(entry["tuples"])
        return {"tuples_per_pattern": counts}
    if kind in ("simulate", "effective"):
        return {"final_state": _final_state(os.path.join(out_dir, "trajectory.jsonl"))}
    if kind == "study":
        with open(os.path.join(out_dir, "report.json"), "r", encoding="utf-8") as fh:
            report = json.load(fh)
        return {"verdicts": report["verdicts"],
                "tables": {name: report["tables"][name]["rows"]
                           for name in STUDY_TABLES[command.argv[1]]}}
    return {}


def expected_exit_code(reference):
    verdicts = reference.get("verdicts", {})
    return 3 if any(v is False for v in verdicts.values()) else 0


def _compare_rows(name, rows, ref_rows, problems):
    if len(rows) != len(ref_rows) or any(len(r) != len(q) for r, q in zip(rows, ref_rows)):
        problems.append(f"{name}: shape differs from the reference")
        return
    for col in range(len(ref_rows[0]) if ref_rows else 0):
        ref_col = [r[col] for r in ref_rows]
        got_col = [r[col] for r in rows]
        if all(isinstance(v, int) for v in ref_col):  # ints and bools
            if got_col != ref_col:
                problems.append(f"{name}: column {col} differs from the reference")
            continue
        scale = max(abs(v) for v in ref_col)
        worst = max(abs(g - v) for g, v in zip(got_col, ref_col))
        if not worst <= RTOL * scale:
            problems.append(f"{name}: column {col} off by {worst:.3e} "
                            f"(allowed {RTOL * scale:.3e})")


def compare(observed, reference):
    """Return (problems, expected_misses) for one command."""
    problems, misses = [], []
    if "tuples_per_pattern" in reference:
        if observed.get("tuples_per_pattern") != reference["tuples_per_pattern"]:
            problems.append(f"tuple counts {observed.get('tuples_per_pattern')} "
                            f"!= reference {reference['tuples_per_pattern']}")
    if "final_state" in reference:
        ref, got = reference["final_state"], observed.get("final_state")
        _compare_rows("final_state",
                      [[complex(a, b)] for a, b in zip(got["re"], got["im"])],
                      [[complex(a, b)] for a, b in zip(ref["re"], ref["im"])],
                      problems)
    for name, ref_rows in reference.get("tables", {}).items():
        _compare_rows(name, observed["tables"][name], ref_rows, problems)
    for name, ref_verdict in reference.get("verdicts", {}).items():
        got = observed["verdicts"].get(name)
        if got != ref_verdict:
            problems.append(f"verdict {name}: {got} != reference {ref_verdict}")
        elif ref_verdict is False:
            misses.append(name)
    return problems, misses
