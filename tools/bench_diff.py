"""The rows of two tools/bench_sweep.py files whose answers or ADMM solves differ.

    python3 tools/bench_diff.py OLD NEW

A row is one (case, n).  One line is printed for each field that differs
between the files: the weight hash, the ADMM (iterations, polished)
pairs, or the error of a case that raised; one for each row whose KKT
residual passes its gate in OLD but not in NEW, whether or not its hash
moved; and one for each row found in one file only.  Wall times are not
compared, since they do not repeat from run to run.  A summary line
follows.  The exit status is 1 when any row differs and 0 otherwise.
"""

import argparse
import json
import sys

FIELDS = {"weights_sha256": "weights", "admm": "ADMM solves", "error": "error"}


def rows(path):
    """{(case, n): row} of one sweep file, in the file's order."""
    with open(path) as f:
        return {(row["case"], row["n"]): row for row in json.load(f)["cases"]}


def passes(row):
    """Whether a row's KKT residual is recorded and within its gate."""
    residual = row.get("kkt_residual")
    return residual is not None and residual <= row["kkt_gate"]


def diff(old, new):
    """The lines that report where two files' rows differ, the summary line last."""
    lines, differ = [], dict.fromkeys(FIELDS.values(), 0)
    only = {"OLD": 0, "NEW": 0}
    for key in [*old, *(key for key in new if key not in old)]:
        name = f"{key[0]} n={key[1]}"
        if key not in old or key not in new:
            side = "OLD" if key in old else "NEW"
            only[side] += 1
            lines.append(f"{name}: only in {side}")
            continue
        for field, label in FIELDS.items():
            if old[key].get(field) != new[key].get(field):
                differ[label] += 1
                lines.append(f"{name}: {label} {old[key].get(field)} -> {new[key].get(field)}")
        if passes(old[key]) and not passes(new[key]):
            lines.append(f"{name}: KKT residual {old[key]['kkt_residual']} passes its gate "
                         f"{old[key]['kkt_gate']} in OLD, {new[key].get('kkt_residual')} "
                         f"fails it in NEW")
    counts = ", ".join(f"{count} differ in {label}" for label, count in differ.items())
    lines.append(f"{len(old.keys() & new.keys())} rows in both files: {counts}; "
                 f"{only['OLD']} only in OLD, {only['NEW']} only in NEW")
    return lines


def main(argv):
    parser = argparse.ArgumentParser(description="Rows of two sweep files that differ.")
    parser.add_argument("old", help="the earlier BENCH_*.json")
    parser.add_argument("new", help="the later BENCH_*.json")
    args = parser.parse_args(argv)
    lines = diff(rows(args.old), rows(args.new))
    print("\n".join(lines))
    return 1 if len(lines) > 1 else 0


if __name__ == "__main__":
    sys.exit(main(None))
