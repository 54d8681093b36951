"""Compare two result sets from collect.py, or report the spread of one.

Usage:

    python3 perfbench/compare.py results/parent results/change --claim trio48:run_s
    python3 perfbench/compare.py results/change            # spread of one set

One row per workload and end-to-end metric, with the bounds from
BENCHMARK.json.  Runs pair up by seed.  `gain` is how much better the
change's median is than the parent's; `paired` is the median over seeds
of the same comparison made within each seed pair, which is exact for a
metric that is fixed for a seed (`energy_drift_rel`).  A row reads:

- `better`: the change wins at least 9 in 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  spread;
- `regressed`: the change's median is worse than the parent's by more
  than the bound, or either side's spread exceeds the bound and every
  change run is worse than every parent run;
- `unresolved`: either side's quartile spread, as a share of its median,
  exceeds the bound, and the runs of the two sides overlap;
- `same` otherwise.

The exit code is 1 when a row regressed or the change failed more
operations than the parent.  Without a claim it is otherwise 2 when a
row is unresolved and 0 when none is.  A claim `workload:metric` is met
when its row reads `better`, no row regressed or is unresolved, and the
change failed no more operations than the parent; the exit code is 0
when it is met, else 1.  The spread of one set exits 1 when any spread
exceeds its bound or any operation failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def load(directory: Path) -> dict[str, dict[str, dict]]:
    """workload -> seed file name -> result."""
    out: dict[str, dict[str, dict]] = {}
    for path in sorted(directory.glob("*/seed*.json")):
        out.setdefault(path.parent.name, {})[path.name] = json.loads(path.read_text())
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values(runs: dict[str, dict], metric: str) -> dict[str, float]:
    return {seed: r["metrics"][metric]["value"] for seed, r in runs.items() if metric in r.get("metrics", {})}


def spread_report(results: dict, metrics: list[dict]) -> int:
    print(f"{'workload':20s} {'metric':18s} {'runs':>4s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}  status")
    status = 0
    for workload, runs in results.items():
        for spec in metrics:
            vals = list(values(runs, spec["name"]).values())
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "steady" if spread <= spec["bound"] / 3 else "within bound" if spread <= spec["bound"] else "too wide"
            status |= verdict == "too wide"
            print(f"{workload:20s} {spec['name']:18s} {len(vals):4d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.2%} {spec['bound']:6.1%}  {verdict}")
    failed = sum(r.get("failed", 1) for runs in results.values() for r in runs.values())
    print(f"failed operations: {failed}")
    return status or int(failed > 0)


def compare_row(parent: dict[str, float], change: dict[str, float], spec: dict) -> dict:
    sign = 1.0 if spec["better"] == "lower" else -1.0  # sign * (change - parent) > 0 means worse
    p1, pm, p3 = quartiles(list(parent.values()))
    c1, cm, c3 = quartiles(list(change.values()))
    pairs = [(parent[s], change[s]) for s in parent.keys() & change.keys()]
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    won = wins / len(pairs) if pairs else 0.0
    worse_by = sign * (cm - pm) / abs(pm) if pm else 0.0
    ratios = [sign * (c - p) / abs(p) for p, c in pairs if p]
    paired = statistics.median(ratios) if ratios else None
    all_better = all(sign * (c - p) < 0 for c in change.values() for p in parent.values())
    all_worse = all(sign * (c - p) > 0 for c in change.values() for p in parent.values())
    p_spread = (p3 - p1) / abs(pm) if pm else 0.0
    c_spread = (c3 - c1) / abs(cm) if cm else 0.0
    wide = max(p_spread, c_spread) > spec["bound"]
    if won >= 0.9 and abs(cm - pm) > (p3 - p1) and sign * (cm - pm) < 0:
        verdict = "better"
    elif worse_by > spec["bound"] or (wide and all_worse):
        verdict = "regressed"
    elif wide and not all_better:
        verdict = "unresolved"
    else:
        verdict = "same"
    return {"parent": (pm, p1, p3), "change": (cm, c1, c3), "won": won, "pairs": len(pairs),
            "worse_by": worse_by, "paired": paired, "verdict": verdict}


def compare_report(parent: dict, change: dict, metrics: list[dict], claim: str | None) -> int:
    print(f"{'workload':20s} {'metric':18s} {'parent median [q1, q3]':>36s} {'change median [q1, q3]':>36s} "
          f"{'gain':>8s} {'paired':>8s} {'won':>9s}  verdict")
    rows = {}
    for workload in sorted(parent.keys() & change.keys()):
        for spec in metrics:
            p, c = values(parent[workload], spec["name"]), values(change[workload], spec["name"])
            if not p or not c:
                continue
            row = rows[f"{workload}:{spec['name']}"] = compare_row(p, c, spec)
            fmt = "{:.5g} [{:.5g}, {:.5g}]"
            paired = "n/a" if row["paired"] is None else f"{-row['paired']:+.2%}"
            print(f"{workload:20s} {spec['name']:18s} {fmt.format(*row['parent']):>36s} {fmt.format(*row['change']):>36s} "
                  f"{-row['worse_by']:+8.2%} {paired:>8s} {row['won']:5.0%} of {row['pairs']}  {row['verdict']}")
    failed = {side: sum(r.get("failed", 1) for runs in res.values() for r in runs.values())
              for side, res in (("parent", parent), ("change", change))}
    print(f"failed operations: parent {failed['parent']}, change {failed['change']}")
    regressed = [key for key, row in rows.items() if row["verdict"] == "regressed"]
    unresolved = [key for key, row in rows.items() if row["verdict"] == "unresolved"]
    more_failed = failed["change"] > failed["parent"]
    if regressed:
        print("regressed: " + ", ".join(regressed))
    if more_failed:
        print("regressed: the change failed more operations than the parent")
    if unresolved:
        print("unresolved (spread wider than the bound, a regression is not ruled out): " + ", ".join(unresolved))
    if claim is None:
        return 1 if regressed or more_failed else 2 if unresolved else 0
    reasons = []
    if claim not in rows:
        reasons.append(f"no row {claim}")
    elif rows[claim]["verdict"] != "better":
        reasons.append(f"{claim} reads '{rows[claim]['verdict']}'")
    if regressed:
        reasons.append("rows regressed")
    if unresolved and unresolved != [claim]:
        reasons.append("other rows are unresolved")
    if more_failed:
        reasons.append("the change failed more operations")
    print(f"claim {claim}: " + ("met" if not reasons else "not met (" + "; ".join(reasons) + ")"))
    return int(bool(reasons))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="result set of the parent (or the only set)")
    parser.add_argument("change", type=Path, nargs="?", help="result set of the change")
    parser.add_argument("--claim", help="workload:metric the change claims to improve")
    args = parser.parse_args(argv)

    if args.change is None:
        return spread_report(load(args.parent), METRICS)
    return compare_report(load(args.parent), load(args.change), METRICS, args.claim)


if __name__ == "__main__":
    sys.exit(main())
