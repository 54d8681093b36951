"""Run the untraced benchmark over several seeds and keep each result line.

Usage (from the root of a checkout):

    python3 perfbench/collect.py --out results --side change=. --side parent=../parent \\
        --seeds 1-10 [--workloads trio48,smoothing32_frozen]

Each side is a checkout with its own `perfbench/`; its runs go to
`<out>/<side>/<workload>/seed<k>.json`.  With two sides the order
alternates from seed to seed, so neither side always runs first.  The
run length is `run_seconds` from BENCHMARK.json, the same for every side.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_one(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}, "error": proc.stderr[-2000:]}
    result["exit_code"] = proc.returncode
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--side", action="append", required=True, help="NAME=CHECKOUT; give one or two")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(workloads.NAMES))
    args = parser.parse_args(argv)

    sides = [(name, Path(path).resolve()) for name, _, path in (s.partition("=") for s in args.side)]
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    status = 0
    for workload in args.workloads.split(","):
        for turn, seed in enumerate(seed_range(args.seeds)):
            order = sides if turn % 2 == 0 else sides[::-1]
            for name, checkout in order:
                result = run_one(checkout, workload, seed, seconds)
                target = args.out / name / workload / f"seed{seed}.json"
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(json.dumps(result) + "\n")
                status |= result["exit_code"] != 0
                summary = "  ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
                print(f"{name:8s} {workload:20s} seed {seed:3d} exit {result['exit_code']} {summary}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
