"""landau-sim benchmark: `landau run` and `landau diagnose` on fixed workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload trio48 --seed 0 --seconds 20 --trace 0

The program is driven in-process through `landau.io_cli.cli` from the
checkout's `src/`, as the test suite does.  With `--trace 0` the run
reports the end-to-end metrics; with `--trace 1` it reports the
per-layer metrics from a separate traced pass plus layer microbenchmarks.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Timings are in
reference seconds (hostspeed.py), which cancel the drift of the host's
speed; the wall seconds are printed beside them.  Every run, diagnose,
set-up probe and oracle check is one operation; the exit code is 1 when
any of them failed, 2 when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from hostspeed import Sampler, Timing, kernel_seconds, reference_seconds  # noqa: E402
from layertrace import Patcher  # noqa: E402
from setup_probe import first_step  # noqa: E402

# Cold-start probes per run: half before the measuring window, half after it.
SETUP_REPEATS = 9
# At most this many passes and diagnose rounds, so that a run attempts fewer
# than 200 operations and one failure moves `ok_share` past its 0.005 bound.
MAX_ROUNDS = 24
# The solver tests hold mass to this share of its initial value.
MASS_TOLERANCE = 1e-12
REPORT_SECTIONS = (
    "exponents", "e0", "c0", "ode_barrier", "moment_bounds", "smoothing_fit", "h1_smallness", "entropy_final",
)
MICROBENCH_REPEATS = {24: 15, 32: 11, 48: 7}
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


class Bench:
    """One workload in one process: its operations, checks and timings."""

    def __init__(self, workload: workloads.Workload, work: Path) -> None:
        from landau import io_cli

        self.io_cli = io_cli
        self.workload = workload
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.energy_drift = 0.0
        self.steps = 0
        self.steps_at_cap = 0
        self.tables: dict = {}  # label -> scalar table of the last pass's run
        self.sampling = True  # time operations with the host speed sampler
        kernel_seconds()  # the first call pays for FFT plans, not for host speed
        self.configs = {}
        for label, text in workload.configs.items():
            path = work / f"{label}.cfg"
            path.write_text(text)
            self.configs[label] = path

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def operation(self, what: str, body) -> object:
        """Run one operation; return its result, or None after recording its failure."""
        self.attempted += 1
        try:
            problem, result = body()
        except Exception:  # an operation that raises is a failed operation; keep measuring the rest
            problem, result = traceback.format_exc(limit=3), None
        if problem:
            self.fail(f"{what}: {problem}")
            return None
        return result

    # -- set-up -------------------------------------------------------------

    def setup_seconds(self, repeats: int) -> list[Timing]:
        config = next(iter(self.configs.values()))

        def probe():
            before = [kernel_seconds() for _ in range(3)]  # the probe itself samples only after its timed part
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), str(config)],
                capture_output=True, text=True, timeout=120, cwd=ROOT,
            )
            if proc.returncode != 0:
                return f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}", None
            elapsed, *after = (float(x) for x in proc.stdout.split())
            kernel = before + after
            return None, Timing(elapsed, reference_seconds(elapsed, kernel), len(kernel))

        samples = [self.operation("set-up probe", probe) for _ in range(repeats)]
        return [s for s in samples if s is not None]

    def warm_up(self) -> None:
        """Fill the per-grid caches the way a first step does, outside any timing."""
        for path in self.configs.values():
            first_step(path)

    # -- operations -----------------------------------------------------------

    def _timed_cli(self, argv: list[str], capture: str, keep) -> tuple[int, Timing, object]:
        """Time cli(argv) while `keep` records what io_cli.<capture> returned."""
        kept: list = []

        def make(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                kept.append(keep(result))
                return result

            return wrapper

        gc.collect()
        with Patcher() as patcher, contextlib.redirect_stdout(io.StringIO()):
            patcher.replace(self.io_cli, capture, make)
            if self.sampling:
                with Sampler() as timing:
                    code = self.io_cli.cli(argv)
            else:
                start = time.perf_counter()
                code = self.io_cli.cli(argv)
                elapsed = time.perf_counter() - start
                timing = Timing(elapsed, elapsed, 0)
        return code, timing, kept[0] if kept else None

    def run_op(self, label: str, out: Path) -> tuple[Timing, object] | None:
        from landau.solver import DT_CAP

        def body():
            shutil.rmtree(out, ignore_errors=True)
            code, timing, traj = self._timed_cli(
                ["run", "--config", str(self.configs[label]), "--out", str(out)],
                "run",
                lambda t: {"table": t.scalar_table().copy(), "aborted": t.aborted, "reason": t.abort_reason},
            )
            if code != 0 or traj is None or traj["aborted"]:
                return f"exit {code}, aborted: {traj and traj['reason']}", None
            table = traj["table"]
            mass, energy, dt = table[:, 2], table[:, 6], table[1:, 1]
            mass_drift = float(abs(mass - mass[0]).max()) / mass[0]
            if not mass_drift <= MASS_TOLERANCE:
                return f"mass drift {mass_drift:.2e} exceeds {MASS_TOLERANCE:.0e}", None
            self.energy_drift = max(self.energy_drift, abs(energy[-1] - energy[0]) / energy[0])
            self.steps += len(dt)
            self.steps_at_cap += int((dt == DT_CAP).sum())
            return None, (timing, table)

        return self.operation(f"run {label}", body)

    def diagnose_op(self, label: str, traj_dir: Path, table) -> Timing | None:
        out = traj_dir.with_name(traj_dir.name + "-report")

        def body():
            shutil.rmtree(out, ignore_errors=True)
            code, timing, read_table = self._timed_cli(
                ["diagnose", "--traj", str(traj_dir), "--out", str(out)],
                "read_trajectory",
                lambda t: t.scalar_table().copy(),
            )
            if code != 0:
                return f"exit {code}", None
            if read_table is None or read_table.shape != table.shape or read_table.tobytes() != table.tobytes():
                return "read_trajectory does not give back the in-memory scalar table bit-exactly", None
            report = json.loads((out / "report.json").read_text())
            missing = [key for key in REPORT_SECTIONS if key not in report]
            if missing:
                return f"report.json lacks sections {missing}", None
            return None, timing

        return self.operation(f"diagnose {label}", body)

    def one_pass(self, tracer=None) -> tuple[Timing | None, dict[str, Timing]]:
        """Run every config, then diagnose each trajectory once.

        Returns the summed run timing (None when a run failed, so that a
        failure cannot make a pass look faster) and the diagnose timing
        per config.
        """
        run: Timing | None = Timing()
        self.tables = {}
        for label in self.configs:
            with tracer.op("cli.run", f"{label}-run") if tracer else contextlib.nullcontext():
                result = self.run_op(label, self.work / label)
            if result is None:
                run = None
            else:
                if run is not None:
                    run = Timing(run.wall + result[0].wall, run.reference + result[0].reference,
                                 run.samples + result[0].samples)
                self.tables[label] = result[1]
        return run, self.diagnose_round(tracer)

    def diagnose_round(self, tracer=None) -> dict[str, Timing]:
        """Diagnose each trajectory of the last pass once; timing per config."""
        out = {}
        for label, table in self.tables.items():
            with tracer.op("cli.diagnose", f"{label}-diagnose") if tracer else contextlib.nullcontext():
                timing = self.diagnose_op(label, self.work / label, table)
            if timing is not None:
                out[label] = timing
        return out

    def oracle_checks(self) -> None:
        from microbench import ORACLE_TOLERANCE, SIZES, oracle_error

        for n in SIZES:
            def body():
                worst = oracle_error(n)
                if not worst <= ORACLE_TOLERANCE:
                    return f"worst relative error {worst:.2e} exceeds {ORACLE_TOLERANCE:.0e}", None
                return None, worst

            self.operation(f"oracle check n={n}", body)


def host_facts(seed: int) -> dict:
    import numpy

    facts = {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fft_backend": "pocketfft (numpy.fft; scipy.fft when used)",
        "threads": {var: os.environ.get(var) for var in THREAD_VARIABLES},
    }
    try:  # the version only: importing scipy here would add to the measured memory
        facts["scipy"] = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        facts["scipy"] = None
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        facts["blas"] = {key: deps[key].get("name") + " " + str(deps[key].get("version")) for key in ("blas", "lapack")}
    except (TypeError, KeyError, AttributeError):  # older NumPy has no dict mode
        facts["blas"] = None
    return facts


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def medians(timings: list[Timing]) -> tuple[float, float]:
    """Median reference seconds and median wall seconds."""
    if not timings:
        return float("nan"), float("nan")
    return statistics.median(t.reference for t in timings), statistics.median(t.wall for t in timings)


def end_to_end(bench: Bench, seconds: float) -> dict:
    setup = bench.setup_seconds(SETUP_REPEATS // 2 + 1)
    bench.warm_up()
    runs: list[Timing] = []
    diagnoses: dict[str, list[Timing]] = {label: [] for label in bench.configs}
    start = time.perf_counter()
    passes = 0
    while True:
        run, diagnosed = bench.one_pass()
        passes += 1
        if run is not None:
            runs.append(run)
        for label, timing in diagnosed.items():
            diagnoses[label].append(timing)
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds or passes == MAX_ROUNDS:
            break
    # The rest of the window goes to more diagnoses, so that a workload
    # whose one pass fills most of the window still gets many of them.
    rounds = passes
    while diagnosed and elapsed + sum(t.wall for t in diagnosed.values()) <= seconds and rounds < MAX_ROUNDS:
        diagnosed = bench.diagnose_round()
        rounds += 1
        for label, timing in diagnosed.items():
            diagnoses[label].append(timing)
        elapsed = time.perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += bench.setup_seconds(SETUP_REPEATS // 2)
    bench.oracle_checks()
    attempted = max(bench.attempted, 1)
    run_s = medians(runs)
    per_config = [medians(v) for v in diagnoses.values() if v]
    diagnose_s = (sum(m[0] for m in per_config), sum(m[1] for m in per_config))
    setup_s = medians(setup)
    print(f"{passes} pass(es) and {rounds} diagnose round(s) in {elapsed:.1f} s; per complete pass, "
          "run reference s [wall s, host speed samples]: "
          + " ".join(f"{r.reference:.3f} [{r.wall:.3f}, {r.samples}]" for r in runs))
    for name, (reference, wall) in (("setup_s", setup_s), ("run_s", run_s), ("diagnose_s", diagnose_s)):
        print(f"{name}: {reference:.4f} reference s, {wall:.4f} wall s (host at {wall / reference:.2f} x reference)")
    return {
        "setup_s": metric(setup_s[0], "s"),
        "run_s": metric(run_s[0], "s"),
        "diagnose_s": metric(diagnose_s[0], "s"),
        "energy_drift_rel": metric(bench.energy_drift, "ratio"),
        "peak_rss_mb": metric(peak_rss_mib, "MiB"),
        "ok_share": metric(1.0 - len(bench.failures) / attempted, "ratio"),
    }


def per_layer(bench: Bench, seed: int) -> dict:
    import microbench
    from layertrace import ANALYSIS_FUNCTIONS, Tracer, install_layers

    # Wall seconds only: the sampler's kernel would land in the spans and the FFT count.
    bench.sampling = False
    bench.warm_up()
    untraced_before, _ = bench.one_pass()
    bench.steps = bench.steps_at_cap = 0
    tracer = Tracer()
    with tracer:
        install_layers(tracer)
        traced, _ = bench.one_pass(tracer)
    traced_run_s = float("nan") if traced is None else traced.wall
    steps, steps_at_cap = bench.steps, bench.steps_at_cap
    totals = tracer.layer_totals()
    # Untraced passes on both sides of the traced one, so a drift in host speed cancels.
    untraced_after, _ = bench.one_pass()
    untraced = [t.wall for t in (untraced_before, untraced_after) if t is not None]
    untraced_run_s = sum(untraced) / len(untraced) if untraced else float("nan")

    out = {}

    def layer(name: str, calls: bool = True) -> None:
        count, self_s = totals.get(name, (0, 0.0))
        if calls:
            out[f"{name}.calls"] = metric(count, "count")
        out[f"{name}.self_s"] = metric(self_s, "s")

    cc_calls = totals.get("coefficients.compute_coefficients", (0, 0.0))[0]
    layer("coefficients.compute_coefficients")
    out["coefficients.fft_calls"] = metric(tracer.counts["coefficients.fft_calls"] / max(cc_calls, 1), "count")
    layer("grid.eigenvalues")
    out["solver.steps"] = metric(steps, "count")
    out["solver.steps_at_cap"] = metric(steps_at_cap, "count")
    layer("solver.rhs")
    layer("solver.run", calls=False)
    layer("solver.initial_datum", calls=False)
    layer("fields.recorder")
    layer("io_cli.write_trajectory", calls=False)
    out["io_cli.write_trajectory.bytes"] = metric(tracer.counts["io_cli.write_trajectory.bytes"], "B")
    for name in ("io_cli.read_trajectory", "io_cli.write_manifest", "io_cli.parse_config"):
        layer(name, calls=False)
    for fn in ANALYSIS_FUNCTIONS:
        layer(f"analysis.{fn}")

    quartiles = {}
    for n in microbench.SIZES:
        for name, samples in microbench.layers(n, MICROBENCH_REPEATS[n]).items():
            q1, q2, q3 = statistics.quantiles(samples, n=4)
            out[f"{name}.ms.n{n}"] = metric(q2, "ms")
            quartiles[f"{name}.ms.n{n}"] = {"q1": q1, "median": q2, "q3": q3, "samples": len(samples)}
    bench.oracle_checks()
    out["trace.overhead_rel"] = metric(traced_run_s / untraced_run_s, "ratio")

    eigen_s = totals.get("coefficients.compute_coefficients", (0, 0.0))[1] + totals.get("grid.eigenvalues", (0, 0.0))[1]
    eigen_share = eigen_s / traced_run_s
    print(f"coefficients + eigenvalues self time: {eigen_share:.1%} of traced run time {traced_run_s:.2f} s")
    for name, q in quartiles.items():
        print(f"  {name:48s} median {q['median']:9.3f} ms  quartiles [{q['q1']:.3f}, {q['q3']:.3f}]  ({q['samples']} samples)")
    trace_file = ROOT / ".bench_run" / "traces" / f"{bench.workload.name}-seed{seed}.json"
    tracer.write(trace_file, {"workload": bench.workload.name, "seed": seed, "microbench_ms": quartiles})
    print(f"spans written to {trace_file.relative_to(ROOT)}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measuring window for the passes and extra diagnoses")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "landau" / "__init__.py").is_file():
        print(f"error: no landau package under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    for var in THREAD_VARIABLES:  # BLAS/FFT threads at most one per core; set before numpy loads
        os.environ.setdefault(var, str(os.cpu_count() or 1))
    sys.path.insert(0, str(ROOT / "src"))

    workload = workloads.build(args.workload, args.seed)
    print("host " + json.dumps(host_facts(args.seed)))
    work = ROOT / ".bench_run" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(workload, work)
        metrics = per_layer(bench, args.seed) if args.trace else end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, m in metrics.items():
        print(f"{workload.name:20s} {name:48s} {m['value']:.6g} {m['unit']}")
    failed = len(bench.failures)
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
