"""Configuration parsing, trajectory persistence, reports, and the CLI.

Config files are flat ``key = value`` text with ``#`` comments; unknown
keys are errors, never silently defaulted.  The keys are read off the
fields of `SimConfig` and of the datum classes, which check the values.
A trajectory persists as three files: a scalar CSV (full-precision
reprs, so the round trip is bit-exact), one raw little-endian float64
file holding every snapshot back to back (row-major, first velocity
axis slowest), and a JSON index of the grid, the exponents, the
snapshot times and the abort reason, removed first and written last,
atomically.  A run manifest is written atomically at the end of every
run, the fourth file of a run directory.
A diagnose removes the older report before it reads anything and writes
the one `report.json` last, atomically.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from . import analysis
from .fields import boltzmann_entropy, maxwellian
from .grid import Field, make_grid
from .solver import SCALAR_COLUMNS, InitialDatum, PerturbedMaxwellian, SimConfig, Trajectory, run

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "ConfigError",
    "RunManifest",
    "parse_config",
    "config_to_text",
    "write_trajectory",
    "read_trajectory",
    "write_manifest",
    "execute_run",
    "cli",
    "main",
]

# max_t ||h||_inf / max mu at or below this marks an equilibrium run, whose
# h = f - mu is roundoff (1.8e-13 at n = 48); the perturbed data in use
# sit at 5e-2 and above
ROUNDOFF_PERTURBATION = 1e-10


class ConfigError(ValueError):
    pass


class _Key(NamedTuple):
    """A config key: the field it fills, its type, and its datum family (None for `SimConfig`'s)."""

    field: str
    type: type
    family: str | None
    required: bool


# Datum classes by their `kind`, the value of the `initial` key.
_DATA: dict[str, type] = {cls.kind: cls for cls in get_args(InitialDatum)}
# The config keys named otherwise than the field they fill.
_RENAMED = {"extent": "L", "temperatures": "theta"}


def _key_table() -> dict[str, _Key]:
    """Config key -> _Key, read off the fields of SimConfig and of each datum class.

    `initial` selects the datum class; a datum's `kind` is not a key.
    """
    table = {}
    for cls in (SimConfig, *_DATA.values()):
        family = None if cls is SimConfig else cls.kind
        hints = get_type_hints(cls)
        for spec in dataclasses.fields(cls):
            if spec.name not in ("initial", "kind"):
                hint = hints[spec.name]
                required = spec.default is dataclasses.MISSING
                key = _RENAMED.get(spec.name, spec.name)
                table[key] = _Key(spec.name, get_origin(hint) or hint, family, required)
    return table


_KEYS = _key_table()


def _parse_value(key: str, raw: str):
    kind = _KEYS[key].type
    try:
        if kind is tuple:
            return tuple(float(part) for part in raw.split(","))
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"key '{key}' expects a {kind.__name__}, got '{raw}'") from exc


def _format_value(key: str, value) -> str:
    """`value` as `_parse_value` reads it back; NumPy scalars are written as Python numbers."""
    kind = _KEYS[key].type
    if kind is tuple:
        return ", ".join(repr(float(x)) for x in value)
    return repr(kind(value))


def parse_config(path: str | Path) -> SimConfig:
    """Read a flat key-value run configuration; the dataclasses check the values."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    entries: dict[str, object] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got '{line.strip()}'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key != "initial" and key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        entries[key] = raw if key == "initial" else _parse_value(key, raw)

    family = entries.pop("initial", SimConfig.initial.kind)
    if family not in _DATA:
        raise ConfigError(f"initial must be one of {tuple(_DATA)}, got '{family}'")
    fields: dict[str | None, dict[str, object]] = {None: {}, family: {}}
    for key, value in entries.items():
        spec = _KEYS[key]
        if spec.family not in fields:
            raise ConfigError(f"key '{key}' is only valid with initial = {spec.family}")
        fields[spec.family][spec.field] = value
    for key, spec in _KEYS.items():
        if spec.family == family and spec.required and spec.field not in fields[family]:
            raise ConfigError(f"initial = {family} requires '{key}'")

    try:
        return SimConfig(initial=_DATA[family](**fields[family]), **fields[None])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_to_text(config: SimConfig) -> str:
    """Serialize a SimConfig back to the flat key-value format."""
    datum = config.initial
    lines = [f"initial = {datum.kind}"]
    for key, spec in _KEYS.items():
        if spec.family in (None, datum.kind):
            value = getattr(config if spec.family is None else datum, spec.field)
            lines.append(f"{key} = {_format_value(key, value)}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# trajectory persistence


def _replace_text(target: Path, text: str) -> None:
    """Atomic write: `target` appears complete or not at all."""
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, target)


# The keys of `traj.json` and the exact JSON types each takes (so true is no number)
_NUMBER = (int, float)
_INDEX_TYPES = {"n": (int,), "L": _NUMBER, "p": _NUMBER, "m": _NUMBER, "snapshot_times": (list,),
                "abort_reason": (str, type(None))}


def write_trajectory(traj: Trajectory, directory: str | Path) -> None:
    """Persist the scalars (CSV), the snapshots (one raw f64 file) and the index.

    The index `traj.json` is removed first and replaced atomically last,
    so a write cut short leaves no index, and readers reject the
    directory instead of mixing the files of two runs.  The snapshots
    are streamed into `snapshots.f64` one by one, never stacked.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "traj.json").unlink(missing_ok=True)

    rows = [",".join(map(repr, row)) for row in traj.scalar_table().tolist()]  # reprs read back bit-exactly
    (directory / "scalars.csv").write_text("\n".join([",".join(SCALAR_COLUMNS), *rows]) + "\n")
    with open(directory / "snapshots.f64", "wb") as fh:
        for snap in traj.snapshots:
            snap.values.astype("<f8", copy=False).tofile(fh)

    index = {"n": traj.grid.n, "L": traj.grid.extent, "snapshot_times": [float(t) for t in traj.snapshot_times]}
    index |= {key: getattr(traj, key) for key in _INDEX_TYPES if key not in index}
    _replace_text(directory / "traj.json", json.dumps(index, indent=2) + "\n")


def _read_index(path: Path) -> dict:
    """`traj.json`, each key of `_INDEX_TYPES` present, of its type, and at least one snapshot."""
    index = json.loads(path.read_text())
    for key, kinds in _INDEX_TYPES.items():
        if not isinstance(index, dict) or key not in index:
            raise ValueError(f"{path}: missing key '{key}'")
        if type(index[key]) not in kinds or key == "snapshot_times" and any(type(t) not in _NUMBER for t in index[key]):
            raise ValueError(f"{path}: key '{key}' is not of type {' or '.join(k.__name__ for k in kinds)}")
    if not index["snapshot_times"]:
        raise ValueError(f"{path}: 0 snapshots; a run stores at least t = 0")
    return index


def read_trajectory(directory: str | Path) -> Trajectory:
    """Load the `traj.json`, `scalars.csv` and `snapshots.f64` that `write_trajectory` left.

    The k = len(snapshot_times) snapshots are read as one (k, n, n, n)
    array and handed out as views.  A missing or mistyped index key, a
    torn or non-numeric table or a snapshot file of the wrong size raises
    ValueError naming the file.
    """
    directory = Path(directory)
    index = _read_index(directory / "traj.json")
    grid = make_grid(index["n"], index["L"])
    snapshot_times = [float(t) for t in index["snapshot_times"]]

    scalars = directory / "scalars.csv"
    lines = scalars.read_text().splitlines()
    if not lines or lines[0] != ",".join(SCALAR_COLUMNS):
        raise ValueError(f"unexpected scalar header in {scalars}")
    rows = [line.split(",") for line in lines[1:]]
    if not rows or any(len(row) != len(SCALAR_COLUMNS) for row in rows):
        raise ValueError(f"{scalars}: expected at least one row of {len(SCALAR_COLUMNS)} values")
    try:
        table = np.array(rows, dtype=float)
    except ValueError as exc:
        raise ValueError(f"{scalars}: {exc}") from None

    path = directory / "snapshots.f64"
    raw = np.fromfile(path, dtype="<f8")
    expected = len(snapshot_times) * grid.n**3
    if raw.size != expected:
        raise ValueError(f"{path}: {raw.size} samples, expected {expected} ({len(snapshot_times)} snapshots of n = {grid.n})")
    snapshots = [Field(grid, values) for values in raw.reshape(len(snapshot_times), *grid.shape)]

    # the other keys are `Trajectory` fields of the same name
    rest = {key: index[key] for key in _INDEX_TYPES if key not in ("n", "L", "snapshot_times")}
    return Trajectory(grid=grid, table=table, snapshot_times=snapshot_times, snapshots=snapshots, **rest)


@dataclass
class RunManifest:
    config_text: str
    version: str
    libraries: dict[str, str]
    started: float
    finished: float
    outputs: list[str]


def _library_versions() -> dict[str, str]:
    """numpy's version and the name and version of the BLAS it calls, which sets
    how fast the coefficient transforms run."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"}


def write_manifest(manifest: RunManifest, directory: str | Path) -> None:
    """Atomic write: the manifest appears complete or not at all."""
    _replace_text(Path(directory) / "run_manifest.json", json.dumps(dataclasses.asdict(manifest), indent=2) + "\n")


def execute_run(config: SimConfig, out: Path) -> Trajectory:
    """Integrate `config`, persist the trajectory in `out`, then write its manifest."""
    started = time.time()
    traj = run(config)
    write_trajectory(traj, out)
    write_manifest(
        RunManifest(
            config_text=config_to_text(config),
            version=__version__,
            libraries=_library_versions(),
            started=started,
            finished=time.time(),
            outputs=sorted({p.name for p in out.iterdir()} | {"run_manifest.json"}),
        ),
        out,
    )
    return traj


# --------------------------------------------------------------------------
# subcommands


def _cmd_run(args: argparse.Namespace) -> int:
    config = parse_config(args.config)
    out = Path(args.out)
    traj = execute_run(config, out)
    status = f"aborted at t={traj.abort_time:.4f}: {traj.abort_reason}" if traj.aborted else "completed"
    print(f"run {status}; {len(traj.times) - 1} steps, {len(traj.snapshots)} snapshots -> {out}")
    return 0 if not traj.aborted else 1


def _cmd_exponents(args: argparse.Namespace) -> int:
    exps = analysis.exponents(args.p, args.m)
    payload = dataclasses.asdict(exps)
    payload["degenerate"] = exps.degenerate
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    directory, out = Path(args.traj), Path(args.out)
    # an older report must not survive a diagnose that fails, however early
    (out / "report.json").unlink(missing_ok=True)
    if not (directory / "traj.json").is_file():
        print(f"error: no trajectory at {directory}", file=sys.stderr)
        return 2
    traj = read_trajectory(directory)
    out.mkdir(parents=True, exist_ok=True)
    p, m = traj.p, traj.m
    # every value below is read off the trajectory
    t_end = float(traj.times[-1])
    t_mid = 0.25 * t_end
    c0 = float(np.min(traj.c0))
    exps = analysis.exponents(p, m)
    sup_h = float(np.max(traj.linf_h))
    relative_h = sup_h / maxwellian(traj.grid).max_abs()

    report: dict[str, object] = {
        "p": p,
        "m": m,
        "exponents": dataclasses.asdict(exps),
        "e0": analysis.energy_E0(traj, (0.0, t_end)),
        "c0": c0,
        # at roundoff every perturbation quantity in the report is a noise-floor value
        "perturbation": {
            "linf_h_max": sup_h,
            "relative_to_equilibrium": relative_h,
            "at_roundoff": relative_h <= ROUNDOFF_PERTURBATION,
        },
    }

    y0 = float(traj.lp_p[0])
    eps = max(4.0 * y0, 1e-12)
    barrier = analysis.ode_barrier_check(traj, eps)
    report["ode_barrier"] = dataclasses.asdict(barrier)

    ladder = [frac * sup_h for frac in (0.0, 0.125, 0.25, 0.5, 0.75, 0.9)] if sup_h > 0.0 else []
    report["levels"] = [dataclasses.asdict(analysis.level_set_energy(traj, lev, (0.0, t_end), c0)) for lev in ladder]

    if not exps.degenerate and t_end > 0.0:
        # one probe per consecutive pair of ladder levels; each reads only cuts the ladder measured
        report["recurrence"] = [
            dataclasses.asdict(analysis.level_set_recurrence_check(traj, k, level, 0.0, t_mid, t_end, c0))
            for k, level in zip(ladder, ladder[1:])
        ]
        e0 = analysis.level_set_energy(traj, 0.0, (0.0, t_end), c0).total
        K = analysis.predict_K(e0, t_mid, t_end, p, m, 1.0)  # c = 1 until the ceiling is measured on the run
        if K > 0:
            report["degiorgi"] = dataclasses.asdict(analysis.degiorgi_iterate(traj, K, t_mid, t_end, c0))

    if m > 9.5:
        report["moment_bounds"] = [
            dataclasses.asdict(analysis.moment_bound_check(traj, theta)) for theta in (0.0, 2.0, 4.0)
        ]

    try:
        fit = analysis.smoothing_fit(traj)
        report["smoothing_fit"] = dataclasses.asdict(fit)
    except ValueError as exc:
        report["smoothing_fit"] = {"skipped": str(exc)}

    h1 = analysis.h1_smallness(traj, 0.5 * t_end)
    report["h1_smallness"] = {"l2_1": h1[0], "grad_l2_2": h1[1], "t_query": 0.5 * t_end}

    # both entropy conventions for the positive part of the final state: the
    # signed f log f, which the run recorder wrote as the last row, and f |log f|
    final = traj.snapshots[-1]
    report["entropy_final"] = {
        "time": traj.snapshot_times[-1],
        "signed": float(traj.entropy[-1]),
        "absolute": boltzmann_entropy(Field(final.grid, np.maximum(final.values, 0.0)), absolute=True),
    }

    _replace_text(out / "report.json", json.dumps(report, indent=2, default=float) + "\n")
    print(f"diagnostics written to {out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_verification

    results = run_verification(n=args.n)
    failed = 0
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _sweep_worker(job: tuple[SimConfig, str]) -> tuple[str, bool]:
    """Run one sweep member and return its report line and success; never raises."""
    config, out_dir = job
    try:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.cfg").write_text(config_to_text(config))  # lets the member be re-run
        traj = execute_run(config, out)
    except Exception as exc:  # one bad member must not sink the sweep
        traceback.print_exc()
        return f"[FAILED] {out_dir}: {exc}", False
    return f"[{'ABORTED' if traj.aborted else 'ok'}] {out_dir}", not traj.aborted


# The thread counts of the BLAS libraries numpy may call, read once as numpy loads
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def _sweep_pool(workers: int) -> Iterator[ProcessPoolExecutor]:
    """A pool of `workers` processes that share the cores' BLAS threads.

    Left alone, each worker's BLAS starts a thread per core, and the
    pool oversubscribes the cores `workers` times over (forked workers
    ran an 8-member sweep 2 to 20 times slower on 2 cores).  The workers
    are spawned, not forked, so each loads numpy afresh under
    cores // workers threads, set while the workers start and restored
    afterwards.  The pool's modules load here, so that no other command
    pays for them.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
    saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARIABLES}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARIABLES, str(max(1, (os.cpu_count() or 1) // workers))))
    try:
        with pool:
            yield pool
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def _cmd_sweep(args: argparse.Namespace) -> int:
    from concurrent.futures import BrokenExecutor

    base = parse_config(args.config)
    amplitudes = [float(x) for x in args.amplitudes.split(",")] if args.amplitudes else [None]
    ns = [int(x) for x in args.ns.split(",")] if args.ns else [base.n]
    ps = [float(x) for x in args.ps.split(",")] if args.ps else [base.p]
    if amplitudes != [None] and not isinstance(base.initial, PerturbedMaxwellian):
        print("error: --amplitudes requires a perturbed_maxwellian base config", file=sys.stderr)
        return 2

    jobs = []
    for amp in amplitudes:
        for n in ns:
            for p in ps:
                initial = base.initial if amp is None else PerturbedMaxwellian(amp, base.initial.mode)
                cfg = dataclasses.replace(base, initial=initial, n=n, p=p)
                tag = f"amp{amp if amp is not None else 'base'}_n{n}_p{p}"
                jobs.append((cfg, str(Path(args.out) / tag)))
    dirs = [out_dir for _, out_dir in jobs]
    if len(set(dirs)) < len(dirs):  # equal values, such as --ps 2,2.0, name one directory
        shared = next(out_dir for out_dir in dirs if dirs.count(out_dir) > 1)
        print(f"error: sweep members would run at once into {shared}", file=sys.stderr)
        return 2

    failures = 0
    with _sweep_pool(min(args.workers if args.workers is not None else os.cpu_count() or 1, len(jobs))) as pool:
        for job, future in [(job, pool.submit(_sweep_worker, job)) for job in jobs]:
            try:
                line, ok = future.result()
            except BrokenExecutor:
                line, ok = _sweep_alone(job)
            print(line, flush=True)
            failures += 0 if ok else 1
    return 0 if failures == 0 else 1


def _sweep_alone(job: tuple[SimConfig, str]) -> tuple[str, bool]:
    """Rerun a member that a dead worker took down with the pool, in a pool
    of its own, so that only the member whose worker dies is reported."""
    from concurrent.futures import BrokenExecutor

    with _sweep_pool(1) as pool:
        try:
            return pool.submit(_sweep_worker, job).result()
        except BrokenExecutor:
            return f"[FAILED] {job[1]}: worker process died", False


def _finite_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got '{raw}'")
    return value


def cli(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="landau",
        description="Velocity-space Landau-Coulomb simulator and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a configured problem and persist the trajectory")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=_cmd_run)

    # unabbreviated: `--t` would otherwise be read as `--traj`
    p_diag = sub.add_parser("diagnose", allow_abbrev=False, help="emit analysis reports for a stored trajectory")
    p_diag.add_argument("--traj", required=True)
    p_diag.add_argument("--out", required=True)
    p_diag.set_defaults(func=_cmd_diagnose)

    p_ver = sub.add_parser("verify", help="run the invariant suite; nonzero exit on failure")
    p_ver.add_argument("--n", type=int, default=32)
    p_ver.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid concurrently")
    p_sweep.add_argument("--config", required=True, help="base configuration")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--amplitudes", default=None, help="comma-separated perturbation amplitudes")
    p_sweep.add_argument("--ns", default=None, help="comma-separated grid sizes")
    p_sweep.add_argument("--ps", default=None, help="comma-separated Lebesgue exponents")
    p_sweep.add_argument("--workers", type=int, default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_exp = sub.add_parser("exponents", help="print the exponent set for (p, m)")
    p_exp.add_argument("--p", type=_finite_float, required=True)
    p_exp.add_argument("--m", type=_finite_float, required=True)
    p_exp.set_defaults(func=_cmd_exponents)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())
