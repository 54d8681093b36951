import dataclasses
import json
import os
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import dying_sweep_worker, one_blas_thread_stdout
from landau import analysis, coefficients, io_cli, verify
from landau.coefficients import CoefficientSet
from landau.fields import maxwellian, support_box
from landau.grid import Field, SymTensorField, make_grid
from landau.io_cli import (
    ConfigError,
    SCALAR_COLUMNS,
    cli,
    config_to_text,
    parse_config,
    read_trajectory,
    write_trajectory,
)
from landau.solver import AnisotropicGaussian, Maxwellian, PerturbedMaxwellian, SimConfig, Trajectory, TwoBump, run

MINIMAL = """
n = 32
L = 8.0
t_end = 0.5
p = 2.0
m = 12.0
initial = maxwellian
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_minimal_with_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL))
        assert cfg.n == 32 and cfg.extent == 8.0
        assert cfg.t_end == 0.5 and cfg.p == 2.0 and cfg.m == 12.0
        # documented defaults
        assert cfg.cfl == 0.5
        assert cfg.snapshot_every == 5
        assert cfg.coefficient_refresh == 1
        assert cfg.seed == 0

    def test_rejects_small_p(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL.replace("p = 2.0", "p = 1.4"))
        with pytest.raises(ConfigError, match="3/2"):
            parse_config(path)

    def test_rejects_unknown_key(self, tmp_path):
        # a key no longer read is unknown like any other
        for line in ("foo = 1", "clip_negatives = false"):
            path = write_cfg(tmp_path, MINIMAL + line + "\n")
            with pytest.raises(ConfigError, match=line.split()[0]):
                parse_config(path)

    def test_rejects_duplicate_key(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "n = 16\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_rejects_family_mismatch(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "amplitude = 0.1\n")
        with pytest.raises(ConfigError, match="perturbed_maxwellian"):
            parse_config(path)

    def test_rejects_bad_theta_arity(self, tmp_path):
        text = MINIMAL.replace("initial = maxwellian", "initial = anisotropic_gaussian") + "theta = 1.0, 2.0\n"
        with pytest.raises(ConfigError, match="theta"):
            parse_config(write_cfg(tmp_path, text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_config(tmp_path / "absent.cfg")

    def test_families_round_trip(self, tmp_path):
        for initial in (
            PerturbedMaxwellian(0.25, 6),
            TwoBump(2.0, weights=(0.7, 0.3)),
        ):
            cfg = SimConfig(n=16, t_end=0.2, initial=initial, m=12.0)
            parsed = parse_config(write_cfg(tmp_path, config_to_text(cfg), name=f"{initial.kind}.cfg"))
            assert parsed == cfg

    def test_numpy_scalars_round_trip(self, tmp_path):
        cfg = SimConfig(n=np.int64(16), t_end=np.float64(0.2), initial=TwoBump(np.float64(2.0), (np.float64(0.7), 0.3)))
        assert parse_config(write_cfg(tmp_path, config_to_text(cfg))) == cfg

    @pytest.mark.parametrize(
        "key, entries",
        [
            ("t_end", {"t_end": "inf"}),  # `run` would never end
            ("L", {"L": "inf"}),
            ("L", {"L": "nan"}),
            ("p", {"p": "inf"}),
            ("m", {"m": "inf"}),
            ("theta", {"initial": "anisotropic_gaussian", "theta": "inf, 1, 1"}),
            ("weights", {"initial": "two_bump", "separation": "1.0", "weights": "inf, 1"}),
            # the grid is checked when the config is read, not first in `run`
            ("n", {"n": "7"}),
            ("n", {"n": "6"}),
            ("L", {"L": "-1"}),
            ("L", {"L": "0"}),
        ],
    )
    def test_rejects_value_out_of_range_naming_its_key(self, tmp_path, key, entries):
        base = dict(line.split(" = ") for line in MINIMAL.strip().splitlines())
        text = "".join(f"{k} = {v}\n" for k, v in {**base, **entries}.items())
        with pytest.raises(ConfigError, match=rf"\b{key}\b"):
            parse_config(write_cfg(tmp_path, text))

    def test_readme_table_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Configuration schema", 1)[1].split("\n## ", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("|")][2:]  # past header and rule
        documented = {key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])}
        assert documented == set(io_cli._KEYS) | {"initial"}


def _positive(upper: float):
    return st.floats(0.0, upper, exclude_min=True)


@st.composite
def _two_bumps(draw) -> TwoBump:
    weights = draw(st.tuples(st.floats(1e-3, 10.0), st.floats(1e-3, 10.0)))
    w1, w2 = (w / sum(weights) for w in weights)
    # the separation bound w1 w2 d^2 < 3, with a margin for its rounding
    return TwoBump(draw(st.floats(-1.0, 1.0)) * 0.999 * (3.0 / (w1 * w2)) ** 0.5, weights)


_DATA = st.one_of(
    st.just(Maxwellian()),
    st.builds(PerturbedMaxwellian, st.floats(-1.0, 1.0), st.integers(1, 64)),
    st.builds(AnisotropicGaussian, st.tuples(_positive(1e3), _positive(1e3), _positive(1e3))),
    _two_bumps(),
)
_CONFIGS = st.builds(
    SimConfig,
    n=st.integers(4, 128).map(lambda k: 2 * k),
    extent=_positive(1e3),
    t_end=_positive(1e6),
    cfl=st.floats(0.0, 1.0, exclude_min=True),
    initial=_DATA,
    p=st.floats(1.5, 1e3, exclude_min=True),
    m=_positive(1e3),
    snapshot_every=st.integers(1, 10**6),
    coefficient_refresh=st.integers(1, 10**6),
    seed=st.integers(0, 2**63),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(cfg=_CONFIGS)
def test_property_config_text_round_trip(cfg, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "round_trip.cfg"
    path.write_text(config_to_text(cfg))
    assert parse_config(path) == cfg


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _trajectories(draw):
    grid = make_grid(8, draw(st.floats(0.5, 100.0)))
    table = draw(hnp.arrays(np.float64, (draw(st.integers(1, 4)), len(SCALAR_COLUMNS)), elements=_FINITE))
    count = draw(st.integers(1, 3))
    return Trajectory(
        grid=grid,
        p=draw(_FINITE),
        m=draw(_FINITE),
        table=table,
        snapshot_times=draw(st.lists(_FINITE, min_size=count, max_size=count)),
        snapshots=[Field(grid, draw(hnp.arrays(np.float64, grid.shape, elements=_FINITE))) for _ in range(count)],
        abort_reason=draw(st.none() | st.text()),
    )


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@settings(derandomize=True, max_examples=50, deadline=None)
@given(traj=_trajectories())
def test_property_trajectory_round_trip_bitwise(traj, tmp_path_factory):
    out = tmp_path_factory.getbasetemp() / "round_trip_traj"
    write_trajectory(traj, out)
    loaded = read_trajectory(out)
    assert loaded.scalar_table().shape == traj.scalar_table().shape
    assert _bits(loaded.scalar_table()) == _bits(traj.scalar_table())
    assert _bits(loaded.snapshot_times) == _bits(traj.snapshot_times)
    assert [_bits(s.values) for s in loaded.snapshots] == [_bits(s.values) for s in traj.snapshots]
    assert loaded.aborted is traj.aborted
    assert loaded.abort_reason == traj.abort_reason


@pytest.fixture(scope="module")
def small_traj():
    return run(SimConfig(n=16, t_end=0.3, cfl=0.25, snapshot_every=2, initial=PerturbedMaxwellian(0.1, 3), m=12.0))


@pytest.fixture
def first_step_abort(tmp_path, monkeypatch):
    """The directory of a run that aborts in its first step: one row, t = 0, one snapshot."""
    import landau.solver as solver_mod

    monkeypatch.setattr(solver_mod, "BLOWUP_SUP", 1e-3)
    traj = run(SimConfig(n=16, t_end=0.3, cfl=0.25, snapshot_every=2, initial=PerturbedMaxwellian(0.1, 3)))
    assert traj.aborted and list(traj.times) == traj.snapshot_times == [0.0]
    write_trajectory(traj, tmp_path / "aborted")
    return tmp_path / "aborted"


class TestTrajectoryPersistence:
    def test_round_trip_bitwise(self, small_traj, tmp_path):
        write_trajectory(small_traj, tmp_path / "out")
        loaded = read_trajectory(tmp_path / "out")
        np.testing.assert_array_equal(loaded.times, small_traj.times)
        np.testing.assert_array_equal(loaded.scalar_table(), small_traj.scalar_table())
        assert loaded.snapshot_times == list(small_traj.snapshot_times)
        for a, b in zip(loaded.snapshots, small_traj.snapshots):
            np.testing.assert_array_equal(a.values, b.values)
        assert loaded.p == small_traj.p and loaded.m == small_traj.m
        # trajectories compare by identity, not array by array
        assert (loaded == small_traj) is False

    def test_csv_has_twelve_columns(self, small_traj, tmp_path):
        write_trajectory(small_traj, tmp_path / "out")
        lines = (tmp_path / "out" / "scalars.csv").read_text().splitlines()
        assert lines[0].split(",") == list(SCALAR_COLUMNS)
        assert len(SCALAR_COLUMNS) == 12
        assert all(len(line.split(",")) == 12 for line in lines[1:])

    def test_grid_mismatch_detected(self, small_traj, tmp_path, capsys):
        # an index whose grid is not the snapshots' reads as a snapshot file of the wrong size
        out = tmp_path / "out"
        write_trajectory(small_traj, out)
        index = json.loads((out / "traj.json").read_text())
        (out / "traj.json").write_text(json.dumps({**index, "n": 32}))
        with pytest.raises(ValueError, match=rf"snapshots\.f64: {len(small_traj.snapshots) * 16**3} samples, expected"):
            read_trajectory(out)
        capsys.readouterr()
        assert cli(["diagnose", "--traj", str(out), "--out", str(tmp_path / "rep")]) == 2
        assert f"error: {out / 'snapshots.f64'}" in capsys.readouterr().err

    def test_torn_snapshots_rejected(self, small_traj, tmp_path, capsys):
        out = tmp_path / "out"
        write_trajectory(small_traj, out)
        snapshots = out / "snapshots.f64"
        snapshots.write_bytes(snapshots.read_bytes()[:-8])
        with pytest.raises(ValueError, match=r"snapshots\.f64: \d+ samples, expected"):
            read_trajectory(out)
        capsys.readouterr()
        assert cli(["diagnose", "--traj", str(out), "--out", str(tmp_path / "rep")]) == 2
        assert f"error: {out / 'snapshots.f64'}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", list(io_cli._INDEX_TYPES))
    def test_index_missing_key_rejected(self, small_traj, tmp_path, capsys, key):
        out = tmp_path / "out"
        write_trajectory(small_traj, out)
        index = json.loads((out / "traj.json").read_text())
        del index[key]
        (out / "traj.json").write_text(json.dumps(index))
        with pytest.raises(ValueError, match=rf"traj\.json: missing key '{key}'"):
            read_trajectory(out)
        capsys.readouterr()
        assert cli(["diagnose", "--traj", str(out), "--out", str(tmp_path / "rep")]) == 2
        assert f"error: {out / 'traj.json'}: missing key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("n", 16.0), ("n", True), ("L", "8.0"), ("p", None), ("m", [12.0]), ("snapshot_times", 0.0),
         ("snapshot_times", [0.0, "0.1"]), ("m", False), ("abort_reason", 3)],
    )
    def test_index_mistyped_key_rejected(self, small_traj, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        write_trajectory(small_traj, out)
        index = json.loads((out / "traj.json").read_text())
        (out / "traj.json").write_text(json.dumps({**index, key: value}))
        with pytest.raises(ValueError, match=rf"traj\.json: key '{key}' is not of type"):
            read_trajectory(out)
        capsys.readouterr()
        assert cli(["diagnose", "--traj", str(out), "--out", str(tmp_path / "rep")]) == 2
        assert f"error: {out / 'traj.json'}: key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("tear", ["header_only", "row_cut", "not_a_number"])
    def test_torn_scalars_rejected(self, small_traj, tmp_path, tear):
        out = tmp_path / "out"
        write_trajectory(small_traj, out)
        scalars = out / "scalars.csv"
        lines = scalars.read_text().splitlines()
        if tear == "header_only":
            scalars.write_text(lines[0] + "\n")
        elif tear == "not_a_number":
            scalars.write_text("\n".join(lines[:-1] + [",".join(lines[-1].split(",")[:-1] + ["x"])]))
        else:
            scalars.write_text("\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]))
        with pytest.raises(ValueError, match="scalars.csv"):
            read_trajectory(out)
        assert cli(["diagnose", "--traj", str(out), "--out", str(tmp_path / "rep")]) == 2

    def test_zero_snapshots_rejected(self, small_traj, tmp_path, capsys):
        out = tmp_path / "out"
        write_trajectory(small_traj, out)
        index = json.loads((out / "traj.json").read_text())
        (out / "traj.json").write_text(json.dumps({**index, "snapshot_times": []}))
        with pytest.raises(ValueError, match="traj.json"):
            read_trajectory(out)
        capsys.readouterr()
        assert cli(["diagnose", "--traj", str(out), "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert "traj.json" in err and "0 snapshots" in err

    def test_interrupted_overwrite_leaves_no_index(self, small_traj, tmp_path, capsys):
        out = tmp_path / "out"
        write_trajectory(small_traj, out)
        other = run(SimConfig(n=16, t_end=0.4, cfl=0.25, snapshot_every=1, initial=TwoBump(2.0), m=12.0))
        assert len(other.times) != len(small_traj.times)

        class FullDisk(np.ndarray):
            def tofile(self, fh):
                raise OSError("disk full")

        # the second snapshot's write fails after the first has been streamed
        snapshots = list(other.snapshots)
        snapshots[1] = SimpleNamespace(values=snapshots[1].values.view(FullDisk))
        with pytest.raises(OSError, match="disk full"):
            write_trajectory(dataclasses.replace(other, snapshots=snapshots), out)
        assert 0 < (out / "snapshots.f64").stat().st_size < len(other.snapshots) * 16**3 * 8

        assert not (out / "traj.json").exists()
        with pytest.raises(FileNotFoundError):
            read_trajectory(out)
        capsys.readouterr()
        assert cli(["diagnose", "--traj", str(out), "--out", str(tmp_path / "rep")]) == 2
        assert "no trajectory at" in capsys.readouterr().err

    def test_abort_state_round_trips(self, tmp_path, monkeypatch):
        import landau.solver as solver_mod

        monkeypatch.setattr(solver_mod, "BLOWUP_SUP", 1e-3)
        traj = run(SimConfig(n=16, t_end=0.3, cfl=0.25, initial=TwoBump(2.0)))
        assert traj.aborted
        write_trajectory(traj, tmp_path / "out")
        loaded = read_trajectory(tmp_path / "out")
        assert loaded.aborted
        assert loaded.abort_time == traj.abort_time == traj.times[-1]
        assert loaded.abort_reason == traj.abort_reason
        # an older index still holds the abort time and the clipped mass; the keys are ignored
        index = tmp_path / "out" / "traj.json"
        index.write_text(json.dumps({**json.loads(index.read_text()), "abort_time": 99.0, "clipped_mass": 0.0}))
        loaded = read_trajectory(tmp_path / "out")
        assert loaded.abort_time == traj.times[-1]
        assert not hasattr(loaded, "clipped_mass")


class TestCli:
    def test_exponents_subcommand(self, capsys):
        assert cli(["exponents", "--p", "2", "--m", "55"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gamma"] == pytest.approx(0.278788, abs=1e-6)
        assert payload["degenerate"] is False

    @pytest.mark.parametrize("flag", ["--p", "--m"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_exponents_rejects_non_finite_values(self, capsys, flag, value):
        values = {"--p": "2", "--m": "55", flag: value}
        with pytest.raises(SystemExit) as exc:
            cli(["exponents", *(f"{key}={raw}" for key, raw in values.items())])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: expected a finite number, got '{value}'" in captured.err
        assert captured.out == ""

    def test_diagnose_missing_directory(self, tmp_path, capsys):
        assert cli(["diagnose", "--traj", str(tmp_path / "nope"), "--out", str(tmp_path / "rep")]) == 2
        assert not (tmp_path / "rep").exists()

    def test_run_missing_config(self, tmp_path):
        assert cli(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "out")]) == 2

    def test_run_then_diagnose(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL.replace("n = 32", "n = 16") + "snapshot_every = 2\n")
        out = tmp_path / "out"
        assert cli(["run", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert "scalars.csv" in manifest["outputs"]
        # run time depends on the BLAS behind the coefficient transforms
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["libraries"] == {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}

        rep = tmp_path / "rep"
        assert cli(["diagnose", "--traj", str(out), "--out", str(rep)]) == 0
        report = json.loads((rep / "report.json").read_text())
        assert "exponents" in report and "ode_barrier" in report
        totals = [level["total"] for level in report["levels"]]
        assert len(totals) == 6 and all(b <= a for a, b in zip(totals, totals[1:]))  # monotone in the level
        # the recorder and diagnose use the same entropy convention
        last_entropy = float((out / "scalars.csv").read_text().splitlines()[-1].split(",")[SCALAR_COLUMNS.index("entropy")])
        assert report["entropy_final"]["signed"] == last_entropy

    @pytest.mark.parametrize("command", ["run", "diagnose"])
    def test_output_directory_holds_the_readme_files(self, tmp_path, command):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Output formats", 1)[1].split("\n## ", 1)[0]
        run_part, diagnose_part = section.split("`landau diagnose", 1)
        part = run_part if command == "run" else diagnose_part
        documented = sorted(re.findall(r"^\* `([\w.]+)`", part, flags=re.MULTILINE))
        out, rep = tmp_path / "out", tmp_path / "rep"
        cfg = write_cfg(tmp_path, MINIMAL.replace("n = 32", "n = 16").replace("t_end = 0.5", "t_end = 0.2"))
        assert cli(["run", "--config", str(cfg), "--out", str(out)]) == 0
        if command == "run":
            assert json.loads((out / "run_manifest.json").read_text())["outputs"] == documented
        else:
            assert cli(["diagnose", "--traj", str(out), "--out", str(rep)]) == 0
            out = rep
        assert sorted(p.name for p in out.iterdir()) == documented

    def test_readme_command_line_matches_the_parser(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```", 2)[1]
        documented = {}
        for line in block.strip().splitlines():
            words = line.split("#", 1)[0].split()
            assert words[0] == "landau"
            documented[words[1]] = set(re.findall(r"--[\w-]+", " ".join(words[2:])))
        with pytest.raises(SystemExit):
            cli(["--help"])
        assert set(re.search(r"\{([\w,]+)\}", capsys.readouterr().out).group(1).split(",")) == set(documented)
        for command, flags in documented.items():
            with pytest.raises(SystemExit):
                cli([command, "--help"])
            usage = capsys.readouterr().out.split("\n\n", 1)[0]
            assert set(re.findall(r"--[\w-]+", usage)) == flags, command

    @pytest.mark.parametrize(
        "command, flag",
        [*(("diagnose", flag) for flag in ("--t", "--c0", "--eps", "--calibration-c")), ("verify", "--L")],
    )
    def test_removed_flags_are_usage_errors(self, tmp_path, capsys, command, flag):
        # no abbreviation either: --t is not read as --traj
        paths = ["--traj", str(tmp_path / "out"), "--out", str(tmp_path / "rep")] if command == "diagnose" else []
        with pytest.raises(SystemExit) as exc:
            cli([command, *paths, flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_run_and_diagnose_make_no_fft_call_once_caches_are_built(self, tmp_path, fft_calls):
        cfg = write_cfg(tmp_path, MINIMAL.replace("n = 32", "n = 16") + "snapshot_every = 2\n")
        for name in ("warm", "out"):
            fft_calls.clear()  # the warm-up builds the per-grid kernel spectrum and matrices
            assert cli(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
            assert cli(["diagnose", "--traj", str(tmp_path / name), "--out", str(tmp_path / f"{name}_rep")]) == 0
        assert fft_calls == []
        np.fft.rfft(np.ones(4))  # the count sees the calls it should
        assert fft_calls == ["rfft"]

    def test_diagnose_differentiates_each_nonempty_cut_once(self, small_traj, tmp_path, monkeypatch):
        traj_dir, rep = tmp_path / "out", tmp_path / "rep"
        write_trajectory(small_traj, traj_dir)
        cuts = []
        energy = analysis.box_gradient_energy

        def bounds(box):
            return tuple((s.start, s.stop) for s in box)

        def counting(grid, box, values, p):
            cuts.append((bounds(box), hash(values.tobytes())))
            return energy(grid, box, values, p)

        monkeypatch.setattr(analysis, "box_gradient_energy", counting)
        assert cli(["diagnose", "--traj", str(traj_dir), "--out", str(rep)]) == 0
        report = json.loads((rep / "report.json").read_text())

        # the (level, window start) pairs this diagnose evaluated: the ladder and the iteration
        probes = [(level["level"], level["window"][0]) for level in report["levels"]]
        probes += list(zip(report["degiorgi"]["levels"], report["degiorgi"]["level_times"]))
        traj = read_trajectory(traj_dir)
        needed = set()
        for level, t_start in probes:
            for t, snap in zip(traj.snapshot_times, traj.snapshots):
                cut = np.maximum((snap - maxwellian(traj.grid)).values - level, 0.0)
                box = support_box(cut)  # each cut keyed by its box and its values there
                if t >= t_start - 1e-12 and box is not None:
                    needed.add((bounds(box), hash(cut[box].tobytes())))
        assert len(probes) > 7 and len(needed) > 1
        assert len(cuts) == len(set(cuts)), "a cut was differentiated twice"
        assert set(cuts) == needed, "an empty cut was differentiated, or a needed one was not"

    def test_diagnose_builds_each_h_once_in_one_buffer(self, small_traj, tmp_path, monkeypatch):
        traj_dir, rep = tmp_path / "out", tmp_path / "rep"
        write_trajectory(small_traj, traj_dir)
        builds, subtractions = [], []  # (snapshot, buffer) of each h built, kept alive so their ids stay unique
        build, subtract = analysis._perturbation, Field.__sub__

        def counting(f, out):
            builds.append((f, out))
            return build(f, out)

        monkeypatch.setattr(analysis, "_perturbation", counting)
        monkeypatch.setattr(Field, "__sub__", lambda self, other: subtractions.append(self) or subtract(self, other))
        assert cli(["diagnose", "--traj", str(traj_dir), "--out", str(rep)]) == 0
        assert subtractions == []  # no h is built outside the helper
        buffers = {}
        for f, out in builds:
            buffers.setdefault(id(out), []).append(id(f))
        # the pass builds every snapshot's h once, into one buffer; h1_smallness builds the one h it differentiates
        snapshots = len(small_traj.snapshots)
        assert sorted(len(built) for built in buffers.values()) == [1, snapshots]
        assert all(len(set(built)) == len(built) for built in buffers.values())

    def test_report_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the level-set cuts are differentiated by products of their boxes' own shapes
        traj_dir, rep, single = tmp_path / "out", tmp_path / "rep", tmp_path / "single"
        write_trajectory(run(SimConfig(n=24, t_end=0.3, cfl=0.25, snapshot_every=2, initial=TwoBump(2.0), m=12.0)), traj_dir)
        assert cli(["diagnose", "--traj", str(traj_dir), "--out", str(rep)]) == 0
        one_blas_thread_stdout(f"from landau.io_cli import cli; cli(['diagnose', '--traj', {str(traj_dir)!r}, '--out', {str(single)!r}])")
        assert (single / "report.json").read_bytes() == (rep / "report.json").read_bytes()

    def test_recurrence_probes_match_direct_checks(self, small_traj, tmp_path):
        traj_dir, rep = tmp_path / "out", tmp_path / "rep"
        write_trajectory(small_traj, traj_dir)
        assert cli(["diagnose", "--traj", str(traj_dir), "--out", str(rep)]) == 0
        report = json.loads((rep / "report.json").read_text())
        ladder = [level["level"] for level in report["levels"]]
        traj = read_trajectory(traj_dir)
        t_end, c0 = float(traj.times[-1]), report["c0"]
        direct = [
            dataclasses.asdict(analysis.level_set_recurrence_check(traj, k, level, 0.0, 0.25 * t_end, t_end, c0))
            for k, level in zip(ladder, ladder[1:])
        ]
        assert len(direct) == 5
        assert report["recurrence"] == json.loads(json.dumps(direct))

    def test_recurrence_ratios_within_calibrated_headroom(self, small_traj, tmp_path):
        traj_dir, rep = tmp_path / "out", tmp_path / "rep"
        write_trajectory(small_traj, traj_dir)
        assert cli(["diagnose", "--traj", str(traj_dir), "--out", str(rep)]) == 0
        probes = json.loads((rep / "report.json").read_text())["recurrence"]
        assert [p["level"] for p in probes[:-1]] == [p["k"] for p in probes[1:]]
        assert all(p["lhs"] > 0.0 and 0.0 < p["ratio"] <= 1e-4 for p in probes)

    def test_diagnose_with_degenerate_exponents_writes_no_recurrence(self, tmp_path):
        # m = 6 < 9 at p = 2: the smoothing exponent is not positive
        traj = run(SimConfig(n=16, t_end=0.3, cfl=0.25, snapshot_every=2, initial=PerturbedMaxwellian(0.1, 3), m=6.0))
        assert analysis.exponents(traj.p, traj.m).degenerate
        traj_dir, rep = tmp_path / "out", tmp_path / "rep"
        write_trajectory(traj, traj_dir)
        assert cli(["diagnose", "--traj", str(traj_dir), "--out", str(rep)]) == 0
        report = json.loads((rep / "report.json").read_text())
        assert "recurrence" not in report and "degiorgi" not in report
        assert len(report["levels"]) == 6

    def test_diagnose_at_t0_writes_no_recurrence(self, first_step_abort, tmp_path):
        rep = tmp_path / "rep"
        assert cli(["diagnose", "--traj", str(first_step_abort), "--out", str(rep)]) == 0
        report = json.loads((rep / "report.json").read_text())
        assert "recurrence" not in report and "degiorgi" not in report
        assert len(report["levels"]) == 6

    def test_rerun_with_t0_leaves_no_stale_outputs(self, small_traj, first_step_abort, tmp_path):
        traj_dir, rep = tmp_path / "out", tmp_path / "rep"
        write_trajectory(small_traj, traj_dir)
        assert cli(["diagnose", "--traj", str(traj_dir), "--out", str(rep)]) == 0
        assert "degiorgi" in json.loads((rep / "report.json").read_text())
        assert cli(["diagnose", "--traj", str(first_step_abort), "--out", str(rep)]) == 0
        assert "degiorgi" not in json.loads((rep / "report.json").read_text())
        assert sorted(p.name for p in rep.iterdir()) == ["report.json"]

    def test_failed_diagnose_leaves_no_older_report(self, small_traj, tmp_path, capsys):
        traj_dir, rep = tmp_path / "out", tmp_path / "rep"
        write_trajectory(small_traj, traj_dir)
        assert cli(["diagnose", "--traj", str(traj_dir), "--out", str(rep)]) == 0
        # the index is read as it stands; the exponents then reject p = 1.5
        index = traj_dir / "traj.json"
        index.write_text(json.dumps({**json.loads(index.read_text()), "p": 1.5}))
        capsys.readouterr()
        assert cli(["diagnose", "--traj", str(traj_dir), "--out", str(rep)]) == 2
        assert "error: exponents require p > 3/2" in capsys.readouterr().err
        assert list(rep.iterdir()) == []

    def test_run_aborted_between_snapshots_ends_on_one(self, tmp_path, monkeypatch):
        import landau.solver as solver_mod

        real, calls = solver_mod._check_state, []

        def failing_third(values):  # the third check is the first stage of step 2
            calls.append(None)
            if len(calls) == 3:
                raise solver_mod.BlowUpError("forced")
            real(values)

        monkeypatch.setattr(solver_mod, "_check_state", failing_third)
        traj = run(SimConfig(n=16, t_end=1.0, cfl=0.05, snapshot_every=5, initial=PerturbedMaxwellian(0.1, 3)))
        assert traj.aborted and 0.0 < traj.times[-1] < 0.5  # the first snapshot time past 0 is 0.5
        assert traj.snapshot_times[-1] == traj.times[-1]
        assert (traj.snapshots[-1] - maxwellian(traj.grid)).max_abs() == traj.linf_h[-1]
        write_trajectory(traj, tmp_path / "out")
        assert cli(["diagnose", "--traj", str(tmp_path / "out"), "--out", str(tmp_path / "rep")]) == 0

    @pytest.mark.parametrize("damage", ["torn_snapshots", "no_index"])
    def test_unreadable_trajectory_leaves_no_older_report(self, small_traj, tmp_path, capsys, damage):
        traj_dir, rep = tmp_path / "out", tmp_path / "rep"
        write_trajectory(small_traj, traj_dir)
        assert cli(["diagnose", "--traj", str(traj_dir), "--out", str(rep)]) == 0
        if damage == "torn_snapshots":
            snapshots = traj_dir / "snapshots.f64"
            snapshots.write_bytes(snapshots.read_bytes()[:-8])
        else:
            (traj_dir / "traj.json").unlink()
        capsys.readouterr()
        assert cli(["diagnose", "--traj", str(traj_dir), "--out", str(rep)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (rep / "report.json").exists()

    def test_report_holds_every_section(self, small_traj, tmp_path):
        traj_dir, rep = tmp_path / "out", tmp_path / "rep"
        write_trajectory(small_traj, traj_dir)
        assert not analysis.exponents(small_traj.p, small_traj.m).degenerate
        assert cli(["diagnose", "--traj", str(traj_dir), "--out", str(rep)]) == 0
        assert sorted(json.loads((rep / "report.json").read_text())) == [
            "c0", "degiorgi", "e0", "entropy_final", "exponents", "h1_smallness", "levels", "m",
            "moment_bounds", "ode_barrier", "p", "perturbation", "recurrence", "smoothing_fit",
        ]

    def test_barrier_exit_is_reported(self, small_traj, tmp_path):
        # eps = max(4 y(0), 1e-12) does not follow y: a y that passes 4 y(0) leaves the barrier
        table = small_traj.table.copy()
        lp_p = SCALAR_COLUMNS.index("lp_p")
        table[2:, lp_p] = 5.0 * table[0, lp_p]
        stored = dataclasses.replace(small_traj, table=table)
        traj_dir, rep = tmp_path / "out", tmp_path / "rep"
        write_trajectory(stored, traj_dir)
        assert cli(["diagnose", "--traj", str(traj_dir), "--out", str(rep)]) == 0
        barrier = json.loads((rep / "report.json").read_text())["ode_barrier"]
        assert barrier["eps"] == 4.0 * table[0, lp_p]
        assert barrier["barrier_held"] is False
        assert barrier["exit_time"] == table[2, 0]

    @pytest.mark.parametrize("name", ["snapshots.f64", "scalars.csv"])
    def test_diagnose_reports_a_trajectory_file_that_is_a_directory(self, small_traj, tmp_path, capsys, name):
        traj_dir = tmp_path / "out"
        write_trajectory(small_traj, traj_dir)
        (traj_dir / name).unlink()
        (traj_dir / name).mkdir()
        assert cli(["diagnose", "--traj", str(traj_dir), "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(traj_dir / name) in err

    def test_rerun_with_fewer_snapshots_lists_only_its_own(self, tmp_path):
        base = MINIMAL.replace("n = 32", "n = 16") + "snapshot_every = 1\n"
        out = tmp_path / "out"
        assert cli(["run", "--config", str(write_cfg(tmp_path, base, "long.cfg")), "--out", str(out)]) == 0
        longer = len(json.loads((out / "traj.json").read_text())["snapshot_times"])
        short = write_cfg(tmp_path, base.replace("t_end = 0.5", "t_end = 0.1"), "short.cfg")
        assert cli(["run", "--config", str(short), "--out", str(out)]) == 0
        count = len(json.loads((out / "traj.json").read_text())["snapshot_times"])
        assert 1 < count < longer
        assert (out / "snapshots.f64").stat().st_size == count * 16**3 * 8
        own = ["run_manifest.json", "scalars.csv", "snapshots.f64", "traj.json"]
        assert json.loads((out / "run_manifest.json").read_text())["outputs"] == own
        assert sorted(p.name for p in out.iterdir()) == own
        assert len(read_trajectory(out).snapshots) == count

    @pytest.mark.parametrize(
        "n, datum, at_roundoff",
        [
            # n = 24: at n = 16 (spacing 1) the moment-normalized datum differs
            # from the sampled Maxwellian by 3e-7 of its peak, a real h
            (24, "initial = maxwellian\n", True),
            (16, "initial = anisotropic_gaussian\ntheta = 0.8, 1.0, 1.2\n", False),
        ],
    )
    def test_report_marks_roundoff_perturbation(self, tmp_path, n, datum, at_roundoff):
        cfg = write_cfg(tmp_path, f"n = {n}\nL = 8.0\nt_end = 0.2\np = 2.0\nm = 12.0\n{datum}")
        out, rep = tmp_path / "out", tmp_path / "rep"
        assert cli(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli(["diagnose", "--traj", str(out), "--out", str(rep)]) == 0
        section = json.loads((rep / "report.json").read_text())["perturbation"]
        traj = read_trajectory(out)
        assert section["linf_h_max"] == float(np.max(traj.linf_h))
        assert section["relative_to_equilibrium"] == section["linf_h_max"] / maxwellian(traj.grid).max_abs()
        assert section["at_roundoff"] is at_roundoff

    def test_determinism_bitwise(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL.replace("n = 32", "n = 16"))
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli(["run", "--config", str(cfg), "--out", str(a)]) == 0
        assert cli(["run", "--config", str(cfg), "--out", str(b)]) == 0
        assert (a / "scalars.csv").read_bytes() == (b / "scalars.csv").read_bytes()

    def test_sweep(self, tmp_path):
        text = (
            MINIMAL.replace("n = 32", "n = 16")
            .replace("t_end = 0.5", "t_end = 0.2")
            .replace("initial = maxwellian", "initial = perturbed_maxwellian")
            + "amplitude = 0.1\nmode = 3\n"
        )
        base = write_cfg(tmp_path, text, name="base.cfg")
        out = tmp_path / "sweep"
        rc = cli(
            [
                "sweep",
                "--config",
                str(base),
                "--out",
                str(out),
                "--amplitudes",
                "0.05,0.1",
                "--workers",
                "2",
            ]
        )
        assert rc == 0
        dirs = sorted(p.name for p in out.iterdir())
        assert len(dirs) == 2
        for d in dirs:
            assert (out / d / "scalars.csv").is_file()
            assert (out / d / "run_manifest.json").is_file()

    def test_sweep_reports_failed_job_and_keeps_the_rest(self, tmp_path, capsys):
        text = (
            MINIMAL.replace("t_end = 0.5", "t_end = 0.2")
            .replace("initial = maxwellian", "initial = perturbed_maxwellian")
            + "amplitude = 0.1\nmode = 4\n"
        )
        base = write_cfg(tmp_path, text, name="base.cfg")
        out = tmp_path / "sweep"
        rc = cli(["sweep", "--config", str(base), "--out", str(out), "--ns", "8,16", "--workers", "2"])
        assert rc == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            f"[FAILED] {out / 'ampbase_n8_p2.0'}: mode 4 is not resolvable on an n=8 grid",
            f"[ok] {out / 'ampbase_n16_p2.0'}",
        ]
        assert (out / "ampbase_n8_p2.0" / "config.cfg").is_file()
        assert parse_config(out / "ampbase_n16_p2.0" / "config.cfg").n == 16
        assert (out / "ampbase_n16_p2.0" / "run_manifest.json").is_file()

    def test_sweep_survives_a_dead_worker(self, tmp_path, capsys, monkeypatch):
        # the n = 16 member's worker dies and breaks the pool; the members it took down are rerun alone
        monkeypatch.setattr(io_cli, "_sweep_worker", dying_sweep_worker)
        base = write_cfg(tmp_path, MINIMAL.replace("t_end = 0.5", "t_end = 0.2"), name="base.cfg")
        out = tmp_path / "sweep"
        rc = cli(["sweep", "--config", str(base), "--out", str(out), "--ns", "8,16,12", "--workers", "2"])
        assert rc == 1
        assert capsys.readouterr().out.splitlines() == [
            f"[ok] {out / 'ampbase_n8_p2.0'}",
            f"[FAILED] {out / 'ampbase_n16_p2.0'}: worker process died",
            f"[ok] {out / 'ampbase_n12_p2.0'}",
        ]
        for n in (8, 12):
            assert (out / f"ampbase_n{n}_p2.0" / "run_manifest.json").is_file()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_workers_share_the_cores_blas_threads(self, monkeypatch, workers):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        with io_cli._sweep_pool(workers) as pool:
            seen = list(pool.map(os.getenv, io_cli._BLAS_THREAD_VARIABLES))
        assert seen == [str(max(1, (os.cpu_count() or 1) // workers))] * 3
        # the sweep's own process keeps its environment
        assert os.environ["OPENBLAS_NUM_THREADS"] == "7" and "MKL_NUM_THREADS" not in os.environ

    @pytest.mark.parametrize(
        "flag, values, tag",
        [("--ns", "16,16", "ampbase_n16_p2.0"), ("--ps", "2,2.0", "ampbase_n32_p2.0"), ("--amplitudes", "0.1,0.10", "amp0.1_n32_p2.0")],
    )
    def test_sweep_rejects_members_that_share_a_directory(self, tmp_path, capsys, flag, values, tag):
        text = MINIMAL.replace("initial = maxwellian", "initial = perturbed_maxwellian") + "amplitude = 0.1\nmode = 3\n"
        base = write_cfg(tmp_path, text, name="base.cfg")
        out = tmp_path / "sweep"
        rc = cli(["sweep", "--config", str(base), "--out", str(out), flag, values])
        assert rc == 2
        assert capsys.readouterr().err == f"error: sweep members would run at once into {out / tag}\n"
        assert not out.exists()

    def test_sweep_amplitudes_require_perturbed_base(self, tmp_path):
        base = write_cfg(tmp_path, MINIMAL, name="base.cfg")
        rc = cli(["sweep", "--config", str(base), "--out", str(tmp_path / "s"), "--amplitudes", "0.1"])
        assert rc == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli(["bogus"])
        assert exc.value.code == 2

    def test_verify_subcommand(self, capsys, monkeypatch):
        results = []
        real = verify.run_verification

        def recording(**kwargs):
            results.extend(real(**kwargs))
            return results

        monkeypatch.setattr(verify, "run_verification", recording)
        assert cli(["verify", "--n", "24"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out and out.splitlines()[-1] == "9/9 checks passed"
        assert all(type(r.passed) is bool for r in results)

    def test_verify_fails_on_broken_trace(self, capsys, monkeypatch):
        real = verify.compute_coefficients

        def broken(f):
            good = real(f)
            return CoefficientSet(A=good.A, a=Field(f.grid, good.a.values * (1.0 + 1e-6)), density=f)

        monkeypatch.setattr(verify, "compute_coefficients", broken)
        assert cli(["verify", "--n", "24"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] trace and divergence identities" in out
        assert out.splitlines()[-1] == "8/9 checks passed"

    @pytest.mark.parametrize("inflate", ["A", "grad_a"])
    def test_verify_fails_on_inflated_coefficients(self, capsys, monkeypatch, inflate):
        # each ratio alone past its bound fails the check; grad a is inflated where it is transformed
        if inflate == "A":
            real = verify.compute_coefficients

            def inflated(f):
                good = real(f)
                return CoefficientSet(A=SymTensorField(f.grid, 3.0 * good.A.values), a=good.a, density=f)

            monkeypatch.setattr(verify, "compute_coefficients", inflated)
        else:
            real = coefficients._matrix_inverse

            def inflated(f, kernel, terms):
                return (3.0 if terms is coefficients._DRIFT_TERMS else 1.0) * real(f, kernel, terms)

            monkeypatch.setattr(coefficients, "_matrix_inverse", inflated)
        assert cli(["verify", "--n", "24"]) == 1
        assert "[FAIL] coefficient upper bounds" in capsys.readouterr().out

    def test_verify_builds_each_grad_a_once(self, monkeypatch):
        # the structural residuals, the upper bounds and the oracle read one set per probe field
        builds = []
        real = coefficients._matrix_inverse

        def counting(f, kernel, terms):
            if terms is coefficients._DRIFT_TERMS:
                builds.append(f)
            return real(f, kernel, terms)

        monkeypatch.setattr(coefficients, "_matrix_inverse", counting)
        verify.run_verification(n=24)
        # one per probe field; the oracle reads the Maxwellian's, the first
        assert len(builds) == len(verify.corpus_fields(make_grid(24, 8.0)))

    def test_verify_upper_bounds_read_the_corpus_worst(self):
        grid = make_grid(24, 8.0)
        reports = [
            coefficients.coefficient_upper_bounds(coefficients.compute_coefficients(f), 2.0)
            for f in verify.corpus_fields(grid)
        ]
        (check,) = [r for r in verify.run_verification(n=24) if r.name == "coefficient upper bounds"]
        assert check.passed
        assert f"ratio {max(r.a_ratio for r in reports):.3f} (tol 0.16)" in check.detail
        assert f"ratio {max(r.grad_a_ratio for r in reports):.3f} (tol 0.5)" in check.detail
