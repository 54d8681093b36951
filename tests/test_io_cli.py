import json
from pathlib import Path

import numpy as np
import pytest

from landau.io_cli import (
    ConfigError,
    SCALAR_COLUMNS,
    cli,
    config_to_text,
    parse_config,
    read_trajectory,
    write_trajectory,
)
from landau.solver import PerturbedMaxwellian, SimConfig, TwoBump, run

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
        assert cfg.clip_negatives is False
        assert cfg.coefficient_refresh == 1
        assert cfg.seed == 0

    def test_rejects_small_p(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL.replace("p = 2.0", "p = 1.4"))
        with pytest.raises(ConfigError, match="3/2"):
            parse_config(path)

    def test_rejects_unknown_key(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "foo = 1\n")
        with pytest.raises(ConfigError, match="foo"):
            parse_config(path)

    def test_rejects_duplicate_key(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "n = 16\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_rejects_family_mismatch(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "amplitude = 0.1\n")
        with pytest.raises(ConfigError, match="perturbed_maxwellian"):
            parse_config(path)

    def test_rejects_bad_boolean(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "clip_negatives = maybe\n")
        with pytest.raises(ConfigError, match="clip_negatives"):
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


@pytest.fixture(scope="module")
def small_traj():
    return run(SimConfig(n=16, t_end=0.3, cfl=0.25, snapshot_every=2, initial=PerturbedMaxwellian(0.1, 3), m=12.0))


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

    def test_csv_has_twelve_columns(self, small_traj, tmp_path):
        write_trajectory(small_traj, tmp_path / "out")
        lines = (tmp_path / "out" / "scalars.csv").read_text().splitlines()
        assert lines[0].split(",") == list(SCALAR_COLUMNS)
        assert len(SCALAR_COLUMNS) == 12
        assert all(len(line.split(",")) == 12 for line in lines[1:])

    def test_grid_mismatch_detected(self, small_traj, tmp_path):
        out = tmp_path / "out"
        write_trajectory(small_traj, out)
        meta = out / "snapshot_000000.meta"
        meta.write_text(meta.read_text().replace("n = 16", "n = 32"))
        with pytest.raises(ValueError, match="does not match"):
            read_trajectory(out)

    @pytest.mark.parametrize("tear", ["header_only", "row_cut"])
    def test_torn_scalars_rejected(self, small_traj, tmp_path, tear):
        out = tmp_path / "out"
        write_trajectory(small_traj, out)
        scalars = out / "scalars.csv"
        lines = scalars.read_text().splitlines()
        if tear == "header_only":
            scalars.write_text(lines[0] + "\n")
        else:
            scalars.write_text("\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]))
        with pytest.raises(ValueError, match="scalars.csv"):
            read_trajectory(out)
        assert cli(["diagnose", "--traj", str(out), "--out", str(tmp_path / "rep")]) == 2

    def test_zero_snapshots_rejected(self, small_traj, tmp_path, capsys):
        out = tmp_path / "out"
        write_trajectory(small_traj, out)
        index = json.loads((out / "traj.json").read_text())
        (out / "traj.json").write_text(json.dumps({**index, "snapshots": 0}))
        with pytest.raises(ValueError, match="traj.json"):
            read_trajectory(out)
        capsys.readouterr()
        assert cli(["diagnose", "--traj", str(out), "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert "traj.json" in err and "0 snapshots" in err

    def test_interrupted_overwrite_leaves_no_index(self, small_traj, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        write_trajectory(small_traj, out)
        other = run(SimConfig(n=16, t_end=0.2, cfl=0.25, snapshot_every=1, initial=TwoBump(2.0), m=12.0))
        assert len(other.times) != len(small_traj.times)

        write_bytes = Path.write_bytes
        calls = []

        def fail_second_snapshot(path, data):
            calls.append(path)
            if len(calls) == 2:
                raise OSError("disk full")
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", fail_second_snapshot)
        with pytest.raises(OSError, match="disk full"):
            write_trajectory(other, out)
        monkeypatch.undo()

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
        assert loaded.abort_time == traj.abort_time
        assert loaded.abort_reason == traj.abort_reason


class TestCli:
    def test_exponents_subcommand(self, capsys):
        assert cli(["exponents", "--p", "2", "--m", "55"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gamma"] == pytest.approx(0.278788, abs=1e-6)
        assert payload["degenerate"] is False

    def test_diagnose_missing_directory(self, tmp_path, capsys):
        assert cli(["diagnose", "--traj", str(tmp_path / "nope"), "--out", str(tmp_path / "rep")]) == 2

    def test_run_missing_config(self, tmp_path):
        assert cli(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "out")]) == 2

    def test_run_then_diagnose(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL.replace("n = 32", "n = 16") + "snapshot_every = 2\n")
        out = tmp_path / "out"
        assert cli(["run", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["abort_reason"] is None
        assert "scalars.csv" in manifest["outputs"]

        rep = tmp_path / "rep"
        assert cli(["diagnose", "--traj", str(out), "--out", str(rep)]) == 0
        report = json.loads((rep / "report.json").read_text())
        assert "exponents" in report and "ode_barrier" in report
        assert (rep / "envelope.csv").is_file()
        assert (rep / "levels.csv").is_file()
        levels = (rep / "levels.csv").read_text().splitlines()
        totals = [float(line.split(",")[3]) for line in levels[1:]]
        assert all(b <= a for a, b in zip(totals, totals[1:]))  # monotone in the level

        traj = read_trajectory(out)
        envelope = (rep / "envelope.csv").read_text().splitlines()
        assert envelope[0] == "time,linf_h,lp_p,grad_energy"
        cells = np.array([[float(x) for x in line.split(",")] for line in envelope[1:]])
        expected = np.column_stack([traj.times, traj.linf_h, traj.lp_p, traj.grad_energy])
        assert cells.tobytes() == expected.tobytes()
        # the recorder and diagnose use the same entropy convention
        last_entropy = float((out / "scalars.csv").read_text().splitlines()[-1].split(",")[SCALAR_COLUMNS.index("entropy")])
        assert report["entropy_final"]["signed"] == last_entropy

    def test_rerun_with_fewer_snapshots_lists_only_its_own(self, tmp_path):
        base = MINIMAL.replace("n = 32", "n = 16") + "snapshot_every = 1\n"
        out = tmp_path / "out"
        assert cli(["run", "--config", str(write_cfg(tmp_path, base, "long.cfg")), "--out", str(out)]) == 0
        longer = json.loads((out / "traj.json").read_text())["snapshots"]
        short = write_cfg(tmp_path, base.replace("t_end = 0.5", "t_end = 0.1"), "short.cfg")
        assert cli(["run", "--config", str(short), "--out", str(out)]) == 0
        count = json.loads((out / "traj.json").read_text())["snapshots"]
        assert 1 < count < longer
        own = sorted(f"snapshot_{i:06d}{ext}" for i in range(count) for ext in (".f64", ".meta"))
        outputs = json.loads((out / "run_manifest.json").read_text())["outputs"]
        assert sorted(name for name in outputs if name.startswith("snapshot_")) == own
        assert sorted(p.name for p in out.glob("snapshot_*")) == own

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
        assert section["relative_to_equilibrium"] == section["linf_h_max"] / traj.equilibrium().max_abs()
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

    def test_sweep_amplitudes_require_perturbed_base(self, tmp_path):
        base = write_cfg(tmp_path, MINIMAL, name="base.cfg")
        rc = cli(["sweep", "--config", str(base), "--out", str(tmp_path / "s"), "--amplitudes", "0.1"])
        assert rc == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli(["bogus"])
        assert exc.value.code == 2

    def test_verify_subcommand(self, capsys):
        assert cli(["verify", "--n", "24"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
