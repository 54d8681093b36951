"""The names that the benchmark harness in `perfbench/` imports, calls or wraps still exist,
and the commands it drives still call the wrapped names."""

from collections import Counter
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_perfbench_finds_every_name_it_uses(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layertrace
    import microbench
    import setup_probe
    from landau.solver import DT_CAP  # noqa: F401  (the snapshot time unit `perfbench/run.py` reads)

    # every attribute the tracer wraps must exist, and it puts each one back
    with layertrace.Tracer() as tracer:
        layertrace.install_layers(tracer)
        wrapped = list(tracer._saved)
    assert wrapped and all(getattr(owner, attr) is original for owner, attr, original in wrapped)

    config = tmp_path / "probe.cfg"
    config.write_text("n = 16\nL = 8.0\nt_end = 0.2\np = 2.0\nm = 12.0\ninitial = maxwellian\n")
    setup_probe.first_step(config)
    assert set(microbench.layers(16, 1)) == {
        "coefficients.compute_coefficients",
        "coefficients.biharmonic_potential",
        "grid.eigenvalues",
        "solver.rhs",
        "solver.step",
        "fields.recorder",
    }


def test_every_workload_config_parses(monkeypatch, tmp_path):
    # a SimConfig field the benchmark writes (seed, coefficient_refresh) cannot go unnoticed
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from landau.io_cli import parse_config

    parsed = 0
    for name in workloads.NAMES:
        for seed in (0, 1):
            for label, text in workloads.build(name, seed).configs.items():
                path = tmp_path / f"{name}_{seed}_{label}.cfg"
                path.write_text(text)
                parse_config(path)
                parsed += 1
    assert parsed == 10


def test_commands_call_the_names_perfbench_wraps(monkeypatch, tmp_path):
    # perfbench/run.py captures the trajectory at io_cli.run and io_cli.read_trajectory, and
    # perfbench/layertrace.py times the rows as solver.moments, lp_m_norm and weighted_gradient_energy
    import landau.io_cli as io_cli
    import landau.solver as solver

    calls, returned = Counter(), {}

    def count(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            returned[name] = original(*args, **kwargs)
            return returned[name]

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("run", "read_trajectory"):
        count(io_cli, name)
    for name in ("moments", "lp_m_norm", "weighted_gradient_energy"):
        count(solver, name)
    config = tmp_path / "probe.cfg"
    config.write_text("n = 16\nL = 8.0\nt_end = 0.2\np = 2.0\nm = 12.0\ninitial = anisotropic_gaussian\n"
                      "theta = 0.8, 1.0, 1.2\n")
    out, rep = tmp_path / "out", tmp_path / "rep"
    assert io_cli.cli(["run", "--config", str(config), "--out", str(out)]) == 0
    rows = len(returned["run"].times)
    assert rows > 1
    assert (calls["run"], calls["read_trajectory"]) == (1, 0)
    assert calls["lp_m_norm"] == calls["weighted_gradient_energy"] == rows
    assert calls["moments"] >= rows
    assert io_cli.cli(["diagnose", "--traj", str(out), "--out", str(rep)]) == 0
    assert (calls["run"], calls["read_trajectory"]) == (1, 1)
