"""The names that the benchmark harness in `perfbench/` imports, calls or wraps still exist."""

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
