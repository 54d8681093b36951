"""Benchmark workloads: the run configurations each workload feeds to `landau run`.

Seed 0 gives the fixture values.  Any other seed multiplies each datum
parameter (axis temperatures, bump separation, perturbation amplitude)
by 1 + u with u uniform in [-JITTER, JITTER] (half a percent).  That
range leaves the step counts and the mix of layers unchanged (`trio48`
and `relaxation24_long` still step at the solver's step cap, and the
CFL bound of `smoothing32_frozen` moves by far less than one step) and
moves the energy drift of a run by a few percent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

JITTER = 0.005


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict[str, str]  # label -> flat key = value config text


def _text(entries: dict[str, object]) -> str:
    def fmt(value: object) -> str:
        if isinstance(value, tuple):
            return ", ".join(repr(x) for x in value)
        return repr(value) if isinstance(value, float) else str(value)

    return "".join(f"{key} = {fmt(value)}\n" for key, value in entries.items())


def build(name: str, seed: int) -> Workload:
    """The workload `name` with its datum parameters drawn from `seed`."""
    rng = random.Random(seed)

    def jitter(x: float) -> float:
        return x if seed == 0 else x * (1.0 + rng.uniform(-JITTER, JITTER))

    if name == "trio48":
        common = {"n": 48, "t_end": 1.0, "cfl": 0.25, "snapshot_every": 2, "seed": seed}
        # Production resolution: coefficient transforms and the eigen pass do most of each step.
        return Workload(
            name,
            {
                "maxwellian": _text({**common, "initial": "maxwellian"}),
                "anisotropic": _text(
                    {**common, "initial": "anisotropic_gaussian",
                     "theta": tuple(jitter(t) for t in (0.8, 1.0, 1.2))}
                ),
                "two_bump": _text({**common, "initial": "two_bump", "separation": jitter(2.0)}),
            },
        )
    if name == "relaxation24_long":
        # 400 steps at n=24, dt set by the step cap: stepping policy, small-n transforms, energy drift.
        return Workload(
            name,
            {
                "anisotropic": _text(
                    {"n": 24, "t_end": 40.0, "cfl": 0.25, "initial": "anisotropic_gaussian",
                     "theta": tuple(jitter(t) for t in (0.8, 1.0, 1.2)),
                     "snapshot_every": 20, "seed": seed}
                ),
            },
        )
    if name == "smoothing32_frozen":
        # CFL-bound steps, coefficients rebuilt every 25: stages, recorder, 100 snapshots, analysis.
        return Workload(
            name,
            {
                "perturbed": _text(
                    {"n": 32, "t_end": 2.0, "cfl": 0.011, "initial": "perturbed_maxwellian",
                     "amplitude": jitter(0.05), "mode": 8, "coefficient_refresh": 25,
                     "snapshot_every": 1, "seed": seed}
                ),
            },
        )
    raise KeyError(f"unknown workload '{name}'; choose from {', '.join(NAMES)}")


NAMES = ("trio48", "relaxation24_long", "smoothing32_frozen")
