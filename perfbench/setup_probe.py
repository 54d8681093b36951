"""Cold start of one run in a fresh interpreter; prints the seconds it took.

Usage: python3 perfbench/setup_probe.py <config file>

Prints the wall seconds and then the durations of five runs of the host
speed kernel (hostspeed.py), taken right after.  Timed from before `import landau` to the end of the first step: import,
config parse, initial datum, the first `compute_coefficients` call and
one step, which fill the kernel-spectrum and equilibrium-residual caches.
"""

import sys
import time
from pathlib import Path


def first_step(config_path) -> None:
    """Parse the config and take the first step of its run."""
    from landau.coefficients import compute_coefficients
    from landau.io_cli import parse_config
    from landau.solver import initial_datum, stable_dt, step

    config = parse_config(config_path)
    f = initial_datum(config)
    coeffs = compute_coefficients(f)
    step(f, min(stable_dt(f, coeffs, config.cfl), config.t_end), coeffs)


if __name__ == "__main__":
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    first_step(sys.argv[1])
    elapsed = time.perf_counter() - start

    from hostspeed import kernel_seconds

    kernel_seconds()  # the first call pays for FFT plans, not for host speed
    print(" ".join(repr(x) for x in [elapsed] + [kernel_seconds() for _ in range(5)]))
