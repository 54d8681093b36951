"""Layer tracing from outside the program.

The tracer replaces public functions of the `landau` modules, as their
callers see them, with wrappers that record one span per call: name,
start, end, parent span and run id.  Spans stay in memory until the
benchmark writes them out.  A layer's self time is its span's duration
minus the part of that interval its child spans cover.  Every replaced
attribute is put back when the tracer closes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

# Analysis functions that `landau diagnose` calls, each its own layer.
ANALYSIS_FUNCTIONS = (
    "energy_E0",
    "ode_barrier_check",
    "level_set_energy",
    "predict_K",
    "degiorgi_iterate",
    "moment_bound_check",
    "smoothing_fit",
    "h1_smallness",
)
# Entry points of the numpy and scipy FFT modules counted inside compute_coefficients.
FFT_FUNCTIONS = (
    "fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
    "fftn", "ifftn", "rfftn", "irfftn",
)
COEFFICIENTS_SPAN = "coefficients.compute_coefficients"


class Patcher:
    """Replaces attributes with wrappers and restores the originals on close."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def close(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Tracer(Patcher):
    def __init__(self) -> None:
        super().__init__()
        self.spans: list[list] = []  # [name, start, end, parent index or None, run id]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self.run_id: str | None = None

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(index)
        self._active[name] += 1
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()
        self._active[self.spans[index][0]] -= 1

    @contextlib.contextmanager
    def op(self, name: str, run_id: str):
        """One top-level operation: a span whose descendants share a fresh run id."""
        self.run_id = run_id
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)
            self.run_id = None

    def trace(self, owner: object, attr: str, name: str, after=None) -> None:
        """Record a span around every call of owner.attr; `after(tracer, args, result)` runs outside it."""

        def make(original):
            def wrapper(*args, **kwargs):
                index = self._enter(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._exit(index)
                if after is not None:
                    after(self, args, result)
                return result

            return wrapper

        self.replace(owner, attr, make)

    def count_inside(self, owner: object, attr: str, counter: str, span_name: str) -> None:
        """Count top-level calls of owner.attr made while a `span_name` span is open."""

        def make(original):
            def wrapper(*args, **kwargs):
                if self._active[span_name] and not self._active[counter]:
                    self.counts[counter] += 1
                self._active[counter] += 1
                try:
                    return original(*args, **kwargs)
                finally:
                    self._active[counter] -= 1

            return wrapper

        self.replace(owner, attr, make)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, summed self time in seconds)."""
        children: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span[3] is not None:
                children[span[3]].append(index)
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted((self.spans[c][1], self.spans[c][2]) for c in children[index]):
                lo, hi = max(c_start, reach), min(c_end, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            totals[name][0] += 1
            totals[name][1] += (end - start) - covered
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}

    def write(self, path: Path, extra: dict) -> None:
        payload = {
            **extra,
            "span_fields": ["name", "start", "end", "parent", "run_id"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")


def _directory_bytes(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.counts["io_cli.write_trajectory.bytes"] += sum(
        p.stat().st_size for p in Path(args[1]).iterdir() if p.is_file()
    )


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer at the boundary its callers use."""
    import numpy.fft

    import landau.analysis
    import landau.grid
    import landau.io_cli
    import landau.solver

    try:
        import scipy.fft
    except ImportError:  # scipy is optional for the program; count numpy alone
        fft_modules = (numpy.fft,)
    else:
        fft_modules = (numpy.fft, scipy.fft)

    solver, io_cli = landau.solver, landau.io_cli
    tracer.trace(solver, "compute_coefficients", COEFFICIENTS_SPAN)
    for module in fft_modules:
        for fn in FFT_FUNCTIONS:
            if hasattr(module, fn):
                tracer.count_inside(module, fn, "coefficients.fft_calls", COEFFICIENTS_SPAN)
    tracer.trace(landau.grid.SymTensorField, "eigenvalues", "grid.eigenvalues")
    tracer.trace(solver, "rhs", "solver.rhs")
    tracer.trace(solver, "initial_datum", "solver.initial_datum")
    for fn in ("moments", "lp_m_norm", "weighted_gradient_energy"):
        tracer.trace(solver, fn, "fields.recorder")
    tracer.trace(io_cli, "run", "solver.run")
    tracer.trace(io_cli, "parse_config", "io_cli.parse_config")
    tracer.trace(io_cli, "write_trajectory", "io_cli.write_trajectory", after=_directory_bytes)
    tracer.trace(io_cli, "read_trajectory", "io_cli.read_trajectory")
    tracer.trace(io_cli, "write_manifest", "io_cli.write_manifest")
    for fn in ANALYSIS_FUNCTIONS:
        tracer.trace(landau.analysis, fn, f"analysis.{fn}")
