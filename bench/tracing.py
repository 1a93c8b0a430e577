"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the package: `Tracer.install` replaces the
public functions of each layer module (and the tridiagonal eigensolver entry
that `spectra` calls) with timing wrappers, and `Tracer.uninstall` puts the
originals back.  The untraced run never constructs a Tracer.
"""
from __future__ import annotations

import json
import threading
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# layer -> public functions wrapped in the traced run
LAYER_FUNCTIONS = {
    "algebra": ("solve_unirrep",),
    "fock": ("build_rep", "build_generators", "verify_algebra"),
    "specfun": (
        "angular_residual", "kepler_radial_residual", "oscillator_radial_residual",
        "parabolic_residual", "cylindrical_residual",
    ),
    "spectra": (
        "solve_lowest", "kepler_radial_spectrum", "kepler_angular_spectrum",
        "oscillator_radial_spectrum", "oscillator_angular_spectrum",
        "cylindrical_spectrum", "parabolic_quantization",
    ),
    "duality": ("spectrum_identity_check",),
}

EIGENSOLVE = "spectra.eigensolve"


class Tracer:
    """Spans {name, start, end, parent, op, error} kept in memory.

    Parents are tracked per thread, so calls made from worker threads become
    root spans instead of corrupting the caller's stack.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.op: str | None = None
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        rec = {"name": name, "start": perf_counter(), "end": None,
               "parent": stack[-1] if stack else None, "op": self.op,
               "error": None}
        self.spans.append(rec)
        stack.append(len(self.spans) - 1)
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = perf_counter()
            stack.pop()

    def _patch(self, module, attr: str, name: str, on_call=None) -> None:
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                if on_call is not None:
                    on_call(args, kwargs)
                return original(*args, **kwargs)

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def install(self, package) -> None:
        """Wrap each layer's public functions and spectra's eigensolver entry."""
        for layer, names in LAYER_FUNCTIONS.items():
            module = getattr(package, layer)
            for attr in names:
                self._patch(module, attr, f"{layer}.{attr}")

        def count_eigensolve(args, kwargs) -> None:
            self.counts["spectra.eigensolves"] += 1
            self.counts["spectra.mesh_points"] += len(args[0] if args else kwargs["d"])

        # spectra binds the solver at import; a function-level import would
        # read it from scipy.linalg at call time instead
        if hasattr(package.spectra, "eigh_tridiagonal"):
            owner = package.spectra
        else:
            import scipy.linalg as owner
        self._patch(owner, "eigh_tridiagonal", EIGENSOLVE, count_eigensolve)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self, since: int = 0) -> Counter:
        """Seconds of self time (span minus its direct children) per span
        name, over the spans recorded from index `since` on."""
        child = Counter()
        for s in self.spans[since:]:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = Counter()
        for i in range(since, len(self.spans)):
            s = self.spans[i]
            out[s["name"]] += (s["end"] - s["start"]) - child[i]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s}) + "\n")
