"""Span tracing of tcla's public functions, installed from outside the package.

A span is one call of a wrapped function: its name, start, end and the
index of the span that was open when it began (-1 at top level).  Spans are
kept in memory and summarised at the end; a span's self time is its
duration minus the durations of its direct children, which nest inside it
because the traced code is single-threaded.

Wrapping replaces a function at its definition and at every ``tcla`` module
that imported it by name (``from .shapovalov import shapovalov_matrix``
copies the binding), and puts the originals back afterwards.  A layer name
that no longer resolves is reported as absent instead of raising, so a
refactor that deletes or renames a function does not break the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterator

PACKAGE = "tcla"

# Layer boundaries, as "<module>.<function>" or "<module>.<Class>.<method>".
LAYERS = (
    "weights.enumerate_monomials",
    "verma.VermaModule.act",
    "verma.VermaModule.descend",
    "shapovalov.ascend",
    "shapovalov.shapovalov_matrix",
    "lie_core.Algebra.dual_raising",
    "current.TruncatedAlgebra.bracket",
    "linalg.determinant",
    "criterion.criterion_reducible",
    "criterion.scan_reducible",
    "criterion.cross_validate",
    "cli.main",
    "figures.render_svg",
    "figures.render_csv",
    "rationals.format_rational",
)
# Span of ``import tcla`` in a fresh CLI process, recorded by tracecli.py.
IMPORT = "import.tcla"


def _count_entries(counters: dict, args: tuple, result) -> None:
    n = len(result.entries)
    key = "shapovalov.shapovalov_matrix.entries"
    counters[key] = counters.get(key, 0) + n * n


def _determinant_sizes(counters: dict, args: tuple, result) -> None:
    dim = len(args[0])
    bits = max(result.numerator.bit_length(), result.denominator.bit_length())
    counters["linalg.determinant.max_dim"] = max(counters.get("linalg.determinant.max_dim", 0), dim)
    counters["linalg.determinant.max_bits"] = max(counters.get("linalg.determinant.max_bits", 0), bits)


# Counters read from a layer's arguments and result.
OBSERVERS: dict[str, Callable[[dict, tuple, object], None]] = {
    "shapovalov.shapovalov_matrix": _count_entries,
    "linalg.determinant": _determinant_sizes,
}
MAX_COUNTERS = ("linalg.determinant.max_dim", "linalg.determinant.max_bits")
COUNTERS = ("shapovalov.shapovalov_matrix.entries",) + MAX_COUNTERS


class Tracer:
    """Collects spans and counters in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        spans, open_spans, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            spans.append(span)
            open_spans.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()
            if observe is not None:
                observe(self.counters, args, result)
            return result

        return traced

    def merge(self, spans: list[list], counters: dict[str, int]) -> None:
        """Append spans recorded elsewhere (another process), re-indexing parents."""
        offset = len(self.spans)
        for name, start, end, parent in spans:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1])
        for key, value in counters.items():
            if key in MAX_COUNTERS:
                self.counters[key] = max(self.counters.get(key, 0), value)
            else:
                self.counters[key] = self.counters.get(key, 0) + value


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans: list[list]) -> dict[str, tuple[int, float]]:
    """Calls and total self time per span name."""
    out: dict[str, tuple[int, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        calls, total = out.get(span[0], (0, 0.0))
        out[span[0]] = (calls + 1, total + own)
    return out


def resolve(name: str):
    """``(owner, attribute, function)`` for a layer name, or None when absent."""
    module_name, *path = name.split(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    for part in path[:-1]:
        owner = getattr(owner, part, None)
        if not isinstance(owner, type):
            return None
    attr = path[-1]
    fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(fn):
        return None
    return owner, attr, fn


@contextmanager
def patched(wrappers: dict[str, Callable[[Callable], Callable]]) -> Iterator[list[str]]:
    """Replace each named layer by ``make(original)`` for the duration of the
    block; yields the names that could not be resolved."""
    undo: list[tuple[object, str, object]] = []
    # Resolve every name first: resolving imports modules whose bindings
    # must be patched too.
    found = {name: resolve(name) for name in wrappers}
    absent = [name for name, where in found.items() if where is None]
    try:
        for name, make in wrappers.items():
            if found[name] is None:
                continue
            owner, attr, fn = found[name]
            wrapper = make(fn)
            if isinstance(owner, type):
                sites = [(owner, attr)]
            else:
                sites = [
                    (module, key)
                    for module_name, module in list(sys.modules.items())
                    if module is not None
                    and (module_name == PACKAGE or module_name.startswith(PACKAGE + "."))
                    for key, value in list(vars(module).items())
                    if value is fn
                ]
            for site, key in sites:
                undo.append((site, key, fn))
                setattr(site, key, wrapper)
        yield absent
    finally:
        for site, key, fn in reversed(undo):
            setattr(site, key, fn)


def traced_layers(tracer: Tracer, names=LAYERS):
    """``patched`` with every layer wrapped in ``tracer``'s spans."""
    def span_wrapper(name: str) -> Callable[[Callable], Callable]:
        return lambda fn: tracer.wrap(name, fn, OBSERVERS.get(name))

    return patched({name: span_wrapper(name) for name in names})
