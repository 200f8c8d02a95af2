"""Reducibility of Verma modules: top-level criterion and determinant scan.

The criterion evaluates the top component of the weight functional on the
coroot of each positive root; the module is reducible exactly when some
coroot is annihilated.  Each algebra lists those roots itself through
``Algebra.coroot_zeros``: sl(n) scans its full finite root list, the
Virasoro algebra solves 2m x + (m^3 - m)/12 y = 0 exactly over the
nonzero integers, and the oscillator algebra reduces to the single
central test y = 0.  So the boolean verdict is exact for every built-in;
only the *listing* of witnesses is height-truncated when all positive
roots qualify at once.  Any other infinite algebra falls back to the
generic coroot scan up to the height bound.

The scan side computes exact Shapovalov determinants for every weight
drop up to a height bound, and the cross-validation harness compares the
two verdicts on randomly drawn weights.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from sys import intern
from typing import NamedTuple

from .current import TruncatedAlgebra
from .lie_core import Algebra, Root
from .rationals import format_rational
from .shapovalov import determinant, shapovalov_matrix
from .verma import VermaModule
from .weights import WeightFunctional, check_weight, positive_lattice_points


class Verdict(NamedTuple):
    """Outcome of the coroot criterion.

    ``witnesses`` lists positive roots whose coroot the top weight level
    annihilates, and the module is reducible exactly when there is one.
    ``scanned_height`` is None when that list is exhaustive; it carries the
    listing bound when every positive root of an infinite system qualifies
    (the verdict itself is still exact).
    """

    witnesses: list[Root]
    scanned_height: int | None

    @property
    def reducible(self) -> bool:
        return bool(self.witnesses)


class ScanRecord(NamedTuple):
    chi: Root
    dimension: int
    det: Fraction


class ScanReport(NamedTuple):
    max_height: int
    records: list[ScanRecord]

    @property
    def zero_chis(self) -> list[Root]:
        return [r.chi for r in self.records if r.det == 0]

    @property
    def zero_found(self) -> bool:
        return bool(self.zero_chis)


def default_scan_height(base: Algebra) -> int:
    """Default scan/witness depth: full-height coverage for the finite
    built-ins, grade 4 for the infinite ones."""
    return 2 if base.finite_roots else 4


def criterion_reducible(
    weight: WeightFunctional,
    alg: TruncatedAlgebra,
    max_root_height: int | None = None,
) -> Verdict:
    """Evaluate the coroot criterion on the top level of ``weight``."""
    if max_root_height is None:
        max_root_height = default_scan_height(alg.base)
    if max_root_height < 1:
        raise ValueError("max_root_height must be >= 1")
    check_weight(weight, alg)
    top = weight.level(alg.nilp)
    witnesses, scanned = alg.base.coroot_zeros(top, max_root_height)
    return Verdict(witnesses, scanned)


def scan_reducible(weight: WeightFunctional, alg: TruncatedAlgebra, max_height: int) -> ScanReport:
    """Exact Shapovalov determinants for every weight drop of height <=
    max_height, in canonical order.

    Each determinant is read from a matrix built only at and above the
    diagonal blocks of the t-degree order (``shapovalov_matrix`` with
    ``blocks=True``), since no determinant reads the entries below them.
    """
    if max_height < 0:
        raise ValueError("max_height must be >= 0")
    module = VermaModule(alg, weight)
    records: list[ScanRecord] = []
    for chi in positive_lattice_points(alg.base.simple_generator_count, max_height):
        matrix = shapovalov_matrix(module, chi, blocks=True)
        records.append(ScanRecord(chi=chi, dimension=matrix.size, det=determinant(matrix, alg.nilp)))
    return ScanReport(max_height=max_height, records=records)


# -- cross-validation harness --------------------------------------------------


class ValidationReport(NamedTuple):
    """One record per sample, as ``_run_sample`` returns it; the counts are
    read from the records."""

    algebra: str
    nilp: int
    seed: int
    max_height: int
    records: list[dict]

    @property
    def samples(self) -> int:
        return len(self.records)

    @property
    def disagreements(self) -> list[int]:
        return [rec["index"] for rec in self.records if not rec["agree"]]

    @property
    def agreements(self) -> int:
        return sum(rec["agree"] for rec in self.records)

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra,
            "nilp": self.nilp,
            "seed": self.seed,
            "max_height": self.max_height,
            "samples": self.records,
            "agreements": self.agreements,
            "disagreements": self.disagreements,
        }

    def to_text(self) -> str:
        lines = [
            f"cross-validation: algebra={self.algebra} nilp={self.nilp} "
            f"samples={self.samples} seed={self.seed} max_height={self.max_height}"
        ]
        for rec in self.records:
            where = ""
            if rec["witnesses"]:
                where += " witnesses=" + ",".join(rec["witnesses"])
            if rec["zero_chis"]:
                where += " zero_at=" + ",".join(rec["zero_chis"])
            lines.append(
                f"  sample {rec['index']:>3} {rec['kind']:<11} "
                f"criterion={'reducible' if rec['criterion_reducible'] else 'irreducible'} "
                f"scan={'zero' if rec['scan_zero_found'] else 'no-zero'} "
                f"agree={'yes' if rec['agree'] else 'NO'}{where}"
            )
        lines.append(f"agreements: {self.agreements}/{self.samples}")
        if self.disagreements:
            lines.append("disagreements at samples: " + ", ".join(map(str, self.disagreements)))
        else:
            lines.append("disagreements: none")
        return "\n".join(lines)


def _run_sample(base: Algebra, nilp: int, seed: int, max_height: int, index: int) -> dict:
    """Deterministically draw sample ``index`` and run both verdicts on it:
    odd indices are constructed to satisfy the criterion for a random
    witness root within the scan height."""
    rng = random.Random(f"{seed}:{index}")
    levels = [
        [Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(base.cartan_rank)]
        for _ in range(nilp + 1)
    ]
    kind = "constructed" if index % 2 == 1 else "generic"
    witness: tuple[int, ...] | None = None
    if kind == "constructed":
        alpha = rng.choice(base.positive_roots(max_height))
        h = base.coroot(alpha)
        pivot = rng.choice([k for k, c in enumerate(h) if c])
        top = levels[nilp]
        top[pivot] = -sum(top[j] * h[j] for j in range(len(h)) if j != pivot) / h[pivot]
        witness = alpha.coords
    alg = TruncatedAlgebra(base, nilp)
    weight = WeightFunctional(levels)
    verdict = criterion_reducible(weight, alg, max_height)
    scan = scan_reducible(weight, alg, max_height)
    # Compare at matched scope: the scan can only see zeros whose witness
    # root lies within its height bound.
    expected_zero = any(w.height <= max_height for w in verdict.witnesses)
    agree = expected_zero == scan.zero_found
    # The same few root labels recur in every record; interned, the records
    # a caller keeps share one string per label.
    return {
        "index": index,
        "kind": kind,
        "lambda": [[format_rational(v) for v in level] for level in levels],
        "constructed_witness": list(witness) if witness is not None else None,
        "criterion_reducible": verdict.reducible,
        "witnesses": [intern(str(w)) for w in verdict.witnesses],
        "witnesses_within_height": expected_zero,
        "scan_zero_found": scan.zero_found,
        "zero_chis": [intern(str(c)) for c in scan.zero_chis],
        "dets": [[intern(str(r.chi)), format_rational(r.det)] for r in scan.records],
        "agree": agree,
    }


# The harness arguments of the current pool, set in each worker by _init_worker.
_worker_harness: tuple = ()


def _init_worker(*harness) -> None:
    global _worker_harness
    _worker_harness = harness


def _run_worker_sample(index: int) -> dict:
    return _run_sample(*_worker_harness, index)


def cross_validate(
    base: Algebra,
    nilp: int,
    samples: int,
    seed: int,
    max_height: int | None = None,
    workers: int = 1,
) -> ValidationReport:
    """Draw ``samples`` random weights (half generic, half constructed
    reducible), run both verdicts on each, and report every comparison.

    Deterministic for a fixed seed regardless of worker count.  ``workers``
    caps the process pool, which never exceeds the sample count or the
    core count, since every worker process starts up front.  Every sample
    runs on ``base`` itself, so its bracket table serves them all.  A pool
    hands the harness arguments (``base``, ``nilp``, ``seed``,
    ``max_height``) to each worker once, through the worker initializer,
    and then sends only sample indices; each sample is drawn from its own
    seeded generator where it runs.  Forked workers inherit the arguments,
    and under spawn or forkserver they are pickled once per worker.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if max_height is None:
        max_height = default_scan_height(base)
    if max_height < 1:
        raise ValueError("max_height must be >= 1")
    harness = (base, nilp, seed, max_height)
    workers = min(workers, samples, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=harness) as pool:
            records = list(pool.map(_run_worker_sample, range(samples)))
    else:
        records = [_run_sample(*harness, i) for i in range(samples)]
    return ValidationReport(base.name, nilp, seed, max_height, records)
