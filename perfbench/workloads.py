"""The benchmark's workloads: inputs drawn from a seed, the timed job, and
the per-operation correctness check.

``scan-vir``      determinant scans of two generic Virasoro N=2 weights up
                  to height 4; an operation is one weight's scan.  Each
                  weight's module memo stays warm across chi, and the
                  matrices and determinants are the largest of the three
                  workloads.
``validate-sl3``  ``cross_validate`` of 20 samples on sl3 N=1 up to height 3;
                  an operation is one sample.  Every sample starts a cold
                  module with many small matrices, so straightening,
                  brackets and per-sample overhead count and the
                  determinant does not.
``cli-cold``      a fixed sequence of fresh ``python -m tcla`` processes; an
                  operation is one invocation.  Nothing is reused, so
                  interpreter start, import, argparse and formatting count.

Each job runs inside the timed region.  Jobs call the library through the
``tcla`` package's attributes, which the tracer patches.  The in-process
jobs mark the end of each operation through ``marker``, a function the
runner wraps to read the clock; ``cli-cold`` appends the marks itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import tcla
from tcla import TruncatedAlgebra, WeightFunctional, algebra, criterion_reducible
from tcla import enumerate_monomials, positive_lattice_points
from tcla.rationals import format_rational

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _generic_value(rng: random.Random) -> Fraction:
    # Nonzero numerators: a zero level entry makes the matrices sparser and
    # the run cheaper, which would make the cost depend on the seed.
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 20), rng.randint(1, 6))


def _max_dim(alg: TruncatedAlgebra, height: int) -> int:
    chis = positive_lattice_points(alg.base.simple_generator_count, height)
    return max(len(enumerate_monomials(chi, alg)) for chi in chis)


@dataclass
class Inputs:
    seed: int
    alg: TruncatedAlgebra
    weights: list[WeightFunctional] | None = None  # validate-sl3 draws its own
    weight_file: Path | None = None


# Layers every workload's job runs through (see tracer.LAYERS).
CORE_LAYERS = (
    "weights.enumerate_monomials",
    "verma.VermaModule.act",
    "verma.VermaModule.descend",
    "shapovalov.ascend",
    "shapovalov.shapovalov_matrix",
    "lie_core.Algebra.dual_raising",
    "current.TruncatedAlgebra.bracket",
    "linalg.determinant",
    "criterion.scan_reducible",
)


class Workload:
    name: str
    marker: str | None = None
    layers: tuple[str, ...] = CORE_LAYERS

    def expected(self, inputs: Inputs, reference):
        return reference

    def peak_rss_kib(self, outputs: list) -> int:
        """Peak resident set of the process that ran the jobs: this one."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class ScanVir(Workload):
    name = "scan-vir"
    marker = "criterion.scan_reducible"  # called once per weight

    def __init__(self, height: int = 4, weights: int = 2) -> None:
        self.height = height
        self.weights = weights

    def build(self, seed: int) -> Inputs:
        alg = TruncatedAlgebra(algebra("virasoro"), 2)
        rng = random.Random(f"scan-vir:{seed}")
        weights = []
        while len(weights) < self.weights:
            weight = WeightFunctional([[_generic_value(rng) for _ in range(2)] for _ in range(3)])
            if not criterion_reducible(weight, alg, self.height).reducible:
                weights.append(weight)
        return Inputs(seed, alg, weights)

    def job(self, inputs: Inputs, marks: list[float], tracer=None):
        return [tcla.scan_reducible(weight, inputs.alg, self.height) for weight in inputs.weights]

    def expected(self, inputs: Inputs, reference):
        verdicts = [criterion_reducible(weight, inputs.alg, self.height) for weight in inputs.weights]
        return [verdict.witnesses for verdict in verdicts], reference

    def check(self, inputs: Inputs, reports, expected) -> list[bool]:
        """A weight's scan fails if any chi's determinant is zero where the
        coroot criterion predicts non-zero or the other way round, or, at a
        pinned seed, if any (dim, det) differs from the reference."""
        witnesses, reference = expected
        ok = []
        for j, report in enumerate(reports):
            good = True
            for i, rec in enumerate(report.records):
                zero_expected = any(w.fits_within(rec.chi) for w in witnesses[j])
                good = good and (rec.det == 0) == zero_expected
                if reference is not None:
                    good = good and [rec.dimension, format_rational(rec.det)] == reference[j][i]
            ok.append(good)
        return ok

    def record(self, inputs: Inputs, reports) -> list:
        return [[[rec.dimension, format_rational(rec.det)] for rec in report.records] for report in reports]

    def sizes(self, inputs: Inputs) -> dict:
        return {
            "chis_per_weight": len(positive_lattice_points(1, self.height)),
            "max_dim": _max_dim(inputs.alg, self.height),
            "weights": [[[format_rational(v) for v in level] for level in weight.levels]
                        for weight in inputs.weights],
        }


class ValidateSl3(Workload):
    name = "validate-sl3"
    marker = "criterion.scan_reducible"  # called once per sample, at its end
    layers = CORE_LAYERS + (
        "criterion.criterion_reducible",
        "criterion.cross_validate",
        "rationals.format_rational",
    )

    def __init__(self, samples: int = 20, height: int = 3) -> None:
        self.samples = samples
        self.height = height

    def build(self, seed: int) -> Inputs:
        alg = TruncatedAlgebra(algebra("sl3"), 1)
        return Inputs(seed, alg)

    def job(self, inputs: Inputs, marks: list[float], tracer=None):
        return tcla.cross_validate(inputs.alg.base, inputs.alg.nilp, self.samples, inputs.seed,
                                   max_height=self.height, workers=1)

    def check(self, inputs: Inputs, report, reference) -> list[bool]:
        return [
            rec["agree"] and (reference is None or self._digest(rec) == reference[i])
            for i, rec in enumerate(report.records)
        ]

    def record(self, inputs: Inputs, report) -> list:
        return [self._digest(rec) for rec in report.records]

    @staticmethod
    def _digest(rec: dict) -> str:
        return digest(json.dumps(rec, sort_keys=True).encode())

    def sizes(self, inputs: Inputs) -> dict:
        return {"samples": self.samples, "max_dim": _max_dim(inputs.alg, self.height)}


class CliCold(Workload):
    name = "cli-cold"  # its job marks the end of each invocation itself
    layers = CORE_LAYERS + (
        "criterion.criterion_reducible",
        "cli.main",
        "figures.render_svg",
        "figures.render_csv",
        "rationals.format_rational",
    )

    def build(self, seed: int) -> Inputs:
        alg = TruncatedAlgebra(algebra("sl3"), 1)
        rng = random.Random(f"cli-cold:{seed}")
        levels = [[_generic_value(rng) for _ in range(2)] for _ in range(2)]
        WORK.mkdir(exist_ok=True)
        path = WORK / f"cli-cold-{seed}.json"
        doc = {"levels": [{name: format_rational(v) for name, v in zip(("h1", "h2"), level)}
                          for level in levels]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        return Inputs(seed, alg, [WeightFunctional(levels)], path)

    @staticmethod
    def commands(inputs: Inputs) -> list[list[str]]:
        weight = ["--algebra", "sl3", "--nilp", "1", "--lambda", str(inputs.weight_file.relative_to(ROOT))]
        return [
            ["algebras"],
            ["check", *weight],
            ["shapovalov", *weight, "--chi", "1,1", "--json", "-"],
            ["scan", *weight, "--max-height", "2"],
            ["figure", "--which", "virasoro", "--format", "svg", "--out", "-"],
            ["figure", "--which", "sl3", "--format", "csv", "--out", "-"],
        ]

    def job(self, inputs: Inputs, marks: list[float], tracer=None) -> list[tuple[int, str, int]]:
        """Runs every command in a fresh interpreter; returns (exit code,
        stdout digest, peak RSS in KiB) per invocation."""
        # Imported here so that the set-up probe, which imports this module,
        # times only what build() needs.
        import subprocess
        import time

        # Per-process names, so that concurrent runs in one checkout do not collide.
        spans_file = WORK / f"cli-cold-spans-{os.getpid()}.json"
        errors_file = WORK / f"cli-cold-stderr-{os.getpid()}.txt"
        if tracer is None:
            prefix = [sys.executable, "-m", "tcla"]
        else:
            prefix = [sys.executable, str(Path(__file__).with_name("tracecli.py")), str(spans_file)]
        out = []
        with open(errors_file, "w+b") as errors:
            for args in self.commands(inputs):
                proc = subprocess.Popen(prefix + args, cwd=ROOT, stdout=subprocess.PIPE, stderr=errors)
                stdout = proc.stdout.read()
                proc.stdout.close()
                _pid, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                marks.append(time.perf_counter())
                out.append((proc.returncode, digest(stdout), usage.ru_maxrss))
                if tracer is not None and proc.returncode == 0:
                    saved = json.loads(spans_file.read_text(encoding="utf-8"))
                    tracer.merge(saved["spans"], saved["counters"])
            errors.seek(0)
            sys.stderr.write(errors.read().decode("utf-8", "replace"))
        errors_file.unlink()
        spans_file.unlink(missing_ok=True)
        return out

    def expected(self, inputs: Inputs, reference):
        """Stdout digests: the recorded ones for a pinned seed, else those of
        the same commands run in this process."""
        if reference is not None:
            return reference
        import contextlib
        import io

        from tcla.cli import main

        digests = []
        for args in self.commands(inputs):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                main(args)
            digests.append(digest(buffer.getvalue().encode("utf-8")))
        return digests

    def check(self, inputs: Inputs, outputs, expected) -> list[bool]:
        return [code == 0 and got == want for (code, got, _rss), want in zip(outputs, expected)]

    def peak_rss_kib(self, outputs: list) -> int:
        """Peak resident set of the largest CLI process."""
        return max(rss for job in outputs for _code, _got, rss in job)

    def record(self, inputs: Inputs, outputs) -> list:
        return [got for _code, got, _rss in outputs]

    def sizes(self, inputs: Inputs) -> dict:
        return {"invocations": len(self.commands(inputs)), "max_dim": _max_dim(inputs.alg, 2)}


WORKLOADS = {wl.name: wl for wl in (ScanVir, ValidateSl3, CliCold)}
