"""Reducibility criterion, determinant scan, and the validation harness."""

import concurrent.futures
import json
import multiprocessing
import random
from fractions import Fraction

import pytest

from helpers import RescaledLowering, evaluate, rand_weight, rat
from tcla import (
    Algebra,
    InputError,
    Root,
    TruncatedAlgebra,
    WeightFunctional,
    algebra,
    criterion_reducible,
    cross_validate,
    default_scan_height,
    scan_reducible,
)
from tcla import criterion

ALPHA = Root((1,))


def test_sl2_examples():
    alg = TruncatedAlgebra(algebra("sl2"), 1)
    reducible = criterion_reducible(WeightFunctional([(5,), (0,)]), alg, 2)
    assert reducible.reducible and reducible.witnesses == [ALPHA]
    assert reducible.scanned_height is None
    generic = criterion_reducible(WeightFunctional([(5,), (3,)]), alg, 2)
    assert not generic.reducible and generic.witnesses == []


def test_sl3_orthogonal_to_a_root():
    alg = TruncatedAlgebra(algebra("sl3"), 1)
    w = WeightFunctional([(0, 0), (3, -3)])
    verdict = criterion_reducible(w, alg, 2)
    assert verdict.reducible
    assert verdict.witnesses == [Root((1, 1))]


def test_virasoro_integer_root_search():
    alg = TruncatedAlgebra(algebra("virasoro"), 2)
    # 2m - (m^3 - m)(8/12) = 0 at m = 2
    w = WeightFunctional([(0, 0), (0, 0), (1, -8)])
    verdict = criterion_reducible(w, alg, 4)
    assert verdict.reducible and verdict.witnesses == [Root((2,))]
    assert verdict.scanned_height is None

    # m^3 - 7m has no nonzero integer root
    w2 = WeightFunctional([(0, 0), (0, 0), (-1, 4)])
    assert not criterion_reducible(w2, alg, 4).reducible

    # central value zero: only 2m x = 0 remains, impossible for x != 0
    w3 = WeightFunctional([(0, 0), (0, 0), (5, 0)])
    assert not criterion_reducible(w3, alg, 4).reducible

    # whole top level zero: every m is a witness, listing truncated
    w4 = WeightFunctional([(1, 2), (3, 4), (0, 0)])
    v4 = criterion_reducible(w4, alg, 3)
    assert v4.reducible and v4.witnesses == [Root((1,)), Root((2,)), Root((3,))]
    assert v4.scanned_height == 3


def test_virasoro_witness_beyond_scan_height():
    # top level (-2, 1): m^2 = 1 + 48 = 49, witness m = 7 only
    alg = TruncatedAlgebra(algebra("virasoro"), 1)
    w = WeightFunctional([(0, 0), (-2, 1)])
    verdict = criterion_reducible(w, alg, 4)
    assert verdict.reducible and verdict.witnesses == [Root((7,))]
    # the grade-4 scan cannot see it, and honestly reports no zero
    scan = scan_reducible(w, alg, 4)
    assert not scan.zero_found
    assert not any(x.height <= 4 for x in verdict.witnesses)


def test_virasoro_weight_is_exact_or_refused():
    # top level (-1/10, 3/10): 6*(-1/10) + 2*(3/10) = 0 at m = 3.  A float
    # -0.1 is -3602879701896397/2^55, which kills no coroot, so a float
    # weight would read irreducible where the exact one is reducible.
    alg = TruncatedAlgebra(algebra("virasoro"), 1)
    with pytest.raises(InputError, match="not an exact rational"):
        WeightFunctional([(0, 0), (-0.1, 0.3)])
    w = WeightFunctional([(0, 0), ("-1/10", "3/10")])
    assert criterion_reducible(w, alg, 3).witnesses == [Root((3,))]
    assert scan_reducible(w, alg, 3).zero_chis == [Root((3,))]


def test_oscillator_central_test():
    alg = TruncatedAlgebra(algebra("oscillator"), 2)
    w = WeightFunctional([(1, 1), (2, 2), (3, 0)])
    verdict = criterion_reducible(w, alg, 3)
    assert verdict.reducible
    assert verdict.witnesses == [Root((1,)), Root((2,)), Root((3,))]
    assert verdict.scanned_height == 3
    w2 = WeightFunctional([(1, 0), (2, 0), (3, Fraction(1, 6))])
    v2 = criterion_reducible(w2, alg, 3)
    assert not v2.reducible and v2.scanned_height is None


@pytest.mark.parametrize("name", ["virasoro", "oscillator"])
def test_closed_form_coroot_zeros_match_generic_scan(name):
    # The exact solvers must list, up to the scan height, exactly the roots
    # the generic coroot scan finds.
    base = algebra(name)
    rng = random.Random("coroot-oracle:" + name)
    height = 8
    tops = [(Fraction(0), Fraction(0))]
    tops += [(rat(rng), rat(rng)) for _ in range(60)]
    for m in range(1, 7):
        # x = -(m^2 - 1) y / 24 puts m on the Virasoro cubic.
        y = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
        tops.append((-(m * m - 1) * y / 24, y))
    for top in tops:
        closed, _ = base.coroot_zeros(top, height)
        generic, bound = Algebra.coroot_zeros(base, top, height)
        assert bound == height
        assert [root for root in closed if root.height <= height] == generic, top


def test_rescaled_virasoro_matches_the_base_verdict():
    # Rescaling the lowering vectors leaves the coroots alone, so the verdict
    # and its witnesses are the base algebra's, beyond the height bound too.
    base = algebra("virasoro")
    plain = TruncatedAlgebra(base, 1)
    rescaled = TruncatedAlgebra(RescaledLowering(base, lambda alpha: Fraction(alpha.height + 1)), 1)
    for top in [(1, -8), (5, 0), (0, 0), (-2, 1), (0, 3)]:
        w = WeightFunctional([(0, 0), top])
        assert criterion_reducible(w, rescaled, 4) == criterion_reducible(w, plain, 4)
    verdict = criterion_reducible(WeightFunctional([(0, 0), (-2, 1)]), rescaled, 4)
    assert verdict.reducible and verdict.witnesses == [Root((7,))]


def test_witness_soundness():
    rng = random.Random("witness-soundness")
    for name in ("sl3", "sl4", "virasoro", "oscillator"):
        base = algebra(name)
        alg = TruncatedAlgebra(base, 2)
        for _ in range(25):
            w = rand_weight(rng, base, 2)
            verdict = criterion_reducible(w, alg, 4)
            assert verdict.reducible == bool(verdict.witnesses)
            for alpha in verdict.witnesses:
                assert evaluate(w, base.coroot(alpha), alg.nilp) == 0


def test_scan_examples():
    alg = TruncatedAlgebra(algebra("sl2"), 1)
    generic = scan_reducible(WeightFunctional([(5,), (3,)]), alg, 2)
    assert [(r.chi, r.dimension, r.det) for r in generic.records] == [
        (Root((1,)), 2, Fraction(-9)),
        (Root((2,)), 3, Fraction(-2916)),
    ]
    assert not generic.zero_found

    degenerate = scan_reducible(WeightFunctional([(5,), (0,)]), alg, 2)
    assert degenerate.zero_found
    assert degenerate.zero_chis[0] == ALPHA

    empty = scan_reducible(WeightFunctional([(5,), (3,)]), alg, 0)
    assert empty.records == [] and not empty.zero_found


def test_criterion_depends_only_on_top_level():
    rng = random.Random("top-only")
    for name in ("sl3", "virasoro"):
        base = algebra(name)
        alg = TruncatedAlgebra(base, 2)
        for _ in range(20):
            w1 = rand_weight(rng, base, 2)
            levels = [list(l) for l in rand_weight(rng, base, 2).levels]
            levels[-1] = list(w1.levels[-1])
            w2 = WeightFunctional(levels)
            v1 = criterion_reducible(w1, alg, 3)
            v2 = criterion_reducible(w2, alg, 3)
            assert v1.reducible == v2.reducible
            assert v1.witnesses == v2.witnesses


def test_scan_verdict_depends_only_on_top_level():
    rng = random.Random("scan-top-only")
    base = algebra("sl2")
    alg = TruncatedAlgebra(base, 2)
    for _ in range(10):
        w1 = rand_weight(rng, base, 2)
        levels = [list(l) for l in rand_weight(rng, base, 2).levels]
        levels[-1] = list(w1.levels[-1])
        w2 = WeightFunctional(levels)
        s1 = scan_reducible(w1, alg, 2)
        s2 = scan_reducible(w2, alg, 2)
        assert s1.zero_found == s2.zero_found


def test_default_scan_heights():
    assert default_scan_height(algebra("sl2")) == 2
    assert default_scan_height(algebra("sl4")) == 2
    assert default_scan_height(algebra("virasoro")) == 4
    assert default_scan_height(algebra("oscillator")) == 4


def test_cross_validate_sl2():
    report = cross_validate(algebra("sl2"), 1, 20, seed=7, max_height=2)
    assert report.agreements == 20
    assert report.disagreements == []
    kinds = [rec["kind"] for rec in report.records]
    assert kinds.count("constructed") == 10 and kinds.count("generic") == 10
    for rec in report.records:
        if rec["kind"] == "constructed":
            # the built witness is the single sl2 root, so the scan must
            # find the zero at chi = alpha
            assert rec["criterion_reducible"]
            assert "(1)" in rec["zero_chis"]


def test_cross_validate_is_deterministic():
    r1 = cross_validate(algebra("virasoro"), 1, 6, seed=11, max_height=3)
    r2 = cross_validate(algebra("virasoro"), 1, 6, seed=11, max_height=3)
    assert r1.to_json() == r2.to_json()
    doc = json.loads(json.dumps(r1.to_json()))
    assert set(doc) >= {"samples", "agreements", "disagreements"}
    assert doc["agreements"] == 6


def test_report_counts_are_read_from_its_records():
    report = cross_validate(algebra("sl2"), 1, 3, seed=5, max_height=1)
    assert (report.samples, report.agreements, report.disagreements) == (3, 3, [])
    flipped = report._replace(records=[dict(rec, agree=rec["index"] != 1) for rec in report.records])
    assert (flipped.samples, flipped.agreements, flipped.disagreements) == (3, 2, [1])
    assert flipped.to_text().splitlines()[-2:] == ["agreements: 2/3", "disagreements at samples: 1"]
    doc = flipped.to_json()
    assert (doc["agreements"], doc["disagreements"]) == (2, [1])


def test_cross_validate_uses_the_algebra_it_is_given():
    # A rescaled algebra has no catalog name, so the samples must run on the
    # object itself; rescaling leaves every zero where it was.
    scaled = RescaledLowering(algebra("sl3"), lambda a: Fraction(a.height + 1))
    report = cross_validate(scaled, 1, 2, 0, 2)
    assert report.algebra == "sl3[rescaled]"
    assert report.agreements == 2 and report.disagreements == []
    plain = cross_validate(algebra("sl3"), 1, 2, 0, 2)
    assert [r["zero_chis"] for r in report.records] == [r["zero_chis"] for r in plain.records]


def test_cross_validate_parallel_matches_serial():
    serial = cross_validate(algebra("sl2"), 2, 8, seed=3, max_height=2, workers=1)
    parallel = cross_validate(algebra("sl2"), 2, 8, seed=3, max_height=2, workers=2)
    assert serial.to_json() == parallel.to_json()


def test_pool_runs_an_algebra_that_cannot_be_pickled(monkeypatch):
    # The lambda scale makes the algebra unpicklable, so the pool must not
    # pickle the samples into its tasks.  Two cores make a real pool start.
    monkeypatch.setattr(criterion.os, "cpu_count", lambda: 2)
    scaled = RescaledLowering(algebra("sl3"), lambda a: Fraction(a.height + 1))
    pooled = cross_validate(scaled, 1, 2, 0, 2, workers=2)
    assert pooled.agreements == 2
    assert pooled.to_json() == cross_validate(scaled, 1, 2, 0, 2).to_json()


def test_spawned_workers_run_a_warm_algebra(monkeypatch):
    # Spawn (the macOS default) and forkserver pickle the harness arguments
    # into each worker, so an algebra whose bracket table is already filled
    # must pickle.  Two cores make a real pool start.
    monkeypatch.setattr(criterion.os, "cpu_count", lambda: 2)
    executor = concurrent.futures.ProcessPoolExecutor
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", lambda **kwargs: executor(mp_context=spawn, **kwargs)
    )
    base = algebra("sl3")
    criterion_reducible(WeightFunctional([(1, 2), (3, 4)]), TruncatedAlgebra(base, 1))
    assert base._brackets
    pooled = cross_validate(base, 1, 4, 0, 2, workers=2)
    assert pooled.to_json() == cross_validate(base, 1, 4, 0, 2).to_json()


def test_worker_pool_is_capped_by_samples_and_cores(monkeypatch):
    # A stand-in pool records its size and runs its initializer and the
    # samples in-process, as a worker would: no worker starts.
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(criterion.os, "cpu_count", lambda: 4)
    monkeypatch.setenv("TCLA_THREADS", "abc")  # read by the CLI only
    base = algebra("sl2")
    serial = cross_validate(base, 1, 3, seed=5, max_height=1)
    wide = cross_validate(base, 1, 3, seed=5, max_height=1, workers=10**6)
    assert wide.to_json() == serial.to_json()
    cross_validate(base, 1, 8, seed=5, max_height=1, workers=10**6)
    monkeypatch.setattr(criterion.os, "cpu_count", lambda: None)
    cross_validate(base, 1, 8, seed=5, max_height=1, workers=10**6)
    assert sizes == [3, 4]


def test_validation_argument_errors():
    with pytest.raises(ValueError):
        cross_validate(algebra("sl2"), 1, 0, seed=1, max_height=2)
    with pytest.raises(ValueError):
        cross_validate(algebra("sl3"), 1, 2, 0, max_height=0)
    alg = TruncatedAlgebra(algebra("sl2"), 1)
    with pytest.raises(ValueError):
        criterion_reducible(WeightFunctional([(1,), (1,)]), alg, 0)
    with pytest.raises(ValueError):
        criterion_reducible(WeightFunctional([(1,), (1,), (1,)]), alg, 2)
