"""Command-line interface.

Subcommands: ``algebras``, ``check``, ``shapovalov``, ``scan``,
``validate``, ``figure``.  All numeric output is exact (p/q, never
decimals).  Exit codes: 0 success, 2 usage error, 3 bad input, 4
internal invariant violation.

The CLI parses its flags and files, then leaves each rule to the library
call that states it, which raises ``InputError`` (exit 3) on bad input
and ``InvalidAlgebraError`` (exit 4) on a defect in an algebra's data.
It adds only its own limits, which also exit 3: a weight space past
``MAX_WEIGHT_SPACE``, a ``check`` height or ``figure`` m-max past
``MAX_ROOT_LISTING``, a ``validate`` sample count past ``MAX_SAMPLES``,
the ``--max-height`` floors that its weight-space gate needs, a bad
``TCLA_THREADS`` and an output it cannot write.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import prod

from .criterion import (
    criterion_reducible,
    cross_validate,
    default_scan_height,
    scan_reducible,
)
from .current import TruncatedAlgebra
from .errors import InputError, InvalidAlgebraError, TclaError
from .figures import render_csv, render_svg, sl3_hyperplanes, virasoro_lines
from .lie_core import BUILTIN_ALGEBRAS, Algebra, Root, algebra, root_label
from .rationals import format_rational
from .shapovalov import determinant, matrix_to_json, shapovalov_matrix
from .verma import VermaModule
from .weights import WeightFunctional, check_chi, positive_lattice_points, weight_space_dimension

# The largest weight space, in PBW monomials, that shapovalov, scan and
# validate build; anything larger exits 3.  At the limit sl2 N=1, whose
# monomials have chi factors, is the slowest built-in.  At weight levels
# (5), (3) on a 2-core host, shapovalov --chi 149 takes 8-10 s and a
# 200 MiB peak (under tracemalloc the module and its algebra hold 113 MiB
# of lower-chi matrices and a 57 MiB straightening memo), and
# scan --max-height 149 takes 8.5-9.4 s and a 91 MiB peak, since its
# matrices keep only the diagonal t-degree blocks (13 MiB beside the same
# memo).  Every other built-in takes at most 1.0 s at its largest chi
# under the limit.
MAX_WEIGHT_SPACE = 150

# The largest root listing: the --max-height that check accepts and the
# --m-max that figure accepts; anything larger exits 3.  Both grow linearly
# with it.  When the top level kills every coroot of virasoro or oscillator,
# check lists every root up to the height (a 240 MiB peak and 9.9 MB of
# output at a height of 10^6); figure draws one line per m (at 100,000 the
# csv takes 5.2 s and a 165 MiB peak; at the limit the svg takes 1.3 s and
# 1.3 MB on a 2-core host).
MAX_ROOT_LISTING = 10_000

# The largest --samples that validate accepts; anything larger exits 3.
# Time, memory and the worker pool's queue of pending samples all grow
# linearly with it.  At the limit sl2 N=1 at its default height takes
# 4.6-5.0 s and a 35 MiB peak (67 MiB with --json) on a 2-core host.
MAX_SAMPLES = 10_000


def _load_weight(path: str, base: Algebra, nilp: int) -> WeightFunctional:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read weight file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # Malformed or non-UTF-8 text, an integer past the digit limit, or
        # nesting past the recursion limit.
        raise InputError(f"weight file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "levels" not in doc:
        raise InputError(f'weight file {path} must be an object with a "levels" list')
    levels = doc["levels"]
    if not isinstance(levels, list) or not all(isinstance(l, dict) for l in levels):
        raise InputError(f'"levels" in {path} must be a list of objects')
    return WeightFunctional.from_named(base, nilp, levels)


def _parse_int(text: str) -> int:
    """An optional sign and digits, the integer rule of a weight file;
    ``int`` alone would also read "1_0" as 10.  Digits past the
    interpreter's limit raise ``ValueError`` from ``int``."""
    if not (text[1:] if text[:1] in "+-" else text).isdecimal():
        raise InputError(f"not an integer: {text!r}")
    return int(text)


def _parse_chi(text: str, base: Algebra) -> Root:
    """The --chi text as a weight drop of ``base``, checked here by
    ``check_chi`` so that no size gate refuses a chi that is not one."""
    parts = [p.strip() for p in text.split(",")]
    try:
        chi = Root(tuple(_parse_int(p) for p in parts))
    except ValueError as exc:
        raise InputError(f"chi must be comma-separated integers, got {text!r}") from exc
    check_chi(chi, base)
    return chi


def _load_module_args(args: argparse.Namespace) -> tuple[TruncatedAlgebra, WeightFunctional]:
    """The truncated algebra and the weight named by --algebra, --nilp and --lambda."""
    alg = TruncatedAlgebra(algebra(args.algebra), args.nilp)
    return alg, _load_weight(args.lambda_file, alg.base, alg.nilp)


def _check_at_least(flag: str, value: int, least: int) -> int:
    if value < least:
        raise InputError(f"{flag} must be >= {least}, got {value}")
    return value


def _check_up_to(flag: str, value: int, most: int) -> int:
    if _check_at_least(flag, value, 1) > most:
        raise InputError(f"{flag} must be <= {most}, got {value}")
    return value


def _check_weight_space(chi: Root, alg: TruncatedAlgebra) -> None:
    # The simple-root factors alone make at least prod(chi_i + 1) monomials,
    # so a larger box is refused before counting.
    box = prod(c + 1 for c in chi.coords)
    if box > MAX_WEIGHT_SPACE or weight_space_dimension(chi, alg) > MAX_WEIGHT_SPACE:
        raise InputError(f"the weight space at chi={chi} exceeds the limit of {MAX_WEIGHT_SPACE} monomials")


def _check_scan_height(height: int, alg: TruncatedAlgebra) -> int:
    """Refuse a scan height whose weight spaces exceed the limit.

    Appending a simple-root factor maps the monomials of chi into those of
    chi + alpha_i, so the largest weight spaces lie at the top height; the
    even split of the height, with the largest box, is checked first.
    """
    rank = alg.base.simple_generator_count
    q, rem = divmod(height, rank)
    _check_weight_space(Root(tuple(q + (k < rem) for k in range(rank))), alg)
    for chi in positive_lattice_points(rank, height):
        if chi.height == height:
            _check_weight_space(chi, alg)
    return height


def _threads() -> int:
    """The worker cap from TCLA_THREADS (1 when unset), the only place
    that reads it; ``cross_validate`` also caps the pool at the sample and
    core counts."""
    text = os.environ.get("TCLA_THREADS", "1")
    try:
        workers = _parse_int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise InputError(f"TCLA_THREADS must be a positive integer, got {text!r}")
    return workers


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc


# -- subcommands ----------------------------------------------------------------


def _cmd_algebras(_args: argparse.Namespace) -> None:
    for name in BUILTIN_ALGEBRAS:
        base = algebra(name)
        roots = "finite" if base.finite_roots else "infinite"
        print(
            f"{name}: rank={base.cartan_rank} cartan=[{', '.join(base.cartan_names)}] "
            f"simple_generators={base.simple_generator_count} roots={roots}"
        )


def _cmd_check(args: argparse.Namespace) -> None:
    alg, weight = _load_module_args(args)
    base = alg.base
    height = args.max_height if args.max_height is not None else default_scan_height(base)
    verdict = criterion_reducible(weight, alg, _check_up_to("--max-height", height, MAX_ROOT_LISTING))
    if verdict.reducible:
        labels = ", ".join(root_label(base, w) for w in verdict.witnesses)
        noun = "witness" if len(verdict.witnesses) == 1 else "witnesses"
        suffix = ""
        if verdict.scanned_height is not None:
            suffix = f" (witnesses listed up to height {verdict.scanned_height})"
        print(f"REDUCIBLE, {noun} {labels}{suffix}")
    else:
        print("IRREDUCIBLE")


def _cmd_shapovalov(args: argparse.Namespace) -> None:
    alg, weight = _load_module_args(args)
    chi = _parse_chi(args.chi, alg.base)
    _check_weight_space(chi, alg)
    # No name keeps the module, so its caches are freed before the rows
    # are formatted.
    matrix = shapovalov_matrix(VermaModule(alg, weight), chi)
    doc = matrix_to_json(matrix, determinant(matrix, alg.nilp))
    print(f"chi={chi} size={matrix.size}")
    for row in doc["entries"]:
        print("[" + ", ".join(row) + "]")
    print(f"det = {doc['det']}")
    if args.json:
        _emit(json.dumps(doc, indent=2) + "\n", args.json)


def _cmd_scan(args: argparse.Namespace) -> None:
    alg, weight = _load_module_args(args)
    height = _check_scan_height(_check_at_least("--max-height", args.max_height, 0), alg)
    report = scan_reducible(weight, alg, height)
    for rec in report.records:
        print(f"chi={rec.chi} dim={rec.dimension} det={format_rational(rec.det)}")
    if report.zero_found:
        print("zero determinant at: " + ", ".join(str(c) for c in report.zero_chis))
    else:
        print(f"no zero determinant up to height {report.max_height}")
    if args.json:
        doc = json.dumps(
            {
                "max_height": report.max_height,
                "records": [
                    {
                        "chi": list(r.chi.coords),
                        "dimension": r.dimension,
                        "det": format_rational(r.det),
                    }
                    for r in report.records
                ],
                "zero_found": report.zero_found,
                "zero_chis": [list(c.coords) for c in report.zero_chis],
            },
            indent=2,
        ) + "\n"
        _emit(doc, args.json)


def _cmd_validate(args: argparse.Namespace) -> None:
    alg = TruncatedAlgebra(algebra(args.algebra), args.nilp)
    base = alg.base
    _check_up_to("--samples", args.samples, MAX_SAMPLES)
    height = args.max_height if args.max_height is not None else default_scan_height(base)
    _check_scan_height(_check_at_least("--max-height", height, 1), alg)
    report = cross_validate(base, args.nilp, args.samples, args.seed, height, _threads())
    print(report.to_text())
    if args.json:
        _emit(json.dumps(report.to_json(), indent=2) + "\n", args.json)


def _cmd_figure(args: argparse.Namespace) -> None:
    _check_up_to("--m-max", args.m_max, MAX_ROOT_LISTING)
    if args.which == "sl3":
        ls = sl3_hyperplanes()
    else:
        ls = virasoro_lines(args.m_max)
    text = render_csv(ls) if args.format == "csv" else render_svg(ls)
    _emit(text, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcla",
        description="Exact Verma-module computations over truncated current Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("algebras", help="list built-in algebras").set_defaults(func=_cmd_algebras)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--algebra", required=True, help="algebra name (see `tcla algebras`)")
        p.add_argument("--nilp", required=True, type=int, help="nilpotency order N >= 1")
        p.add_argument(
            "--lambda", dest="lambda_file", required=True, metavar="FILE",
            help='weight JSON: {"levels": [{<cartan_name>: "p/q", ...}, ...]}',
        )

    p_check = sub.add_parser("check", help="run the reducibility criterion")
    common(p_check)
    p_check.add_argument("--max-height", type=int, default=None)
    p_check.set_defaults(func=_cmd_check)

    p_shap = sub.add_parser("shapovalov", help="print one Shapovalov matrix and determinant")
    common(p_shap)
    p_shap.add_argument("--chi", required=True, help="weight drop, e.g. 1,1")
    p_shap.add_argument("--json", metavar="PATH", default=None, help="also write JSON ('-' = stdout)")
    p_shap.set_defaults(func=_cmd_shapovalov)

    p_scan = sub.add_parser("scan", help="scan determinants over all weight drops up to a height")
    common(p_scan)
    p_scan.add_argument("--max-height", type=int, required=True)
    p_scan.add_argument("--json", metavar="PATH", default=None)
    p_scan.set_defaults(func=_cmd_scan)

    p_val = sub.add_parser("validate", help="cross-validate criterion vs determinant scan")
    p_val.add_argument("--algebra", required=True)
    p_val.add_argument("--nilp", required=True, type=int)
    p_val.add_argument("--samples", required=True, type=int)
    p_val.add_argument("--seed", required=True, type=int)
    p_val.add_argument("--max-height", type=int, default=None)
    p_val.add_argument("--json", metavar="PATH", default=None)
    p_val.set_defaults(func=_cmd_validate)

    p_fig = sub.add_parser("figure", help="emit a reducibility-locus arrangement")
    p_fig.add_argument("--which", required=True, choices=("sl3", "virasoro"))
    p_fig.add_argument("--m-max", type=int, default=4)
    p_fig.add_argument("--format", required=True, choices=("csv", "svg"))
    p_fig.add_argument("--out", required=True, help="output path, '-' for stdout")
    p_fig.set_defaults(func=_cmd_figure)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if sys.stdout is None:  # started with descriptor 1 closed
            raise InputError("standard output is closed")
        args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The interpreter's exit flush of what is still buffered goes nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output is closed", file=sys.stderr)
        return 3
    except InvalidAlgebraError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except TclaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def entry() -> None:
    sys.exit(main())
