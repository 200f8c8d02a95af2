"""Command-line surface: outputs, JSON schemas and exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import determinant_law
from tcla import Root, ShapovalovMatrix, TruncatedAlgebra, WeightFunctional, algebra
from tcla import cli
from tcla.cli import main
from tcla.rationals import format_rational


def write_weight(tmp_path, doc, name="lambda.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


SL2_WEIGHT = {"levels": [{"h1": "5"}, {"h1": "3"}]}
VIR_WEIGHT = {"levels": [{}, {}, {"L0": "1", "c": "-8"}]}
GOLDEN = Path(__file__).parent / "golden"


def test_algebras_listing(capsys):
    assert main(["algebras"]) == 0
    out = capsys.readouterr().out
    for name in ("sl2", "sl3", "sl4", "virasoro", "oscillator"):
        assert name in out
    assert "rank=2" in out and "roots=infinite" in out


def test_shapovalov_command(tmp_path, capsys):
    lam = write_weight(tmp_path, SL2_WEIGHT)
    code = main(["shapovalov", "--algebra", "sl2", "--nilp", "1", "--lambda", lam, "--chi", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[5, 3]" in out
    assert "[3, 0]" in out
    assert "det = -9" in out


def test_shapovalov_json_export(tmp_path, capsys):
    lam = write_weight(tmp_path, SL2_WEIGHT)
    out_path = tmp_path / "matrix.json"
    code = main(
        ["shapovalov", "--algebra", "sl2", "--nilp", "1", "--lambda", lam,
         "--chi", "1", "--json", str(out_path)]
    )
    assert code == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["chi"] == [1]
    assert doc["entries"] == [["5", "3"], ["3", "0"]]
    assert doc["det"] == "-9"
    assert doc["monomials"] == ["f(1)[0]@0", "f(1)[0]@1"]


def test_shapovalov_json_builds_the_dense_view_once(tmp_path, capsys, monkeypatch):
    reads = []
    dense = ShapovalovMatrix.entries.fget
    monkeypatch.setattr(ShapovalovMatrix, "entries", property(lambda self: reads.append(1) or dense(self)))
    lam = write_weight(tmp_path, SL2_WEIGHT)
    args = ["shapovalov", "--algebra", "sl2", "--nilp", "1", "--lambda", lam, "--chi", "2"]
    assert main(args) == 0
    text = capsys.readouterr().out
    assert main(args + ["--json", "-"]) == 0
    out = capsys.readouterr().out
    assert reads == [1, 1]
    # The matrix rows print from the same strings as the JSON entries.
    assert out.startswith(text)
    doc = json.loads(out[len(text):])
    assert text.splitlines()[1:-1] == ["[" + ", ".join(row) + "]" for row in doc["entries"]]
    assert text.splitlines()[-1] == f"det = {doc['det']}"


def test_shapovalov_at_dimension_108_matches_the_product_law(tmp_path, capsys):
    doc = {"levels": [{"L0": "3/2", "c": "-1"}, {"L0": "2", "c": "1/3"}, {"L0": "-5/4", "c": "7"}]}
    lam = write_weight(tmp_path, doc)
    code = main(["shapovalov", "--algebra", "virasoro", "--nilp", "2", "--lambda", lam, "--chi", "5"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "chi=(5) size=108"
    base = algebra("virasoro")
    alg = TruncatedAlgebra(base, 2)
    levels = [{name: Fraction(value) for name, value in level.items()} for level in doc["levels"]]
    weight = WeightFunctional.from_named(base, 2, levels)
    assert lines[-1] == f"det = {format_rational(determinant_law(alg, weight, Root((5,))))}"


# Full stdout of sl(n) and rank-one commands, --json output included, pinned
# byte for byte.  The weight files live beside the goldens.
GOLDEN_COMMANDS = [
    ("sl3_shapovalov.txt", ["shapovalov", "--algebra", "sl3", "--nilp", "1",
                            "--lambda", "sl3_lambda.json", "--chi", "2,1", "--json", "-"]),
    ("sl4_scan.txt", ["scan", "--algebra", "sl4", "--nilp", "1",
                      "--lambda", "sl4_lambda.json", "--max-height", "3", "--json", "-"]),
    ("sl3_validate.txt", ["validate", "--algebra", "sl3", "--nilp", "1", "--samples", "10",
                          "--seed", "3", "--max-height", "2", "--json", "-"]),
    ("sl4_check.txt", ["check", "--algebra", "sl4", "--nilp", "1", "--lambda", "sl4_lambda.json"]),
    ("virasoro_scan.txt", ["scan", "--algebra", "virasoro", "--nilp", "2",
                           "--lambda", "virasoro_lambda.json", "--max-height", "4", "--json", "-"]),
    ("oscillator_scan.txt", ["scan", "--algebra", "oscillator", "--nilp", "1",
                             "--lambda", "oscillator_lambda.json", "--max-height", "4", "--json", "-"]),
]


@pytest.mark.parametrize("fname, argv", GOLDEN_COMMANDS)
def test_sl_command_output_matches_its_golden(fname, argv, capsys):
    argv = [str(GOLDEN / a) if a.endswith("_lambda.json") else a for a in argv]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode("utf-8") == (GOLDEN / fname).read_bytes()


def test_check_virasoro_reducible(tmp_path, capsys):
    lam = write_weight(tmp_path, VIR_WEIGHT)
    code = main(["check", "--algebra", "virasoro", "--nilp", "2", "--lambda", lam])
    assert code == 0
    assert "REDUCIBLE, witness m=2" in capsys.readouterr().out


def test_check_irreducible(tmp_path, capsys):
    lam = write_weight(tmp_path, SL2_WEIGHT)
    code = main(["check", "--algebra", "sl2", "--nilp", "1", "--lambda", lam])
    assert code == 0
    assert "IRREDUCIBLE" in capsys.readouterr().out


def test_scan_command(tmp_path, capsys):
    lam = write_weight(tmp_path, {"levels": [{"h1": "5"}, {"h1": "0"}]})
    out_json = tmp_path / "scan.json"
    code = main(
        ["scan", "--algebra", "sl2", "--nilp", "1", "--lambda", lam,
         "--max-height", "2", "--json", str(out_json)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "zero determinant at: (1)" in out
    doc = json.loads(out_json.read_text(encoding="utf-8"))
    assert doc["zero_found"] is True
    assert doc["zero_chis"][0] == [1]


def test_validate_command(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    args = ["validate", "--algebra", "sl2", "--nilp", "1", "--samples", "8",
            "--seed", "5", "--max-height", "2", "--json", str(out_json)]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "agreements: 8/8" in first
    doc = json.loads(out_json.read_text(encoding="utf-8"))
    assert set(doc) >= {"samples", "agreements", "disagreements"}
    assert doc["disagreements"] == []
    # byte-determinism of the streamed report
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_figure_command(tmp_path, capsys):
    assert main(["figure", "--which", "sl3", "--format", "csv", "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["label,n1,n2", "alpha1,1,0", "alpha2,0,1", "alpha1+alpha2,1,1"]
    svg_path = tmp_path / "fig.svg"
    assert main(["figure", "--which", "virasoro", "--m-max", "3", "--format", "svg",
                 "--out", str(svg_path)]) == 0
    assert svg_path.read_text(encoding="utf-8").startswith("<svg ")


def test_unknown_algebra_exit_code(tmp_path, capsys):
    lam = write_weight(tmp_path, SL2_WEIGHT)
    code = main(["check", "--algebra", "e8", "--nilp", "1", "--lambda", lam])
    assert code == 3
    assert "unknown algebra" in capsys.readouterr().err


def test_bad_nilp_exit_code(tmp_path, capsys):
    lam = write_weight(tmp_path, SL2_WEIGHT)
    code = main(["check", "--algebra", "sl2", "--nilp", "0", "--lambda", lam])
    assert code == 3
    assert "nilp" in capsys.readouterr().err


def test_wrong_level_count_exit_code(tmp_path, capsys):
    lam = write_weight(tmp_path, SL2_WEIGHT)  # two levels
    code = main(["check", "--algebra", "sl2", "--nilp", "2", "--lambda", lam])
    assert code == 3
    assert "levels" in capsys.readouterr().err


def test_bad_rational_exit_code(tmp_path, capsys):
    lam = write_weight(tmp_path, {"levels": [{"h1": "5"}, {"h1": "0.25"}]})
    code = main(["check", "--algebra", "sl2", "--nilp", "1", "--lambda", lam])
    assert code == 3
    assert "rational" in capsys.readouterr().err


def test_unknown_cartan_name_exit_code(tmp_path, capsys):
    lam = write_weight(tmp_path, {"levels": [{"h1": "5"}, {"zz": "1"}]})
    code = main(["check", "--algebra", "sl2", "--nilp", "1", "--lambda", lam])
    assert code == 3
    assert "Cartan name" in capsys.readouterr().err


def test_chi_arity_exit_code(tmp_path, capsys):
    lam = write_weight(tmp_path, SL2_WEIGHT)
    code = main(["shapovalov", "--algebra", "sl2", "--nilp", "1", "--lambda", lam, "--chi", "1,1"])
    assert code == 3
    assert "coordinates" in capsys.readouterr().err


def test_negative_chi_is_refused_for_its_sign(tmp_path, capsys):
    # The box of (-200,-200) holds 39,601 points, past the weight-space
    # limit; the sign rule must answer first.
    lam = write_weight(tmp_path, {"levels": [{}, {}]})
    code = main(["shapovalov", "--algebra", "sl3", "--nilp", "1", "--lambda", lam, "--chi=-200,-200"])
    assert code == 3
    assert capsys.readouterr().err == "error: chi coordinates must be nonnegative, got (-200,-200)\n"


@pytest.mark.parametrize("chi", ["1_0", "+1_0"])
def test_chi_takes_a_sign_and_digits_only(tmp_path, capsys, chi):
    # int() alone reads Python's digit grouping "1_0" as 10
    lam = write_weight(tmp_path, SL2_WEIGHT)
    code = main(["shapovalov", "--algebra", "sl2", "--nilp", "1", "--lambda", lam, "--chi", chi])
    assert_input_error(capsys, code)
    assert main(["shapovalov", "--algebra", "sl2", "--nilp", "1", "--lambda", lam, "--chi", " +1 "]) == 0
    assert capsys.readouterr().out.startswith("chi=(1) size=2\n")


def assert_input_error(capsys, code):
    # exit 3 with one "error:" line and no traceback
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_scan_negative_height_exit_code(tmp_path, capsys):
    lam = write_weight(tmp_path, SL2_WEIGHT)
    code = main(["scan", "--algebra", "sl2", "--nilp", "1", "--lambda", lam, "--max-height", "-1"])
    assert_input_error(capsys, code)


def test_oversized_weight_space_exit_code(tmp_path, capsys):
    # dim 1101 at chi = 1100; refused from the box bound, before any counting
    lam = write_weight(tmp_path, SL2_WEIGHT)
    code = main(["shapovalov", "--algebra", "sl2", "--nilp", "1", "--lambda", lam, "--chi", "1100"])
    assert_input_error(capsys, code)


def test_oversized_scan_height_exit_code(tmp_path, capsys):
    lam = write_weight(tmp_path, SL2_WEIGHT)
    code = main(["scan", "--algebra", "sl2", "--nilp", "1", "--lambda", lam, "--max-height", "400"])
    assert_input_error(capsys, code)


def test_oversized_validate_height_exit_code(capsys):
    # sl3 N=2 at (3,3) fits its box of 16 but has more than 150 monomials
    code = main(["validate", "--algebra", "sl3", "--nilp", "2", "--samples", "2",
                 "--seed", "1", "--max-height", "6"])
    assert_input_error(capsys, code)


def test_weight_space_at_the_limit_is_accepted(tmp_path, capsys, monkeypatch):
    # The limit bounds the dimension itself: under a limit of 4, sl2 N=1
    # builds chi = 3 (dim 4) and refuses chi = 4 (dim 5).
    monkeypatch.setattr(cli, "MAX_WEIGHT_SPACE", 4)
    lam = write_weight(tmp_path, SL2_WEIGHT)
    assert main(["shapovalov", "--algebra", "sl2", "--nilp", "1", "--lambda", lam, "--chi", "3"]) == 0
    assert capsys.readouterr().out.startswith("chi=(3) size=4\n")
    code = main(["shapovalov", "--algebra", "sl2", "--nilp", "1", "--lambda", lam, "--chi", "4"])
    assert_input_error(capsys, code)


def test_check_height_at_the_limit_is_accepted(tmp_path, capsys, monkeypatch):
    # A zero top level kills every Virasoro coroot, so check lists every
    # root up to the height; past the limit it refuses instead.
    monkeypatch.setattr(cli, "MAX_ROOT_LISTING", 5)
    lam = write_weight(tmp_path, {"levels": [{}, {}]})
    assert main(["check", "--algebra", "virasoro", "--nilp", "1", "--lambda", lam, "--max-height", "5"]) == 0
    assert capsys.readouterr().out == (
        "REDUCIBLE, witnesses m=1, m=2, m=3, m=4, m=5 (witnesses listed up to height 5)\n"
    )
    code = main(["check", "--algebra", "virasoro", "--nilp", "1", "--lambda", lam, "--max-height", "6"])
    assert_input_error(capsys, code)


def test_check_height_past_the_limit_exit_code(tmp_path, capsys):
    lam = write_weight(tmp_path, {"levels": [{}, {}]})
    height = str(cli.MAX_ROOT_LISTING + 1)
    code = main(["check", "--algebra", "oscillator", "--nilp", "1", "--lambda", lam, "--max-height", height])
    assert_input_error(capsys, code)


def test_check_zero_height_exit_code(tmp_path, capsys):
    lam = write_weight(tmp_path, SL2_WEIGHT)
    code = main(["check", "--algebra", "sl2", "--nilp", "1", "--lambda", lam, "--max-height", "0"])
    assert_input_error(capsys, code)


def test_validate_zero_height_exit_code(capsys):
    code = main(["validate", "--algebra", "sl2", "--nilp", "1", "--samples", "2",
                 "--seed", "1", "--max-height", "0"])
    assert_input_error(capsys, code)


def test_figure_zero_m_max_exit_code(capsys):
    code = main(["figure", "--which", "virasoro", "--m-max", "0", "--format", "csv", "--out", "-"])
    assert_input_error(capsys, code)


def test_figure_m_max_at_the_limit_is_accepted(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_ROOT_LISTING", 3)
    assert main(["figure", "--which", "virasoro", "--m-max", "3", "--format", "csv", "--out", "-"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4  # a header and one line per m
    code = main(["figure", "--which", "virasoro", "--m-max", "4", "--format", "csv", "--out", "-"])
    assert_input_error(capsys, code)


def test_figure_m_max_past_the_limit_exit_code(capsys):
    m_max = str(cli.MAX_ROOT_LISTING + 1)
    for which in ("virasoro", "sl3"):
        code = main(["figure", "--which", which, "--m-max", m_max, "--format", "svg", "--out", "-"])
        assert_input_error(capsys, code)


def test_validate_samples_at_the_limit_is_accepted(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_SAMPLES", 2)
    argv = ["validate", "--algebra", "sl2", "--nilp", "1", "--seed", "1", "--max-height", "1", "--samples"]
    assert main(argv + ["2"]) == 0
    assert "agreements: 2/2\n" in capsys.readouterr().out
    assert_input_error(capsys, main(argv + ["3"]))


def test_validate_samples_past_the_limit_exit_code(capsys, monkeypatch):
    # Refused before any sample runs.
    monkeypatch.setattr(cli, "cross_validate", lambda *args: pytest.fail("validate ran past the limit"))
    code = main(["validate", "--algebra", "sl2", "--nilp", "1", "--samples", str(cli.MAX_SAMPLES + 1),
                 "--seed", "1", "--max-height", "1"])
    assert_input_error(capsys, code)


def test_bad_thread_count_exit_code(monkeypatch, capsys):
    monkeypatch.setenv("TCLA_THREADS", "abc")
    code = main(["validate", "--algebra", "sl2", "--nilp", "1", "--samples", "2",
                 "--seed", "1", "--max-height", "1"])
    assert_input_error(capsys, code)


@pytest.mark.parametrize("text", ["1_0", " 4 "])
def test_thread_count_is_digits_only(monkeypatch, capsys, text):
    # int() alone would read "1_0" as 10 and " 4 " as 4; --chi refuses both.
    monkeypatch.setattr(cli, "cross_validate", lambda *args: pytest.fail("validate ran"))
    monkeypatch.setenv("TCLA_THREADS", text)
    code = main(["validate", "--algebra", "sl2", "--nilp", "1", "--samples", "2",
                 "--seed", "1", "--max-height", "1"])
    assert code == 3
    assert capsys.readouterr().err == f"error: TCLA_THREADS must be a positive integer, got {text!r}\n"


def test_figure_out_into_missing_directory_exit_code(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    code = main(["figure", "--which", "sl3", "--format", "csv", "--out", str(out)])
    assert_input_error(capsys, code)


def test_scan_json_into_missing_directory_exit_code(tmp_path, capsys):
    lam = write_weight(tmp_path, SL2_WEIGHT)
    out = tmp_path / "missing" / "scan.json"
    code = main(["scan", "--algebra", "sl2", "--nilp", "1", "--lambda", lam,
                 "--max-height", "1", "--json", str(out)])
    assert_input_error(capsys, code)


def test_weight_file_not_utf8_exit_code(tmp_path, capsys):
    lam = tmp_path / "lambda.json"
    lam.write_bytes(b"\xff\xfe{}")
    code = main(["check", "--algebra", "sl2", "--nilp", "1", "--lambda", str(lam)])
    assert_input_error(capsys, code)


def test_weight_file_nested_past_the_recursion_limit_exit_code(tmp_path, capsys):
    lam = tmp_path / "lambda.json"
    lam.write_text("[" * 100_000, encoding="utf-8")
    code = main(["check", "--algebra", "sl2", "--nilp", "1", "--lambda", str(lam)])
    assert_input_error(capsys, code)


def test_weight_file_integer_past_the_digit_limit_exit_code(tmp_path, capsys):
    lam = tmp_path / "lambda.json"
    lam.write_text('{"levels": [{"h1": ' + "9" * 5000 + "}, {}]}", encoding="utf-8")
    code = main(["check", "--algebra", "sl2", "--nilp", "1", "--lambda", str(lam)])
    assert_input_error(capsys, code)


def test_shapovalov_at_chi_zero_is_the_highest_weight_space(tmp_path, capsys):
    lam = write_weight(tmp_path, SL2_WEIGHT)
    code = main(["shapovalov", "--algebra", "sl2", "--nilp", "1", "--lambda", lam, "--chi", "0"])
    assert code == 0
    assert capsys.readouterr().out == "chi=(0) size=1\n[1]\ndet = 1\n"


def test_scan_prints_determinants_past_the_int_digit_limit(tmp_path, capsys):
    # Determinants of 1500-digit levels run past the interpreter's default
    # limit on int-to-str digits; the scan still prints them exactly.
    big = "7" * 1500
    lam = write_weight(tmp_path, {"levels": [{"h1": big}, {"h1": big}]})
    code = main(["scan", "--algebra", "sl2", "--nilp", "1", "--lambda", lam, "--max-height", "3"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"chi=(1) dim=2 det=-{int(big) ** 2}"
    assert len(lines[-2].split("det=")[1]) > 4300
    assert lines[-1] == "no zero determinant up to height 3"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["check", "--algebra", "sl2"])  # missing required flags
    assert exc.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tcla", "algebras"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "sl2" in proc.stdout


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # validate imports concurrent.futures only when it starts a pool.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tcla.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S keeps the interpreter's site hooks, which may import either, out of
    # the result; PYTHONPATH alone then finds the package.
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, tcla.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


CLOSED_STDOUT_COMMANDS = [
    ["algebras"],
    ["check", "--algebra", "sl2", "--nilp", "1", "--lambda", "{lam}"],
    ["shapovalov", "--algebra", "sl2", "--nilp", "1", "--lambda", "{lam}", "--chi", "3"],
    ["scan", "--algebra", "sl2", "--nilp", "1", "--lambda", "{lam}", "--max-height", "2"],
    ["validate", "--algebra", "sl2", "--nilp", "1", "--samples", "2", "--seed", "1"],
    ["figure", "--which", "sl3", "--format", "svg", "--out", "-"],
]


@pytest.mark.parametrize("argv", CLOSED_STDOUT_COMMANDS, ids=lambda argv: argv[0])
def test_a_pipe_closed_by_its_reader_exits_3_without_a_traceback(tmp_path, argv):
    lam = write_weight(tmp_path, SL2_WEIGHT)
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tcla", *(a.format(lam=lam) for a in argv)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["error: standard output is closed"]


@pytest.mark.parametrize("argv", [["algebras"], ["figure", "--which", "sl3", "--format", "csv", "--out", "-"]])
def test_a_closed_stdout_descriptor_exits_3(argv):
    # The shell closes descriptor 1 before the interpreter starts, so
    # sys.stdout is None.
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m tcla "$@" >&-', sys.executable, *argv],
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == ["error: standard output is closed"]
