"""Command-line front end: exit codes, output formats, determinism."""

import json
import os
import re
import subprocess
import sys
import textwrap
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest

from quadwalk.classifier import classify
from quadwalk.cli import EXIT_BAD_INPUT, EXIT_CONTRACT, EXIT_OK, main
from quadwalk.enumerator import enumerate_walks
from quadwalk.errors import CoverageGap
from quadwalk.model import model_from_json

S3_DOC = json.dumps(
    {
        "stepset": "S3",
        "weights": {"1,-1": "1", "-1,1": "1", "1,1": "1"},
        "a": "2",
        "b": "2",
    }
)

S1_DOC = json.dumps(
    {
        "stepset": "S1",
        "weights": {"1,-1": "1", "-1,1": "1", "0,1": "1"},
        "a": "3",
        "b": "3/2",
    }
)


@pytest.fixture
def s3_file(tmp_path):
    p = tmp_path / "s3.json"
    p.write_text(S3_DOC)
    return str(p)


@pytest.fixture
def s1_file(tmp_path):
    p = tmp_path / "s1.json"
    p.write_text(S1_DOC)
    return str(p)


def test_classify_algebraic(s3_file, capsys):
    assert main(["classify", "--model", s3_file]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "Algebraic"
    assert "sqrt" in doc["closed_forms"]["Qx0"]


def test_classify_rational(s1_file, capsys):
    assert main(["classify", "--model", s1_file]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "Rational"


def test_classify_not_dalgebraic(tmp_path, capsys):
    p = tmp_path / "s5.json"
    p.write_text(json.dumps({
        "stepset": "S5",
        "weights": {"1,-1": "1", "-1,1": "1", "1,0": "1", "0,1": "1", "1,1": "1"},
        "a": "1", "b": "1",
    }))
    assert main(["classify", "--model", str(p)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "NotDAlgebraic"


def test_malformed_input_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"stepset": "S1", "weights": {}, "a": "1", "b": "1", "junk": 0}')
    assert main(["classify", "--model", str(p)]) == EXIT_BAD_INPUT
    assert main(["classify", "--model", str(tmp_path / "absent.json")]) == EXIT_BAD_INPUT
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)  # past the JSON decoder's recursion depth
    assert main(["classify", "--model", str(deep)]) == EXIT_BAD_INPUT
    assert "nested too deeply" in capsys.readouterr().err


def _rat_from_decimal(s):
    """A "p/q" or "p" string of any length, parsed without int(str)."""
    num, _, den = s.partition("/")
    return F(int(Decimal(num)), int(Decimal(den or "1")))


def test_enumerate_output_past_int_digit_limit(tmp_path, capsys):
    # valid input whose order-20 coefficients have more digits than
    # str(int) formats; every coefficient is printed exactly
    doc = {"stepset": "S1", "weights": {"1,-1": "1", "-1,1": "1", "0,1": "1" * 300},
           "a": "1", "b": "1"}
    p = tmp_path / "tall.json"
    p.write_text(json.dumps(doc))
    assert main(["enumerate", "--model", str(p), "--order", "20"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    want = enumerate_walks(model_from_json(json.dumps(doc)), 20)
    assert max(len(c) for term in out for _, _, c in term) > sys.get_int_max_str_digits()
    for n, term in enumerate(out):
        assert {(i, j): _rat_from_decimal(c) for i, j, c in term} == \
            {k: c for k, c in want[n].items() if c != 0}


def test_classify_output_past_int_digit_limit(tmp_path, capsys):
    # a + b = ab with d1m1 dm11 near 10^6000: the closed-form ratio has
    # coefficients past the digit limit, and its digits are exact
    big = str(10**3000 + 1)
    doc = {"stepset": "S1", "weights": {"1,-1": big, "-1,1": big, "0,1": "1"},
           "a": "3", "b": "3/2"}
    p = tmp_path / "tall.json"
    p.write_text(json.dumps(doc))
    assert main(["classify", "--model", str(p)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "Rational"
    ratio = classify(model_from_json(json.dumps(doc))).closed_forms["Qx0"].ratio
    printed = {int(Decimal(tok)) for tok in re.findall(r"\d+", out["closed_forms"]["Qx0"])}
    coeffs = [c for c in ratio.num.coeffs + ratio.den.coeffs if c]
    assert max(c.denominator for c in coeffs) > 10 ** sys.get_int_max_str_digits()
    for c in coeffs:
        assert abs(c.numerator) in printed and c.denominator in printed


def test_enumerate_json(s3_file, capsys):
    assert main(["enumerate", "--model", s3_file, "--order", "3"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc[0] == [[0, 0, "1"]]
    assert doc[1] == [[1, 1, "1"]]


def test_matrix_output(s3_file, capsys):
    assert main(["matrix", "--model", s3_file]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"M1", "M2"}
    m1 = doc["M1"]["entries"]
    assert m1 == [list(r) for r in zip(*m1)]  # symmetric


def test_outputs_byte_identical(s3_file, capsys):
    main(["classify", "--model", s3_file])
    first = capsys.readouterr().out
    main(["classify", "--model", s3_file])
    assert capsys.readouterr().out == first


def test_phase_scan_csv(s3_file, capsys):
    rc = main([
        "phase-scan", "--model", s3_file, "--order", "4",
        "--a-values", "1,2", "--b-values", "3",
    ])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "a,b,n,ratio_x_axis,ratio_y_axis"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2 * 1 * 5
    n0 = [r for r in rows if r[2] == "0"]
    assert all(r[3] == "1" and r[4] == "1" for r in n0)


def test_contract_violation_exit_code(s3_file, monkeypatch, capsys):
    from quadwalk import cli as cli_mod

    def broken(model):
        raise CoverageGap("forced for the exit-code contract")

    monkeypatch.setattr(cli_mod.classifier, "classify", broken)
    assert main(["classify", "--model", s3_file]) == EXIT_CONTRACT
    assert "verification failure" in capsys.readouterr().err


MODEL = object()  # stands for the path of the S3 model file


@pytest.mark.parametrize("argv", [
    ["classify", "--model", MODEL, "--window", "5"],
    ["classify", "--model", MODEL, "--order", "3"],
    ["classify", "--model", MODEL, "--seed", "5"],
    ["phase-scan", "--model", MODEL, "--a-values", "1/0"],
    ["phase-scan", "--model", MODEL, "--b-values", "1,x"],
    ["verify", "--trials", "0"],
    ["verify", "--trials", "-1", "--order", "2"],
    ["verify", "--order", "101"],
    ["enumerate", "--model", MODEL, "--order", "101"],
    ["phase-scan", "--model", MODEL, "--order", "-1"],
    ["phase-scan", "--model", MODEL, "--a-values", ",".join(str(k) for k in range(1, 18))],
    ["phase-scan", "--model", MODEL, "--b-values", ",".join(str(k) for k in range(1, 18))],
    ["phase-scan", "--model", MODEL, "--a-values", "1," + "7" * 4400],
])
def test_usage_error_exit_code(s3_file, argv, monkeypatch, capsys):
    # flags a subcommand does not read and bad or out-of-range flag
    # values are usage errors: exit 1, not the contract-failure code 2
    # argparse would use, and no computation starts
    from quadwalk import cli as cli_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("a usage error started a computation")

    for owner, name in ((cli_mod.classifier, "classify"), (cli_mod.classifier, "verify_closed_form"),
                        (cli_mod.enumerator, "enumerate_walks"), (cli_mod, "build_matrices")):
        monkeypatch.setattr(owner, name, forbidden)
    with pytest.raises(SystemExit) as exc:
        main([s3_file if a is MODEL else a for a in argv])
    assert exc.value.code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err and len(err) < 400
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--help"])
    assert exc.value.code == EXIT_OK


def test_phase_scan_grid_at_bound(s3_file, capsys):
    # MAX_SCAN_VALUES values on each axis are accepted
    from quadwalk.cli import MAX_SCAN_VALUES

    values = ",".join(str(k) for k in range(1, MAX_SCAN_VALUES + 1))
    argv = ["phase-scan", "--model", s3_file, "--order", "1",
            "--a-values", values, "--b-values", values]
    assert main(argv) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + MAX_SCAN_VALUES ** 2 * 2


def test_surd_class_mismatch_exit_code(s3_file, monkeypatch, capsys):
    # a stored leading coefficient in the wrong square class surfaces
    # from QuadExtElem.equals as a broken contract: exit 2
    from quadwalk import cli as cli_mod
    from quadwalk.exactalg import Poly, QuadExt, QuadExtElem, RatFunc

    def compares_tampered_branches(model):
        w1 = QuadExtElem.sqrt(QuadExt(RatFunc(Poly([4, 4]))))
        ctx = QuadExt(RatFunc(Poly([1, 1])))
        ctx.c = F(2)
        return w1.equals(QuadExtElem(RatFunc(0), RatFunc(2), ctx))

    monkeypatch.setattr(cli_mod.classifier, "classify", compares_tampered_branches)
    assert main(["classify", "--model", s3_file]) == EXIT_CONTRACT
    err = capsys.readouterr().err
    assert "verification failure" in err and "surd classes" in err
    assert "Traceback" not in err


def test_orbit_cap_exceeded_is_contract_violation(s3_file, monkeypatch, capsys):
    # an orbit that never reaches the certified regime cannot happen for
    # a valid model, so it is a broken contract (exit 2), not bad input
    from quadwalk import sigmadist

    monkeypatch.setattr(sigmadist, "MAX_WINDOW", 0)
    assert main(["matrix", "--model", s3_file]) == EXIT_CONTRACT
    assert "verification failure" in capsys.readouterr().err


def test_tall_weights_classify_quickly(tmp_path):
    # weights near 10^20 make the radicands' leading coefficients huge;
    # the square-root branch is read off them by exact rational square
    # roots, with no integer factoring, so this takes well under a second
    big = 10**20 + 7
    p = tmp_path / "tall.json"
    p.write_text(json.dumps({
        "stepset": "S5", "a": "7/3", "b": "11/5",
        "weights": {"1,-1": f"1/{big}", "-1,1": "3", "1,0": f"{big}/7", "0,1": "2", "1,1": "5/3"},
    }))
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "quadwalk.cli", "classify", "--model", str(p)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "NotDAlgebraic"


def test_import_loads_no_dataclass_machinery():
    # start-up cost: the CLI import must not pull in dataclasses or the
    # inspect/ast stack; the diff leaves out what site loaded before it
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; before = set(sys.modules); import quadwalk.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "quadwalk.cli" in added
    assert not added & {"dataclasses", "inspect", "ast"}


def test_runs_without_sympy():
    # sympy is a test dependency only: the package must not import it
    src = Path(__file__).resolve().parents[1] / "src"
    model = Path(__file__).resolve().parents[1] / "models" / "s3-algebraic.json"
    code = ("import sys; sys.modules['sympy'] = None; import quadwalk.cli; "
            "sys.exit(quadwalk.cli.main(['classify', '--model', sys.argv[1]]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(model)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "Algebraic"


# Runs `python -m quadwalk.cli matrix` with P3 and P4 swapped in the L2+
# list, so the M2 spot check in build_matrices fails.
_TAMPERED_CLI = textwrap.dedent("""
    import runpy, sys
    import quadwalk.sigmadist as sd

    if not sys.flags.optimize:
        sys.exit("expected python -O")
    real = sd.critical_sets

    def tampered(model):
        sets = real(model)
        sets.L2_plus[2], sets.L2_plus[3] = sets.L2_plus[3], sets.L2_plus[2]
        return sets

    sd.critical_sets = tampered
    sys.argv = ["quadwalk", "matrix", "--model", sys.argv[1]]
    runpy.run_module("quadwalk.cli", run_name="__main__")
""")


def test_contract_violation_exit_code_optimized(s3_file):
    # a broken contract must end in exit 2, also when asserts are gone
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _TAMPERED_CLI, s3_file],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_CONTRACT, proc.stderr
    assert "verification failure" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_subcommand(tmp_path, capsys):
    assert main(["verify", "--order", "6", "--trials", "1", "--seed", "3"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 3
    assert all(c.get("residual", "0") == "0" for c in doc["checks"])
