"""Golden CLI outputs: byte-for-byte regression guard for refactors.

Each case renders one output (a CLI run through `cli.main`, or the
Frobenius shadow's F(0)) and compares it with its file under
`tests/golden/`.  The operator files under `tests/golden/ops/` are both
an expected output (`diffop_to_json` of a catalog operator) and the input
of the `opinfo` cases.  A mismatch prints a unified diff.

To regenerate after a deliberate output change:

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import contextlib
import difflib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from lucascert import DiffOp, RatFun, default_catalog, diffop_to_json, frobenius_shadow, series_over_q
from lucascert.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
OPS = GOLDEN / "ops"
OPERATORS = ("g2", "g3", "f2", "f3", "apery")
# `operator`-kind entries carrying f2's and apery's operators: expanded by the recurrence alone
OPERATOR_CATALOG = str(GOLDEN / "catalog_operator.json")


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(list(argv))
    return f"exit {rc}\n{out.getvalue()}"


def _shadow_f0(series, p, T):
    entry = default_catalog()[series]
    F = frobenius_shadow(entry.operator, p, T, solution=series_over_q(entry, T)).F
    return json.dumps([[str(x[0]) for x in row] for row in F]) + "\n"


def _operator_json(name):
    return json.dumps(diffop_to_json(default_catalog()[name].operator), indent=1) + "\n"


def _monic_json(name):
    """diffop_to_json of 2/3 times the monic normalization: coefficients with denominators."""
    L = default_catalog()[name].operator
    tail = [c * Fraction(2, 3) for c in L.monic_tail()]
    M = DiffOp(L.field, L.basis, [RatFun.constant(L.field, Fraction(2, 3)), *tail])
    return json.dumps(diffop_to_json(M), indent=1) + "\n"


def _cases():
    cases = {}
    for s, p in (("f2", 3), ("f3", 3), ("f2", 5), ("g3", 5), ("apery", 5), ("apery", 37)):
        cases[f"certify_{s}_{p}.json"] = lambda s=s, p=p: _cli("certify", s, "-p", str(p))
    for name in OPERATORS:
        cases[f"ops/{name}.json"] = lambda name=name: _operator_json(name)
        for fmt in ("json", "text"):
            cases[f"opinfo_{name}.{fmt}"] = lambda name=name, fmt=fmt: _cli(
                "opinfo", str(OPS / f"{name}.json"), "--primes", "5,7", "--format", fmt)
    for name in ("f3", "apery"):
        cases[f"ops/{name}_monic.json"] = lambda name=name: _monic_json(name)
    for fmt in ("json", "csv"):
        cases[f"casebook_all.{fmt}"] = lambda fmt=fmt: _cli(
            "casebook", "all", "--primes", "3,5,7", "--format", fmt)
    cases["expand_apery_300.txt"] = lambda: _cli("expand", "apery", "--T", "300")
    for s in ("cy210", "cy26"):
        cases[f"expand_{s}_100.txt"] = lambda s=s: _cli("expand", s, "--T", "100")
    for s, p in (("f2_op", 3), ("apery_op", 5)):
        cases[f"expand_{s}_300.txt"] = lambda s=s: _cli("expand", s, "--T", "300", "--catalog", OPERATOR_CATALOG)
        cases[f"certify_{s}_{p}.json"] = lambda s=s, p=p: _cli("certify", s, "-p", str(p), "--catalog", OPERATOR_CATALOG)
    for s, p in (("f2", 3), ("apery", 5)):
        cases[f"shadow_F0_{s}_{p}.json"] = lambda s=s, p=p: _shadow_f0(s, p, 81)
    return cases


CASES = _cases()


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(name):
    expected = (GOLDEN / name).read_bytes().decode("utf-8")
    got = CASES[name]()
    if got != expected:
        diff = difflib.unified_diff(expected.splitlines(keepends=True), got.splitlines(keepends=True),
                                    fromfile=f"golden/{name}", tofile="output")
        pytest.fail("output differs from its golden file:\n" + "".join(diff), pytrace=False)


if __name__ == "__main__":
    OPS.mkdir(parents=True, exist_ok=True)
    # operator files first: the opinfo cases read them
    for name in sorted(CASES, key=lambda n: not n.startswith("ops/")):
        (GOLDEN / name).write_bytes(CASES[name]().encode("utf-8"))
