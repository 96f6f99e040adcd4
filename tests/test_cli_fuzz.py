"""Property test: the CLI returns a documented exit code and never a traceback on random argv."""

import contextlib
import io
import json
import random

import pytest

from lucascert import catalog_to_json, default_catalog, diffop_to_json
from lucascert.cli import main
from test_diffop import random_operator_json_with_denominators, times_z

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FUZZ = hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
EXIT_CODES = {0, 1, 2, 3}  # success, input error, verification failure, height-bound violation


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_fuzz")
    paths = {"dir": str(d), "missing": str(d / "missing.json")}
    cat = default_catalog()
    # well-formed operators that carry a power of z in their delta form
    z_ops = {name: diffop_to_json(times_z(cat[name].operator, 1)) for name in ("f2", "apery")}
    contents = {
        "op": json.dumps(diffop_to_json(cat["f2"].operator)),
        "z_op": json.dumps(z_ops["f2"]),
        # rewritten with a random operator whenever the opinfo grammar draws it
        "den_op": json.dumps({"basis": "d", "coeffs": [{"num": [1], "den": [-1, 3]}, {"num": [1], "den": [-1, 3]}]}),
        "catalog": json.dumps(catalog_to_json(cat) + [{"name": "f4", "kind": "f_r", "r": 4}]
                              + [{"name": f"z{n}", "kind": "operator", "operator": op} for n, op in z_ops.items()]),
        "garbage": "{not json",
        "empty": "",
        "array": "[1, 2, 3]",
    }
    for name, text in contents.items():
        (d / f"{name}.json").write_text(text)
        paths[name] = str(d / f"{name}.json")
    return paths


GARBAGE = ["", "x", "-1", "0", "1.5", "1e3", "3,", ",", "--", "nan", "é"]
SERIES = ["g1", "g2", "g3", "f1", "f2", "f3", "apery", "t", "cy210", "cy26", "f4", "zf2", "zapery", "x"]
CASES = ["all", "210", "26", "2f1", "independence", "apery-lucas", "x"]
# the flags each subcommand reads; any other flag is a usage error
OWN = {
    "expand": ["--catalog", "--format", "--out"],
    "opinfo": ["--bound", "--primes", "--allow-two", "--format", "--out"],
    "certify": ["--catalog", "--out"],
    "casebook": ["--allow-two", "--format", "--out"],
}
FOREIGN = ["--bound", "--catalog", "--nosuch", "-p", "--T", "--primes"]


def _argv(rng, files):
    """argv from a bounded grammar: mostly well-formed, with some garbage in every slot."""

    def often(likely, other):
        return rng.choice(likely) if rng.random() < 0.75 else rng.choice(other)

    def T():  # at most 600, so that certify stays fast
        return often(["64", "128", "300", "512", "600"], GARBAGE + [str(rng.randint(-5, 600))])

    command = often(list(OWN), ["nosuch", "--help", ""])
    if command not in OWN:
        return [command] + rng.sample(FOREIGN + ["x"], rng.randint(0, 2))
    values = {
        "--catalog": lambda: files[often(["catalog"], sorted(files))],
        "--out": lambda: rng.choice([files["dir"], files["dir"] + "/out.txt"]),
        "--format": lambda: often(["text", "json", "csv"], GARBAGE),
        # the large primes catch a loop sized by p without a budget
        "--primes": lambda: often(["3", "5", "3,5", "2", "1009", "10007"],
                                  GARBAGE + ["4", "1", "-3", "3,,5", "2,x"]),
        "--bound": lambda: often(["20", "100"], GARBAGE + [str(rng.randint(-3, 200)), "100000001"]),
    }
    if command == "expand":
        argv = [command, rng.choice(SERIES), "--T", T()]
    elif command == "opinfo":
        argv = [command, files[often(["op", "z_op", "den_op"], sorted(files))]]
        if argv[1] == files["den_op"]:  # an operator with coefficient denominators
            with open(argv[1], "w", encoding="utf-8") as fh:
                json.dump(random_operator_json_with_denominators(rng), fh)
        # p-curvature at its extreme primes: the budget edge, and 2 where it is allowed
        argv += rng.choice([[], [], ["--primes", "211"], ["--primes", "2", "--allow-two"]])
    elif command == "certify":
        argv = [command, rng.choice(SERIES), "--T", T()]
        if rng.random() < 0.9:
            argv += ["-p", often(["3", "5", "7", "13", "37", "1009", "10007"],
                                 GARBAGE + [str(rng.randint(-3, 40))])]
    else:  # casebook
        argv = [command] + rng.sample(CASES, rng.randint(0, 2)) + ["--primes", values["--primes"]()]
    for _ in range(rng.randint(0, 2)):
        flag = rng.choice(OWN[command]) if rng.random() < 0.8 else rng.choice(FOREIGN)
        argv.append(flag)
        if flag in values and rng.random() < 0.9:
            argv.append(values[flag]())
    return argv


@FUZZ
@hypothesis.given(seed=st.integers(0, 2**64))
def test_cli_exit_code_without_traceback(files, seed):
    argv = _argv(random.Random(seed), files)
    hypothesis.note(f"argv = {argv}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in EXIT_CODES, (argv, code)
    assert "Traceback" not in err.getvalue(), argv
