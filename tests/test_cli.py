import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildinv.cli import SUBCOMMANDS, parse_additive_poly, run
from wildinv.errors import ValidationError


def cap(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def test_report_monomial_shorthand():
    code, out = cap(["report", "-p", "3", "-f", "1", "-R", "1", "-e", "1", "-m", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["swan"] == {"num": 1, "den": 1}
    assert doc["verdict"]["kind"] == "primitive"


def test_swan_subcommand():
    code, out = cap(["swan", "-p", "3", "-e", "1", "-dR", "4", "-m", "2"])
    assert code == 0
    assert json.loads(out) == {"swan": 2}


def test_validation_exit_code():
    code, out = cap(["report", "-p", "3", "-f", "1", "-R", "1", "-e", "1", "-m", "3"])
    assert code == 2
    assert "prime to p" in json.loads(out)["error"]


def test_unknown_subcommand():
    with contextlib.redirect_stderr(io.StringIO()):
        code = run(["nonsense"])
    assert code == 1


def test_full_coefficient_list_and_degree_check():
    code, out = cap(["report", "-p", "3", "-f", "2", "-R", "0,0;1,0", "-e", "1", "-m", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"]["kind"] == "imprimitive"
    assert doc["verdict"]["induction"]["F_prime_degree"] == 3
    # length mismatch with the declared degree is a validation error
    code, out = cap(["report", "-p", "3", "-f", "2", "-R", "0,0;1,0", "-e", "2", "-m", "1"])
    assert code == 2


def test_parse_additive_poly():
    R = parse_additive_poly("1", 3, 1, 2)
    assert R.p_degree == 2 and R.coeffs[-1] == R.base.one()
    R2 = parse_additive_poly("1;0;2", 3, 1, 2)
    assert R2.coeffs[0] == R2.base.one()
    with pytest.raises(ValidationError):
        parse_additive_poly("1;0;0", 3, 1, 2)  # a_e = 0
    with pytest.raises(ValidationError):
        parse_additive_poly("1,2,3", 3, 2, 0)  # too many coordinates


def test_other_subcommands():
    code, out = cap(["anisotropy", "-p", "3", "-f", "2", "-R", "1", "-e", "1", "-m", "2"])
    assert code == 0 and json.loads(out)["completely_anisotropic"] is False
    code, out = cap(["primitivity", "-p", "3", "-f", "1", "-R", "1", "-e", "1", "-m", "2"])
    doc = json.loads(out)
    assert code == 0 and doc["kind"] == "primitive_unramified_unstable"
    code, out = cap(["quotient", "-p", "3", "-f", "2", "-R", "1", "-e", "1", "-m", "2"])
    doc = json.loads(out)
    assert code == 0 and doc["induction"]["e_prime"] == 0
    code, out = cap(["rootsystem", "-p", "3", "-f", "1", "-R", "1", "-e", "1", "-m", "1"])
    doc = json.loads(out)
    assert code == 0 and doc["root_system"]["type"] == "A"
    code, out = cap(["count", "-p", "3", "-f", "1", "-R", "1", "-e", "1", "-m", "1"])
    doc = json.loads(out)
    assert code == 0 and doc["supersingular"] is True
    code, out = cap(["prime", "-p", "3", "-f", "1", "-R", "1", "-e", "1", "-m", "1"])
    doc = json.loads(out)
    assert code == 0 and doc["e_poly_prime"] is True
    assert doc["transport"]["irreducible"] and doc["transport"]["reciprocal"]


def test_input_file_mode(tmp_path):
    spec = {"p": 3, "f": 1, "R": "1", "e": 1, "m": 2, "flags": {}}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec))
    code, out = cap(["report", "--input", str(path)])
    assert code == 0
    assert json.loads(out)["verdict"]["kind"] == "primitive_unramified_unstable"


def test_input_file_text_form(tmp_path):
    # the canonical additive-polynomial text form is accepted in file mode
    from wildinv.addpoly import AdditivePoly, format_additive_poly
    from wildinv.ff import field_create

    F9 = field_create(3, 2)
    R = AdditivePoly(F9, [F9.zero(), F9.one()])
    spec = {
        "p": 3,
        "f": 2,
        "R": format_additive_poly(R),
        "e": 1,
        "m": 2,
        "flags": {"oracle": True},
    }
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec))
    code, out = cap(["report", "--input", str(path)])
    assert code == 0
    assert json.loads(out)["verdict"]["kind"] == "imprimitive"


def test_input_file_max_k_null_is_default(tmp_path):
    # "max_k": null means the default count length, as if the key were absent
    outs = []
    for flags in ({"curve": True, "max_k": None}, {"curve": True}):
        spec = {"p": 3, "f": 1, "R": "1", "e": 1, "m": 1, "flags": flags}
        path = tmp_path / "in.json"
        path.write_text(json.dumps(spec))
        code, out = cap(["report", "--input", str(path)])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["curve"] is not None


def test_input_file_errors_exit_2(tmp_path):
    # a missing file, a file that is not JSON or not an object, R given as a
    # bare int or a list of ints, mistyped numbers, a curve flag "false"
    # (which used to print the curve section) and a misspelt flag key (which
    # used to drop it) each end in a JSON error, never a traceback
    good = {"p": 3, "f": 1, "R": "1", "e": 1, "m": 1}
    texts = [
        "not json",
        "[1]",
        json.dumps(dict(good, R=1)),
        json.dumps(dict(good, R=[1, 0])),
        json.dumps(dict(good, p="3")),
        json.dumps(dict(good, flags={"curve": True, "max_k": "2"})),
        json.dumps(dict(good, flags={"curve": "false"})),
        json.dumps(dict(good, flags={"curv": True})),
        json.dumps(dict(good, flags={"oracle": 1})),
    ]
    cases = [str(tmp_path / "missing.json")]
    for i, text in enumerate(texts):
        path = tmp_path / f"in{i}.json"
        path.write_text(text)
        cases.append(str(path))
    for path in cases:
        code, out = cap(["report", "--input", path])
        assert code == 2, path
        assert "error" in json.loads(out)


def test_swan_rejects_composite_p():
    code, out = cap(["swan", "-p", "4", "-e", "1", "-dR", "5", "-m", "1"])
    assert code == 2
    assert "not prime" in json.loads(out)["error"]


def test_package_runs_as_module():
    # python -m wildinv works from a checkout, without an install
    import os

    import wildinv

    src = os.path.dirname(os.path.dirname(os.path.abspath(wildinv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    r = subprocess.run(
        [sys.executable, "-m", "wildinv", "swan", "-p", "5", "-e", "1", "-dR", "6", "-m", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"swan": 1}


def test_subprocess_entry():
    r = subprocess.run(
        [sys.executable, "-m", "wildinv.cli", "swan", "-p", "5", "-e", "1", "-dR", "6", "-m", "1"],
        capture_output=True,
        text=True,
        env=_module_env(),
    )
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"swan": 1}


def test_output_is_single_json_document():
    code, out = cap(["report", "-p", "3", "-f", "1", "-R", "1", "-e", "1", "-m", "1"])
    json.loads(out)  # parses as exactly one document
    assert out.endswith("\n")


def test_guard_exceeded_is_validation_exit():
    code, out = cap(["anisotropy", "-p", "3", "-f", "1", "-R", "0;0;1;1", "-e", "3", "-m", "1"])
    assert code == 2
    assert "guard" in json.loads(out)["error"]


def test_malformed_inputs_exit_2():
    cases = [
        ["report", "-p", "4", "-f", "1", "-R", "1", "-e", "1", "-m", "1"],  # p not prime
        ["report", "-p", "3", "-f", "0", "-R", "1", "-e", "1", "-m", "1"],  # f < 1
        ["report", "-p", "3", "-f", "1", "-R", "0", "-e", "0", "-m", "1"],  # R = 0
        ["report", "-p", "2", "-f", "1", "-R", "1", "-e", "0", "-m", "1"],  # (p,e) = (2,0)
        ["report", "-p", "3", "-f", "1", "-R", "x", "-e", "1", "-m", "1"],  # junk coeff
        ["count", "-p", "3", "-f", "1", "-R", "1", "-e", "1"],  # missing -m
        ["rootsystem", "-p", "3", "-f", "1", "-R", "1", "-e", "1", "-m", "2"],  # precondition
    ]
    for argv in cases:
        import contextlib
        import io

        with contextlib.redirect_stderr(io.StringIO()):
            code, _ = cap(argv)
        assert code == 2, argv


def test_count_max_k_and_oracle_flags():
    code, out = cap(["count", "-p", "3", "-f", "1", "-R", "1", "-e", "1", "-m", "1", "--max-k", "3"])
    assert code == 0
    assert len(json.loads(out)["counts"]) == 3
    code, out = cap(
        ["report", "-p", "3", "-f", "1", "-R", "1", "-e", "1", "-m", "2", "--oracle"]
    )
    assert code == 0
    assert json.loads(out)["verdict"]["kind"] == "primitive_unramified_unstable"


def _module_env():
    import os

    import wildinv

    src = os.path.dirname(os.path.dirname(os.path.abspath(wildinv.__file__)))
    return dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")


GOLDEN_ARGV = {
    "g1_p3_f1_x3_m1_curve": ["-p", "3", "-f", "1", "-R", "1", "-e", "1", "-m", "1", "--curve"],
    "g2_p3_f2_x3_m2": ["-p", "3", "-f", "2", "-R", "1", "-e", "1", "-m", "2"],
    "g3_p3_f1_x3_m2": ["-p", "3", "-f", "1", "-R", "1", "-e", "1", "-m", "2"],
    "g4_p5_f1_x5_m1_curve": ["-p", "5", "-f", "1", "-R", "1", "-e", "1", "-m", "1", "--curve"],
    "g5_p2_f2_x2x8_m1_curve": ["-p", "2", "-f", "2", "-R", "0;1;0;1", "-e", "3", "-m", "1", "--curve"],
    "g6_p3_f1_x_x3_m1": ["-p", "3", "-f", "1", "-R", "1;1", "-e", "1", "-m", "1"],
    "g7_p23_f1_x_m1_curve": ["-p", "23", "-f", "1", "-R", "1", "-e", "0", "-m", "1", "--curve"],
    "g8_p101_f1_x_m1_curve": ["-p", "101", "-f", "1", "-R", "1", "-e", "0", "-m", "1", "--curve"],
    "g9_p11_f1_x11_m1_curve": ["-p", "11", "-f", "1", "-R", "1", "-e", "1", "-m", "1", "--curve"],
    "g10_p2_f1_x32_m1_curve": ["-p", "2", "-f", "1", "-R", "1", "-e", "5", "-m", "1", "--curve"],
}


@pytest.mark.parametrize("name", sorted(n for n in GOLDEN_ARGV if n.endswith("_curve")))
def test_count_prints_the_curve_section_of_the_golden(name):
    # count and report --curve read the counts from Z by one route: count's
    # output is the golden's curve section, byte for byte
    from pathlib import Path

    golden = json.loads((Path(__file__).parent / "golden" / f"{name}.json").read_text())
    code, out = cap(["count", *GOLDEN_ARGV[name][:-1]])
    assert code == 0, out
    assert out == json.dumps(golden["curve"], indent=2, sort_keys=True) + "\n"


def test_count_builds_only_the_forms_of_the_zeta_numerator(monkeypatch):
    # p2e1: top = p^e + 2 = 4 (the Newton check needs 2g = 2 only); a count
    # list to N_200 is read from Z, with no form on F_2^k for k > 4
    from wildinv import counts

    calls = []
    real = counts._form_data
    monkeypatch.setattr(counts, "_form_data", lambda R, k: calls.append(k) or real(R, k))
    monkeypatch.setattr(counts, "_DISTRIBUTION_CACHE", {})
    code, out = cap(["count", "-p", "2", "-f", "1", "-R", "1", "-e", "1", "-m", "1", "--max-k", "200"])
    assert code == 0, out
    assert sorted(set(calls)) == [1, 2, 3, 4]
    assert len(json.loads(out)["counts"]) == 200


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
def test_report_under_python_O_matches_golden(name):
    # python -O strips assert statements; the report, and every check behind
    # it, must not depend on them
    from pathlib import Path

    golden = Path(__file__).parent / "golden" / f"{name}.json"
    argv = ["report", *GOLDEN_ARGV[name]]
    r = subprocess.run(
        [sys.executable, "-O", "-m", "wildinv", *argv], capture_output=True, env=_module_env()
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == golden.read_bytes()


def test_curve_report_never_imports_numpy():
    # a fresh interpreter: the import and a whole curve report leave numpy out
    code = (
        "import contextlib, io, sys\n"
        "import wildinv, wildinv.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = wildinv.cli.run(['report', *sys.argv[1:]])\n"
        "print(rc, 'numpy' in sys.modules)\n"
    )
    argv = GOLDEN_ARGV["g4_p5_f1_x5_m1_curve"]
    r = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=_module_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["0", "False"]


def test_import_loads_neither_dataclasses_nor_the_group_law():
    # a fresh interpreter: the records and the package leave these out, and
    # the group law's names load espgroup on first use; a well-formed argv
    # of every subcommand is read without argparse (and its gettext), which
    # only -h and malformed argv load
    code = (
        "import contextlib, io, sys\n"
        "import wildinv, wildinv.cli\n"
        "print(*sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'wildinv.espgroup',"
        " 'argparse', 'gettext') if m in sys.modules))\n"
        "poly = ['-p', '3', '-f', '1', '-R', '1', '-e', '1', '-m', '1']\n"
        "argvs = [[cmd, *poly] for cmd in wildinv.cli.SUBCOMMANDS if cmd != 'swan']\n"
        "argvs.append(['swan', '-p', '3', '-e', '1', '-dR', '4', '-m', '1'])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [wildinv.cli.run(argv) for argv in argvs]\n"
        "print(len(codes), set(codes), 'argparse' in sys.modules, 'gettext' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = wildinv.cli.run(['report', '-h'])\n"
        "print(rc, 'argparse' in sys.modules)\n"
        "from wildinv import GroupContext, analyze, commutator, multiply\n"
        "import wildinv.espgroup as eg\n"
        "print((GroupContext, analyze, commutator, multiply) == (eg.GroupContext, eg.analyze, eg.commutator,"
        " eg.multiply), wildinv.espgroup is eg)\n"
        "try:\n"
        "    wildinv.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_module_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == [
        "",
        "8 {0} False False",
        "0 True",
        "True True",
        "module 'wildinv' has no attribute 'no_such_name'",
    ]


def test_failed_internal_check_exits_3_with_a_json_error(monkeypatch):
    # a kernel basis one vector short trips the ambient split check on the
    # report path: exit 3 and a JSON error, not a traceback
    from wildinv import addpoly

    real = addpoly.kernel_basis
    monkeypatch.setattr(addpoly, "kernel_basis", lambda f, field: real(f, field)[:-1])
    code, out = cap(["report", "-p", "3", "-f", "1", "-R", "1", "-e", "1", "-m", "1"])
    assert code == 3
    assert "ambient does not split" in json.loads(out)["error"]


def test_count_check_raises_under_python_O():
    # a broken value distribution is caught by a raise, not an assert
    code = (
        "from wildinv import counts\n"
        "from wildinv.addpoly import AdditivePoly\n"
        "from wildinv.errors import TheoremViolation\n"
        "from wildinv.ff import field_create\n"
        "counts._classify = lambda p, n, B, q: ({0: 1}, 0)\n"
        "try:\n"
        "    counts.value_distribution(AdditivePoly.from_ints(field_create(3, 1), [0, 1]), 2)\n"
        "except TheoremViolation:\n"
        "    print('raised')\n"
    )
    r = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=_module_env()
    )
    assert r.stdout == "raised\n", r.stderr


def test_malformed_text_form_exits_2_under_python_O(tmp_path):
    # the text-form checks are raises, so python -O cannot turn a malformed
    # "coeffs=[...]" into a polynomial; p, f and e match what the stripped
    # check would have parsed, so nothing else catches it
    spec = {"p": 3, "f": 1, "e": 0, "m": 1, "R": "q=3^1; xxxxxxx[3^1:0,1:1]"}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec))
    r = subprocess.run(
        [sys.executable, "-O", "-m", "wildinv", "report", "--input", str(path)],
        capture_output=True,
        text=True,
        env=_module_env(),
    )
    assert r.returncode == 2, r.stdout + r.stderr
    assert "malformed additive polynomial" in json.loads(r.stdout)["error"]
    code = (
        "from wildinv.addpoly import parse_additive_poly_text\n"
        "from wildinv.errors import ValidationError\n"
        "try:\n"
        "    parse_additive_poly_text('xx3^1; coeffs=[3^1:0,1:1]')\n"
        "except ValidationError:\n"
        "    print('raised')\n"
    )
    r = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=_module_env()
    )
    assert r.stdout == "raised\n", r.stderr


def test_prime_above_2_32_allocates_nothing_large():
    # F_p is enumerated lazily, so this report fits in a 1 GiB address space;
    # building range(p) up front needs over 30 GiB and used to die with a
    # MemoryError traceback (exit 1)
    resource = pytest.importorskip("resource")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    argv = ["report", "-p", "4294967311", "-f", "1", "-e", "0", "-R", "1", "-m", "1"]
    r = subprocess.run(
        [sys.executable, "-m", "wildinv", *argv],
        capture_output=True,
        text=True,
        env=_module_env(),
        preexec_fn=cap_memory,
    )
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["verdict"]["kind"] == "primitive"
    assert doc["swan"] == {"num": 1, "den": 1}


@pytest.mark.parametrize(
    "argv",
    [
        ["-p", "11", "-f", "1", "-R", "1", "-e", "1", "-m", "1"],
        ["-p", "101", "-f", "1", "-R", "1", "-e", "0", "-m", "1"],
    ],
)
def test_curve_report_past_the_newton_bound_completes(argv):
    # q^{2g} = 11^110 and 101^100: Z comes from the traced power sums of
    # L(psi_1), which needs F_q^k for k <= p^e + 2 only
    code, out = cap(["report", *argv, "--curve"])
    assert code == 0, out
    curve = json.loads(out)["curve"]
    assert curve["functional_equation_sign"] in (1, -1)
    assert curve["weil_bounds_ok"] is True
    assert len(curve["counts"]) == 2 * curve["genus"]
    assert len(curve["zeta_numerator"]) == 2 * curve["genus"] + 1


def test_curve_guard_returns_at_once():
    import time

    t0 = time.perf_counter()
    code, out = cap(["report", "-p", "10007", "-f", "1", "-R", "1", "-e", "0", "-m", "1", "--curve"])
    assert code == 2
    assert "guard" in json.loads(out)["error"]
    code, out = cap(["report", "-p", "3", "-f", "1", "-R", "1", "-e", "5", "-m", "1", "--curve"])
    assert code == 2
    assert "guard" in json.loads(out)["error"]
    code, out = cap(["count", "-p", "3", "-f", "1", "-R", "1", "-e", "5", "-m", "1"])
    assert code == 2
    assert "guard" in json.loads(out)["error"]
    assert time.perf_counter() - t0 < 2


@pytest.mark.parametrize("cmd", [["report", "--curve"], ["count"]])
def test_curve_guard_on_a_prime_above_2_32_returns_at_once(cmd):
    # 2g is about p here, so q^{2g} must never be formed: it would have about
    # 2^37 bits; the address space cap turns such an attempt into a failure
    import time

    resource = pytest.importorskip("resource")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    argv = [cmd[0], "-p", "4294967311", "-f", "1", "-R", "1", "-e", "0", "-m", "1", *cmd[1:]]
    t0 = time.perf_counter()
    r = subprocess.run(
        [sys.executable, "-m", "wildinv", *argv],
        capture_output=True,
        text=True,
        env=_module_env(),
        preexec_fn=cap_memory,
        timeout=60,
    )
    assert time.perf_counter() - t0 < 2
    assert r.returncode == 2, r.stderr
    assert "guard" in json.loads(r.stdout)["error"]


def test_prime_with_scaling_order_one_returns():
    # x^2 + x over F_2 has d_R = gcd(1 + 1, 2 + 1) = 1: the transport route
    # needs d_R = p^t + 1 >= 2, and the search for t used to loop forever on 0
    argv = ["prime", "-p", "2", "-f", "1", "-R", "1;1", "-e", "1", "-m", "3"]
    r = subprocess.run(
        [sys.executable, "-m", "wildinv", *argv],
        capture_output=True,
        text=True,
        env=_module_env(),
        timeout=2,
    )
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert "transport" not in doc


# every subcommand: a bad int, an unknown flag and a missing required flag,
# each with a fragment of its error message
FLAG_ERRORS = {
    "report": [
        (["-p", "x", "-f", "1", "-R", "1", "-e", "1", "-m", "1"], "invalid int value"),
        (["-p", "3", "--bogus"], "unrecognized arguments: --bogus"),
        (["-p", "3"], "report needs"),
    ],
    "swan": [
        (["-p", "3", "-e", "x", "-dR", "4", "-m", "1"], "invalid int value"),
        (["-p", "3", "-e", "1", "-dR", "4", "-m", "1", "--bogus"], "unrecognized arguments: --bogus"),
        (["-p", "3", "-e", "1", "-m", "1"], "required: -dR"),
    ],
}
for _cmd in ("primitivity", "quotient", "rootsystem", "count", "anisotropy", "prime"):
    FLAG_ERRORS[_cmd] = [
        (["-p", "3", "-f", "1", "-R", "1", "-e", "1", "-m", "1.5"], "invalid int value"),
        (["-p", "3", "-f", "1", "-R", "1", "-e", "1", "-m", "1", "--bogus"], "unrecognized arguments"),
        (["-p", "3", "-f", "1", "-R", "1", "-e", "1"], "required: -m"),
    ]

_FLAG_ERROR_SCRIPT = """
import contextlib, io, json, sys
from wildinv.cli import run
out = []
for argv in json.loads(sys.argv[1]):
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = run(argv)
    out.append([code, buf.getvalue(), err.getvalue()])
print(json.dumps(out))
"""


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
@pytest.mark.parametrize("cmd", sorted(FLAG_ERRORS))
def test_bad_flags_exit_2_with_a_json_error(cmd, optimize):
    # argparse's usage errors take the validation path: one JSON document
    # with an error on stdout, exit 2, nothing on stderr; -h keeps its help
    from wildinv.cli import SUBCOMMANDS

    assert sorted(FLAG_ERRORS) == sorted(SUBCOMMANDS)
    cases = [[cmd, *args] for args, _ in FLAG_ERRORS[cmd]]
    r = subprocess.run(
        [sys.executable, *(["-O"] if optimize else []), "-c", _FLAG_ERROR_SCRIPT, json.dumps(cases + [[cmd, "-h"]])],
        capture_output=True,
        text=True,
        env=_module_env(),
    )
    assert r.returncode == 0, r.stderr
    *errors, (help_code, help_out, _) = json.loads(r.stdout)
    for argv, (_, fragment), (code, out, err) in zip(cases, FLAG_ERRORS[cmd], errors):
        assert code == 2, argv
        doc = json.loads(out)
        assert list(doc) == ["error"] and fragment in doc["error"], (argv, doc)
        assert err == "", argv
    assert help_code == 0 and help_out.startswith(f"usage: wildinv {cmd}")


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_negative_max_k_exits_2_with_a_json_error(tmp_path, optimize):
    # a negative max_k from a flag or an input file is refused, by
    # invariants.full_report with or without the curve section and by
    # counts.curve_summary for count; max_k = 0 keeps its empty count list
    paths = []
    for name, flags in (("curve", {"curve": True, "max_k": -1}), ("plain", {"max_k": -5})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"p": 3, "f": 1, "R": "1", "e": 1, "m": 1, "flags": flags}))
        paths.append(str(path))
    poly = ["-p", "3", "-f", "1", "-R", "1", "-e", "1", "-m", "1"]
    cases = [
        ["report", *poly, "--curve", "--max-k", "-3"],
        ["count", *poly, "--max-k", "-2"],
        ["report", "--input", paths[0]],
        ["report", *poly, "--max-k", "-4"],
        ["report", "--input", paths[1]],
        ["count", *poly, "--max-k", "0"],
    ]
    r = subprocess.run(
        [sys.executable, *(["-O"] if optimize else []), "-c", _FLAG_ERROR_SCRIPT, json.dumps(cases)],
        capture_output=True,
        text=True,
        env=_module_env(),
    )
    assert r.returncode == 0, r.stderr
    *refused, (zero_code, zero_out, _) = json.loads(r.stdout)
    for argv, want, (code, out, err) in zip(cases[:-1], (-3, -2, -1, -4, -5), refused, strict=True):
        assert code == 2 and err == "", argv
        assert json.loads(out) == {"error": f"max_k must be >= 0, got {want}"}, argv
    assert zero_code == 0 and json.loads(zero_out)["counts"] == []


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_oversized_max_k_exits_2_before_any_form_is_classified(tmp_path, optimize):
    # N_10000 over F_3 has about 4,772 digits, more than Python converts to a
    # string by default; the refusal comes before the first form is
    # classified, from a flag or an input file
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"p": 3, "f": 1, "R": "1", "e": 1, "m": 1, "flags": {"curve": True, "max_k": 10000}}))
    poly = ["-p", "3", "-f", "1", "-R", "1", "-e", "1", "-m", "1"]
    cases = [
        ["report", *poly, "--curve", "--max-k", "10000"],
        ["report", "--input", str(path)],
        ["count", *poly, "--max-k", "10000"],
    ]
    script = (
        "from wildinv import counts\n"
        "def refuse(*args):\n"
        "    raise RuntimeError('a form was classified')\n"
        "counts._classify = refuse\n"
    ) + _FLAG_ERROR_SCRIPT
    r = subprocess.run(
        [sys.executable, *(["-O"] if optimize else []), "-c", script, json.dumps(cases)],
        capture_output=True,
        text=True,
        env=_module_env(),
    )
    assert r.returncode == 0, r.stderr
    for argv, (code, out, err) in zip(cases, json.loads(r.stdout), strict=True):
        assert code == 2 and err == "", argv
        assert json.loads(out) == {
            "error": f"max_k = 10000 is too large: N_10000 could have more than {sys.get_int_max_str_digits()} digits"
        }, argv


def test_closed_stdout_exits_1_without_a_traceback():
    # about 2 MB of counts into a pipe whose reader leaves after 100 bytes:
    # the write meets a broken pipe, which ends the run quietly with exit 1
    argv = ["report", "-p", "3", "-f", "1", "-R", "1", "-e", "1", "-m", "1", "--curve", "--max-k", "3000"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "wildinv", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env()
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


_NOT_INT = st.one_of(
    st.text(max_size=3), st.floats(allow_nan=False), st.booleans(), st.none(),
    st.lists(st.integers(0, 3), max_size=2), st.just({"n": 1}),
)


@st.composite
def _malformed_spec(draw):
    """A valid p3e1 input file spec with one or more faults: a missing key,
    a p, f, e or m that is no int, an R that is neither a string nor a list
    of strings, non-object flags, a max_k that is no int, a negative max_k
    with or without the curve section, a curve or oracle flag that is not
    JSON true or false, or a flag key that is not curve, oracle or max_k."""
    spec = {"p": 3, "f": 1, "R": "1", "e": 1, "m": 1}
    faults = draw(st.lists(
        st.sampled_from(["missing", "type", "R", "flags", "max_k", "negative", "flag_value", "flag_key"]),
        min_size=1, max_size=3,
    ))
    for fault in faults:
        if fault == "missing":
            spec.pop(draw(st.sampled_from(["p", "f", "R", "e", "m"])), None)
        elif fault == "type":
            spec[draw(st.sampled_from(["p", "f", "e", "m"]))] = draw(_NOT_INT)
        elif fault == "R":
            spec["R"] = draw(st.one_of(
                st.integers(), st.none(), st.floats(allow_nan=False), st.just({"c": "1"}),
                st.lists(st.one_of(st.integers(), st.none()), min_size=1, max_size=3),
            ))
        elif fault == "flags":
            spec["flags"] = draw(st.one_of(st.none(), st.integers(), st.text(max_size=3), st.lists(st.booleans(), max_size=2)))
        else:
            flags = spec.get("flags") if isinstance(spec.get("flags"), dict) else {}
            if fault == "max_k":
                flags["max_k"] = draw(_NOT_INT.filter(lambda v: v is not None))
            elif fault == "flag_value":
                flags[draw(st.sampled_from(["curve", "oracle"]))] = draw(st.one_of(
                    st.sampled_from(["false", "true", 0, 1, None]), _NOT_INT.filter(lambda v: type(v) is not bool),
                ))
            elif fault == "flag_key":
                flags[draw(st.sampled_from(["curv", "Curve", "max-k", "oracles"]) | st.text(max_size=4).filter(
                    lambda k: k not in ("curve", "oracle", "max_k")
                ))] = draw(st.booleans())
            else:
                flags["max_k"] = draw(st.integers(max_value=-1))
                if draw(st.booleans()):
                    flags["curve"] = draw(st.booleans())
            spec["flags"] = flags
    return spec


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
@settings(max_examples=10, deadline=None)
@given(st.lists(_malformed_spec(), min_size=1, max_size=8))
def test_malformed_input_files_exit_2_with_a_json_error(optimize, specs):
    # one fresh interpreter per drawn batch of input files; each file ends
    # in one JSON error document, exit 2, and nothing on stderr
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        cases = []
        for i, spec in enumerate(specs):
            path = Path(tmp) / f"in{i}.json"
            path.write_text(json.dumps(spec))
            cases.append(["report", "--input", str(path)])
        r = subprocess.run(
            [sys.executable, *(["-O"] if optimize else []), "-c", _FLAG_ERROR_SCRIPT, json.dumps(cases)],
            capture_output=True,
            text=True,
            env=_module_env(),
        )
    assert r.returncode == 0, r.stderr
    for spec, (code, out, err) in zip(specs, json.loads(r.stdout), strict=True):
        assert code == 2 and err == "", spec
        assert list(json.loads(out)) == ["error"], spec


R_SUBCOMMANDS = ("report", "primitivity", "quotient", "rootsystem", "count", "anisotropy", "prime")


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_every_subcommand_refuses_an_m_that_is_not_positive_and_prime_to_p(optimize):
    # the paper's m is a positive integer prime to p, and (p, e) = (2, 0) is
    # excluded; every subcommand that takes R admits (R, m) through one check,
    # in the words of invariants.full_report. count and prime used to print a
    # result for m = 0, m = 3 or m = -5 at p = 3, and report, rootsystem and
    # swan worded the same fault three ways
    from wildinv.invariants import full_report

    faults = [(["-p", "3", "-f", "1", "-R", "1", "-e", "1", "-m", m], (3, 1, [0, 1], int(m))) for m in ("0", "-5", "3")]
    faults.append((["-p", "2", "-f", "1", "-R", "1", "-e", "0", "-m", "1"], (2, 1, [1], 1)))
    messages = []
    for _, args in faults:
        with pytest.raises(ValidationError) as exc:
            full_report(*args)
        messages.append(str(exc.value))
    assert messages == ["m must be a positive integer"] * 2 + [
        "m = 3 must be prime to p = 3", "the pair (p, e) = (2, 0) is excluded"
    ]
    with pytest.raises(ValidationError, match="^R must be a nonzero additive polynomial$"):
        full_report(3, 1, [0, 0], 1)
    cases = [[cmd, *argv] for cmd in R_SUBCOMMANDS for argv, _ in faults]
    wanted = messages * len(R_SUBCOMMANDS)
    cases += [["swan", "-p", "3", "-e", "1", "-dR", "4", "-m", m] for m in ("0", "-5", "3")]
    wanted += messages[:3]
    cases.append(["count", "-p", "3", "-f", "1", "-R", "1", "-e", "1", "-m", "2", "--max-k", "2"])
    r = subprocess.run(
        [sys.executable, *(["-O"] if optimize else []), "-c", _FLAG_ERROR_SCRIPT, json.dumps(cases)],
        capture_output=True,
        text=True,
        env=_module_env(),
    )
    assert r.returncode == 0, r.stderr
    *refused, (good_code, good_out, _) = json.loads(r.stdout)
    for argv, message, (code, out, err) in zip(cases[:-1], wanted, refused, strict=True):
        assert code == 2 and err == "", argv
        assert json.loads(out) == {"error": message}, argv
    assert good_code == 0 and json.loads(good_out)["counts"] == [3, 3]


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_an_e_out_of_range_or_a_kernel_past_the_guard_is_refused_before_the_work(optimize):
    # e = -1 used to meet a coefficient-count error; e = 3000 ran the capped
    # splitting-degree search for 5 s and ended in exit 3, e = 30000 ran for
    # longer than 30 s, and count printed a traceback for it. 2e > 512 is now
    # refused before any list of e + 1 coefficients is built, and a kernel
    # with p^{2e} > 2^40 elements before the splitting-degree search
    from wildinv import ambient, ff
    from wildinv.invariants import full_report

    too_large = "e = {} is too large: ker E needs a field of degree 2e > 512"
    ones = ";".join(["1"] * 121)
    refused = [
        (["report", "-p", "3", "-f", "1", "-R", "1", "-e", "-1", "-m", "1"], "e must be >= 0"),
        *((["report", "-p", "3", "-f", "1", "-R", "1", "-e", e, "-m", "1"], too_large.format(e)) for e in ("257", "3000", "30000")),
        *(([cmd, "-p", "3", "-f", "1", "-R", "1", "-e", "3000", "-m", "1"], too_large.format(3000)) for cmd in R_SUBCOMMANDS[1:]),
        (["count", "-p", "3", "-f", "1", "-R", "1", "-e", "30000", "-m", "1"], too_large.format(30000)),
        *(([cmd, "-p", "3", "-f", "1", "-R", ones, "-e", "120", "-m", "1"], "ker E has 3^240 elements, beyond the 2^40 size guard")
          for cmd in ("report", "primitivity", "quotient", "anisotropy")),
    ]
    with pytest.raises(ValidationError, match=f"^{too_large.format(257)}$"):
        full_report(3, 1, [0] * 257 + [1], 1)
    ambient.check_p_degree(ff.MAX_DEGREE // 2)  # the largest e admitted
    script = (
        "from wildinv import addpoly\n"
        "def refuse(*args):\n"
        "    raise RuntimeError('the splitting degree was searched')\n"
        "addpoly.splitting_degree = refuse\n"
    ) + _FLAG_ERROR_SCRIPT
    r = subprocess.run(
        [sys.executable, *(["-O"] if optimize else []), "-c", script, json.dumps([argv for argv, _ in refused])],
        capture_output=True,
        text=True,
        env=_module_env(),
        timeout=60,
    )
    assert r.returncode == 0, r.stderr
    for (argv, message), (code, out, err) in zip(refused, json.loads(r.stdout), strict=True):
        assert code == 2 and err == "", argv
        assert json.loads(out) == {"error": message}, argv


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_a_work_cap_or_a_huge_curve_field_is_a_validation_error(optimize):
    # prime searches the splitting degree of E for the 121-term R up to its
    # cap ff.MAX_DEGREE // n0 = 512, which used to end as a theorem violation
    # (exit 3); the curve guard used to print the degree p^e + 2 of its
    # field, which for p = 2^61 - 1 at e = 240 has more digits than Python
    # prints (exit 1)
    big = str(2 ** 61 - 1)
    cases = [
        ["prime", "-p", "3", "-f", "1", "-R", ";".join(["1"] * 121), "-e", "120", "-m", "1"],
        ["count", "-p", big, "-f", "1", "-R", "1", "-e", "240", "-m", "1"],
        ["report", "-p", big, "-f", "1", "-R", "1", "-e", "240", "-m", "1", "--curve"],
    ]
    r = subprocess.run(
        [sys.executable, *(["-O"] if optimize else []), "-c", _FLAG_ERROR_SCRIPT, json.dumps(cases)],
        capture_output=True,
        text=True,
        env=_module_env(),
        timeout=60,
    )
    assert r.returncode == 0, r.stderr
    (cap_doc, *curve_docs) = json.loads(r.stdout)
    for argv, (code, out, err) in zip(cases, (cap_doc, *curve_docs), strict=True):
        assert code == 2 and err == "", argv
    assert "structural cap" in json.loads(cap_doc[1])["error"]
    for _, out, _ in curve_docs:
        assert json.loads(out) == {
            "error": f"the curve section needs F_{big}^k with k = 1 ({big}^240 + 2), "
            "beyond the 2^256-element curve field guard"
        }


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_swan_refuses_a_negative_e_and_a_conductor_too_long_to_print(optimize):
    # p^e used to be formed before any check: e = -1 gave a float and the
    # wrong error, and a conductor past Python's int-to-string limit ended
    # in a traceback from the JSON output; e = 10^12 would never finish
    limit = 4300
    too_long = f"the Swan conductor would have more than {limit} digits"
    refused = [
        (["-p", "3", "-e", "-1", "-dR", "1", "-m", "1"], "e must be >= 0"),
        (["-p", "3", "-e", "1000000", "-dR", "1", "-m", "1"], too_long),
        (["-p", "7", "-e", "5200", "-dR", "2", "-m", "1"], too_long),
        (["-p", "3", "-e", str(10 ** 12), "-dR", "1", "-m", "1"], too_long),
        # 2^14285 + 1 has 4301 digits, so only the exact test refuses it
        (["-p", "2", "-e", "14285", "-dR", "1", "-m", "1"], too_long),
    ]
    cases = [["swan", *args] for args, _ in refused]
    cases.append(["swan", "-p", "2", "-e", "14284", "-dR", "1", "-m", "1"])  # 4300 digits
    r = subprocess.run(
        [sys.executable, *(["-O"] if optimize else []), "-X", f"int_max_str_digits={limit}",
         "-c", _FLAG_ERROR_SCRIPT, json.dumps(cases)],
        capture_output=True,
        text=True,
        env=_module_env(),
        timeout=60,
    )
    assert r.returncode == 0, r.stderr
    *errors, (code, out, err) = json.loads(r.stdout)
    for (argv, message), (got, doc, stderr) in zip(refused, errors, strict=True):
        assert got == 2 and stderr == "", argv
        assert json.loads(doc) == {"error": message}, argv
    assert code == 0 and err == ""
    assert json.loads(out, parse_int=str) == {"swan": str(2 ** 14284 + 1)}


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_rootsystem_refuses_a_non_monomial_r(optimize):
    # the root system is that of a_e x^{p^e}; for x + x^3 it used to print
    # the type-A system of x^3 and exit 0, while report said "R is not a
    # monomial"; the refusal comes before any root-system field is built
    script = (
        "from wildinv import rootsys\n"
        "def refuse(*args):\n"
        "    raise RuntimeError('a root system was built')\n"
        "rootsys.monomial_root_system = refuse\n"
    ) + _FLAG_ERROR_SCRIPT
    poly = ["-p", "3", "-f", "1", "-e", "1", "-m", "1"]
    cases = [["rootsystem", *poly, "-R", "1;1"], ["rootsystem", "-p", "3", "-f", "2", "-R", "1;0,1", "-e", "1", "-m", "2"]]
    r = subprocess.run(
        [sys.executable, *(["-O"] if optimize else []), "-c", script, json.dumps(cases)],
        capture_output=True,
        text=True,
        env=_module_env(),
    )
    assert r.returncode == 0, r.stderr
    for argv, (code, out, err) in zip(cases, json.loads(r.stdout), strict=True):
        assert code == 2 and err == "", argv
        assert json.loads(out) == {"error": "R is not a monomial"}, argv
    code, out = cap(["rootsystem", *poly, "-R", "0;1"])
    assert code == 0 and json.loads(out)["root_system"]["type"] == "A"


def test_curve_guard_admits_p127_at_e0_with_the_same_bytes_twice():
    # (p - 1)^3 = 2.0e6 coordinate products in Z[zeta_127], far below the
    # 10^8 bound; the former estimate (2g (p - 1))^2 / 2 = 1.3e8 refused it
    argv = ["report", "-p", "127", "-f", "1", "-R", "1", "-e", "0", "-m", "1", "--curve"]
    outs = []
    for _ in range(2):
        r = subprocess.run([sys.executable, "-m", "wildinv", *argv], capture_output=True, env=_module_env(), timeout=60)
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout)
    assert outs[0] == outs[1]
    curve = json.loads(outs[0])["curve"]
    assert curve["genus"] == 63 and curve["supersingular"] is True
    assert len(curve["counts"]) == 126


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_curve_guard_refuses_before_any_form_is_built(optimize):
    # p = 10007 at e = 0 (about 10^12 coordinate products), from report and
    # from count, which share one pre-flight
    script = (
        "from wildinv import counts\n"
        "def refuse(*args):\n"
        "    raise RuntimeError('a form was built')\n"
        "counts._form_data = refuse\n"
    ) + _FLAG_ERROR_SCRIPT
    poly = ["-f", "1", "-R", "1", "-e", "0", "-m", "1"]
    cases = [["report", "-p", "10007", *poly, "--curve"], ["count", "-p", "10007", *poly], ["report", "-p", "467", *poly, "--curve"]]
    r = subprocess.run(
        [sys.executable, *(["-O"] if optimize else []), "-c", script, json.dumps(cases)],
        capture_output=True,
        text=True,
        env=_module_env(),
        timeout=60,
    )
    assert r.returncode == 0, r.stderr
    for argv, (code, out, err) in zip(cases, json.loads(r.stdout), strict=True):
        assert code == 2 and err == "", argv
        assert "guard" in json.loads(out)["error"], argv


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_default_count_list_too_long_to_print_exits_2(optimize):
    # p = 463, f = 4 passes the curve guards, but N_462 would have about
    # 4,930 digits, past Python's default int-to-string limit: the default
    # max_k = 2g is refused before any form is built, not in the JSON output
    script = (
        "from wildinv import counts\n"
        "def refuse(*args):\n"
        "    raise RuntimeError('a form was built')\n"
        "counts._form_data = refuse\n"
    ) + _FLAG_ERROR_SCRIPT
    cases = [["report", "-p", "463", "-f", "4", "-R", "1", "-e", "0", "-m", "1", "--curve"]]
    r = subprocess.run(
        [sys.executable, *(["-O"] if optimize else []), "-X", "int_max_str_digits=4300", "-c", script, json.dumps(cases)],
        capture_output=True,
        text=True,
        env=_module_env(),
        timeout=60,
    )
    assert r.returncode == 0, r.stderr
    [(code, out, err)] = json.loads(r.stdout)
    assert code == 2 and err == ""
    assert json.loads(out) == {"error": "max_k = 462 is too large: N_462 could have more than 4300 digits"}


# tokens of the forms the direct reader declines, for argparse to read:
# help, '--', single-dash joins, prefixes of long flags and unknown flags
_ODD_TOKENS = ["-h", "--help", "--", "-p3", "-p=3", "-m-1", "-dR4", "-dR=4", "--cur", "--max", "--in", "--inp=x",
               "-d", "--bogus", "-x", "-", "--max-k=", "--curve=1", "--oracle=", "--=1"]
# values: ints, negative ints, and strings that int() refuses or reads
# loosely, or that start with '-' without being a negative integer
_VALUES = st.one_of(
    st.integers(-12, 12).map(str),
    st.sampled_from(["", " 3", "3 ", "+2", "1_0", "1.5", "-1.5", "x", "1;0", "0,1", "-", "-x", "--", "-p", "-1\n",
                     "٣", "-٣", "²", "-²", "a=b", "-3=4"]),
    st.text(max_size=3),
)


@st.composite
def _flag_argv(draw, cmd):
    """An argv of the subcommand: every flag of its table with a value,
    permuted, some dropped, some repeated, some joined as --long=value, and
    a few tokens replaced or inserted from the forms the reader declines."""
    from wildinv.cli import _FLAGS

    groups = []
    for flag, kind, *_ in _FLAGS[cmd]:
        if draw(st.integers(0, 9)) == 0:
            continue
        for _ in range(draw(st.sampled_from([1, 1, 1, 2]))):
            if kind == "store_true":
                groups.append([flag] if draw(st.integers(0, 5)) else [f"{flag}={draw(_VALUES)}"])
                continue
            value = draw(st.integers(-3, 7).map(str) if kind is int else st.sampled_from(["1", "1;0", "0,1"]))
            if draw(st.integers(0, 5)) == 0:
                value = draw(_VALUES)
            if flag.startswith("--") and draw(st.booleans()):
                groups.append([f"{flag}={value}"])
            else:
                groups.append([flag, value])
    argv = [token for group in draw(st.permutations(groups)) for token in group]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        token = draw(st.sampled_from(_ODD_TOKENS) | _VALUES)
        i = draw(st.integers(0, len(argv)))
        if argv and draw(st.booleans()):
            argv[min(i, len(argv) - 1)] = token
        else:
            argv.insert(i, token)
    return argv


@pytest.mark.parametrize("cmd", SUBCOMMANDS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_direct_reader_agrees_with_argparse(cmd, data):
    # the reader either declines an argv or returns exactly what argparse,
    # built from the same flag table, makes of it: the same keys, values and
    # types, and never a dict where argparse prints help or an error
    from wildinv.cli import _parser, _read_flags

    argv = data.draw(_flag_argv(cmd))
    flags = _read_flags(cmd, argv)
    if flags is None:
        return
    want = vars(_parser(cmd).parse_args(argv))
    assert sorted((k, type(v), v) for k, v in flags.items()) == sorted((k, type(v), v) for k, v in want.items())


def test_direct_reader_declines_every_other_form():
    # argparse reads these: it prints help, errors, or accepts a form of
    # its own (-p3, -p=3, --cur for --curve, '-' or '-x' as a value)
    from wildinv.cli import _read_flags

    poly = ["-p", "3", "-f", "1", "-R", "1", "-e", "1", "-m", "1"]
    declined = [
        ["-h"], [*poly, "--help"], ["-p3", *poly[2:]], ["-p=3", *poly[2:]], [*poly, "--cur"], ["--", *poly],
        [*poly, "--bogus"], [*poly, "x"], [*poly, "--max-k"], ["-p", "x", *poly[2:]], [*poly, "--max-k=1.5"],
        [*poly, "--curve=1"], [*poly, "--oracle="], [*poly, "-R", "-"], [*poly, "-R", "-x"], [*poly, "-R", "-²"],
        [*poly, "-R", "--"], [*poly, "--input=-x"], [*poly, "-R", "-1\n"],
    ]
    for argv in declined:
        assert _read_flags("report", argv) is None, argv
    for argv in (poly[:-2], poly[2:], ["-p", "3", "-e", "1", "-m", "1"]):
        assert _read_flags("primitivity", argv) is None, argv
    assert _read_flags("swan", ["-p", "3", "-e", "1", "-dR", "4"]) is None


def test_well_formed_argv_is_read_without_argparse(monkeypatch):
    # exact flags in any order, repeats (the last wins), --long=value and
    # negative values take the direct reader; the goldens' argv among them
    from wildinv import cli

    def refuse(cmd):
        raise AssertionError(f"argparse was built for {cmd}")

    poly = ["-p", "3", "-f", "1", "-R", "1", "-e", "1", "-m", "1"]
    read = {
        "report": [
            *(args for args in GOLDEN_ARGV.values()),
            ["-m", "1", "-e", "1", "-R", "1", "-f", "1", "-p", "3"],
            ["-p", "5", *poly, "--curve", "--curve", "--max-k=2"],
            [*poly, "--max-k", "-1"],
            ["--input=in.json"],
            [],
        ],
        "count": [[*poly, "--max-k", "4", "--max-k=3"]],
        "swan": [["-dR", "4", "-m", "-2", "-e", "1", "-p", "3"]],
    }
    for cmd, argvs in read.items():
        for argv in argvs:
            assert cli._read_flags(cmd, argv) is not None, argv
    monkeypatch.setattr(cli, "_parser", refuse)
    code, out = cap(["report", "-p", "5", *poly, "--curve", "--curve", "--max-k=2"])
    assert code == 0 and len(json.loads(out)["curve"]["counts"]) == 2
    code, out = cap(["swan", "-dR", "4", "-m", "2", "-e", "1", "-p", "3"])
    assert (code, json.loads(out)) == (0, {"swan": 2})


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_input_stands_alone_and_empty_coefficients_are_refused(tmp_path, optimize):
    # --input with any other flag, read directly or by argparse (-p3), used
    # to ignore the flags; an empty coefficient, from -R or the file, and a
    # ';' inside a file's list entry used to be dropped or split silently
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"p": 3, "f": 1, "R": "1", "e": 1, "m": 1}))
    files = []
    for i, R in enumerate([["1", ""], ["", "1"], ["1;0", "1"], "1;"]):
        files.append(tmp_path / f"r{i}.json")
        files[-1].write_text(json.dumps({"p": 3, "f": 1, "R": R, "e": 2 if i == 2 else 1, "m": 1}))
    poly = ["-p", "3", "-f", "1", "-e", "1", "-m", "1"]
    cases = [
        (["report", "--input", str(path), "--curve"], "--input takes no other flags; also given: --curve"),
        (["report", "-p", "5", "-m", "2", "--input", str(path)], "--input takes no other flags; also given: -p, -m"),
        (["report", "--input", str(path), "-p3", "--max-k=2", "--oracle"],
         "--input takes no other flags; also given: -p, --oracle, --max-k"),
        (["report", *poly, "-R", "1;"], "R '1;' has an empty coefficient"),
        (["primitivity", *poly, "-R", ";1"], "R ';1' has an empty coefficient"),
        (["count", *poly, "-R", "1; ;1"], "R '1; ;1' has an empty coefficient"),
        (["report", "--input", str(files[0])], "R '1;' has an empty coefficient"),
        (["report", "--input", str(files[1])], "R ';1' has an empty coefficient"),
        (["report", "--input", str(files[2])], "input file 'R' list entries are single coefficients, without ';'"),
        (["report", "--input", str(files[3])], "R '1;' has an empty coefficient"),
        (["report", *poly, "-R", ";"], "empty R"),
    ]
    r = subprocess.run(
        [sys.executable, *(["-O"] if optimize else []), "-c", _FLAG_ERROR_SCRIPT, json.dumps([a for a, _ in cases])],
        capture_output=True,
        text=True,
        env=_module_env(),
    )
    assert r.returncode == 0, r.stderr
    for (argv, error), (code, out, err) in zip(cases, json.loads(r.stdout), strict=True):
        assert (code, err) == (2, ""), argv
        assert json.loads(out) == {"error": error}, argv
