import contextlib
import io
import json
import subprocess
import sys

import pytest

from wildinv.cli import parse_additive_poly, run
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
    code, out = cap(["swan", "-p", "3", "-e", "1", "-dR", "4", "-m", "3"])
    assert code == 0
    assert json.loads(out) == {"swan": 3}


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
    # bare int or a list of ints, and mistyped numbers each end in a JSON
    # error, never a traceback
    good = {"p": 3, "f": 1, "R": "1", "e": 1, "m": 1}
    texts = [
        "not json",
        "[1]",
        json.dumps(dict(good, R=1)),
        json.dumps(dict(good, R=[1, 0])),
        json.dumps(dict(good, p="3")),
        json.dumps(dict(good, flags={"curve": True, "max_k": "2"})),
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
}


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
        "counts._distribution_odd = lambda p, n, B, q: ({0: 1}, 0)\n"
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
    # q^{2g} = 11^110 and 101^100: Z comes from the conjugates of L(psi_1),
    # which needs F_q^k for k <= p^e + 2 only
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
    code, out = cap(["count", "-p", "101", "-f", "1", "-R", "1", "-e", "0", "-m", "1"])
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
