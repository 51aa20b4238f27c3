"""Command line front end: every subcommand prints exactly one JSON document.

Exit codes: 0 success, 1 unknown subcommand or stdout closed by its reader,
2 validation error, 3 internal consistency check failed (which should never
happen).
"""

import json
import os
import sys

from . import addpoly, ambient, counts, ff, invariants, rootsys, sympmod
from .errors import TheoremViolation, ValidationError

SUBCOMMANDS = ("report", "primitivity", "swan", "quotient", "rootsystem", "count", "anisotropy", "prime")


def _poly_flags(required):
    return tuple((flag, kind, required, None, text) for flag, kind, text in (
        ("-p", int, "prime"),
        ("-f", int, "q = p^f"),
        ("-R", str, "coefficients c_0;...;c_e (monomial shorthand: a single entry is a_e)"),
        ("-e", int, "top p-power degree of R"),
        ("-m", int, "twist integer, prime to p"),
    ))


_MAX_K = ("--max-k", int, False, None, None)

# each subcommand's flags in the order -h lists them, as (flag, kind,
# required, default, help) with kind int, str or "store_true"
_FLAGS = {
    "report": _poly_flags(False) + (
        ("--input", str, False, None, "JSON input file"),
        ("--curve", "store_true", False, False, None),
        ("--oracle", "store_true", False, False, None),
        _MAX_K,
    ),
    "swan": tuple((flag, int, True, None, None) for flag in ("-p", "-e", "-dR", "-m")),
    "count": _poly_flags(True) + (_MAX_K,),
    **{cmd: _poly_flags(True) for cmd in ("primitivity", "quotient", "rootsystem", "anisotropy", "prime")},
}


def _dest(flag):
    return flag.lstrip("-").replace("-", "_")


def _read_flags(cmd, argv):
    """vars(parse_args(argv)) of the subcommand's argparse parser, read
    without argparse; None when argv holds any form but exact flags,
    --long=value and values that do not start with '-' unless they are
    negative integers, or lacks a required flag. argparse then reads it, for
    its help, its errors and its other forms (-p3, prefixes of long flags)."""
    table = _FLAGS[cmd]
    kinds = {flag: kind for flag, kind, *_ in table}
    flags = {_dest(flag): default for flag, _, _, default, _ in table}
    tokens = iter(argv)
    for token in tokens:
        flag, eq, value = token.partition("=") if token.startswith("--") else (token, "", "")
        kind = kinds.get(flag)
        if kind is None:
            return None
        if kind == "store_true":
            if eq:
                return None
            flags[_dest(flag)] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                return None
        if value.startswith("-") and not value[1:].isdecimal():
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        flags[_dest(flag)] = value
    if any(required and flags[_dest(flag)] is None for flag, _, required, _, _ in table):
        return None
    return flags


def _parser(cmd):
    """The argparse parser of the subcommand's flag table; its usage errors
    (a bad int, an unknown or a missing flag) raise ValidationError, and its
    -h prints the help and raises SystemExit."""
    import argparse

    class ArgumentParser(argparse.ArgumentParser):
        def error(self, message):
            raise ValidationError(message)

    parser = ArgumentParser(prog=f"wildinv {cmd}", add_help=True)
    for flag, kind, required, default, text in _FLAGS[cmd]:
        if kind == "store_true":
            parser.add_argument(flag, action=kind, help=text)
        else:
            parser.add_argument(flag, type=kind, required=required, default=default, help=text)
    return parser


def parse_coefficient(tok: str, base):
    """One F_q element: comma-separated coordinates, short vectors padded."""
    tok = tok.strip()
    try:
        coords = [int(t) for t in tok.split(",")]
    except ValueError as exc:
        raise ValidationError(f"bad coefficient {tok!r}") from exc
    if len(coords) > base.n:
        raise ValidationError(f"coefficient {tok!r} has more than {base.n} coordinates")
    coords += [0] * (base.n - len(coords))
    return base.el(coords)


def parse_additive_poly(text: str, p: int, f: int, e: int) -> addpoly.AdditivePoly:
    """-R string to a polynomial: full low-to-high list "c_0;...;c_e", or the
    monomial shorthand of a single entry meaning a_e when e >= 1. The range
    of e is checked before any list of e + 1 coefficients is built."""
    base = ff.field_create(p, f)
    ambient.check_p_degree(e)
    entries = text.split(";")
    if not any(t.strip() for t in entries):
        raise ValidationError("empty R")
    if not all(t.strip() for t in entries):
        raise ValidationError(f"R {text!r} has an empty coefficient")
    if len(entries) == 1 and e >= 1:
        coeff = parse_coefficient(entries[0], base)
        coeffs = [base.zero()] * e + [coeff]
    else:
        if len(entries) != e + 1:
            raise ValidationError(
                f"R lists {len(entries)} coefficients but the declared degree e = {e} "
                f"needs {e + 1}"
            )
        coeffs = [parse_coefficient(t, base) for t in entries]
    R = addpoly.AdditivePoly(base, coeffs)
    if R.is_zero() or R.p_degree != e:
        raise ValidationError("leading coefficient a_e must be nonzero")
    return R


def _load_input_file(path):
    """(R, m, flags) from a JSON input file; flags holds at most curve,
    oracle and max_k, the keyword arguments of invariants.full_report."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read input file {path!r}: {exc.strerror}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValidationError(f"input file {path!r} is not JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ValidationError("input file must hold a JSON object")
    for key in ("p", "f", "R", "e", "m"):
        if key not in spec:
            raise ValidationError(f"input file is missing {key!r}")
    for key in ("p", "f", "e", "m"):
        if type(spec[key]) is not int:
            raise ValidationError(f"input file {key!r} must be an integer")
    rspec = spec["R"]
    if not isinstance(rspec, str) and not (
        isinstance(rspec, list) and all(isinstance(t, str) for t in rspec)
    ):
        raise ValidationError("input file 'R' must be a string or a list of coefficient strings")
    flags = spec.get("flags", {})
    if not isinstance(flags, dict):
        raise ValidationError("input file 'flags' must be a JSON object")
    unknown = sorted(set(flags) - {"curve", "oracle", "max_k"})
    if unknown:
        raise ValidationError(f"input file has unknown flags {unknown}; the flags are curve, oracle and max_k")
    for key in ("curve", "oracle"):
        if type(flags.get(key, False)) is not bool:
            raise ValidationError(f"input file flag {key!r} must be true or false")
    max_k = flags.get("max_k")
    if max_k is not None and type(max_k) is not int:
        raise ValidationError("input file flag 'max_k' must be an integer or null")
    if isinstance(rspec, str) and rspec.lstrip().startswith("q="):
        # the canonical text form carries its own field and degree
        R = addpoly.parse_additive_poly_text(rspec)
        if (R.base.p, R.base.n, R.p_degree) != (spec["p"], spec["f"], spec["e"]):
            raise ValidationError("text-form R disagrees with the declared p, f, e")
    else:
        if isinstance(rspec, list) and any(";" in t for t in rspec):
            raise ValidationError("input file 'R' list entries are single coefficients, without ';'")
        R = parse_additive_poly(rspec if isinstance(rspec, str) else ";".join(rspec), spec["p"], spec["f"], spec["e"])
    return R, spec["m"], flags


def _report(R, m, **flags):
    return invariants.full_report(R.base.p, R.base.n, list(R.coeffs), m, **flags).to_json()


def _primitivity(R, m):
    return invariants._verdict_json(invariants.primitivity(R, m))


def _anisotropy(R, m):
    M = sympmod.build(R, m)
    anis, wit = sympmod.completely_anisotropic(M)
    return {
        "dim": M.dim,
        "d": M.d,
        "completely_anisotropic": anis,
        "witness_basis": None if wit is None else [ff.format_element(x) for x in wit.field_elements()],
    }


def _quotient(R, m):
    res = invariants.primitivity(R, m)
    if res.kind != "imprimitive":
        return {"verdict": res.kind, "induction": None}
    doc = invariants._verdict_json(res)
    # p = 2 has a witness but no descent datum
    return {"verdict": "imprimitive", "induction": doc.get("induction"), "witness_basis": doc.get("witness_basis")}


def _rootsystem(R, m):
    if any(not c.is_zero() for c in R.coeffs[:-1]):
        raise ValidationError("R is not a monomial")
    return {"root_system": rootsys.monomial_summary(R.p, R.base.n, R.p_degree, R.coeffs[-1], m)[1]}


def _count(R, m, max_k):
    return counts.curve_summary(R, max_k=max_k)


def _prime(R, m):
    E = addpoly.e_poly(R)
    doc = {"e_poly_prime": addpoly.is_prime(E)}
    # the transport route applies when d_R = p^t + 1 with f | t; d_R = 1
    # gives x = 0, which no power of p reaches
    k, x = 0, addpoly.scaling_order(R) - 1
    while x and x % R.p == 0:
        x //= R.p
        k += 1
    if x == 1 and k >= 1 and k % R.base.n == 0:
        try:
            cs = addpoly.coeff_transport(E, k)
        except ValidationError:
            return doc
        doc["transport"] = {
            "t": k,
            "irreducible": addpoly.classical_is_irreducible(cs),
            "reciprocal": addpoly.is_reciprocal(cs),
        }
        # reducible transport always certifies a decomposition;
        # the converse only binds within the p^t-power subring
        if not doc["transport"]["irreducible"] and doc["e_poly_prime"]:
            raise TheoremViolation("a reducible transport must make E composite")
    return doc


# the document of each subcommand that takes (R, m), with its further flags
_DOCUMENTS = {"report": _report, "primitivity": _primitivity, "quotient": _quotient, "rootsystem": _rootsystem,
              "count": _count, "anisotropy": _anisotropy, "prime": _prime}


def _document(cmd, argv):
    """Parse one subcommand's flags, admit (R, m) and compute its document."""
    flags = _read_flags(cmd, argv)
    if flags is None:
        flags = vars(_parser(cmd).parse_args(argv))
    if cmd == "swan":
        return {"swan": int(invariants.swan_conductor(flags["p"], flags["e"], flags["dR"], flags["m"]))}
    path = flags.pop("input", None)
    if path is not None:
        extra = [flag for flag, _, _, default, _ in _FLAGS[cmd] if flag != "--input" and flags[_dest(flag)] != default]
        if extra:
            raise ValidationError(f"--input takes no other flags; also given: {', '.join(extra)}")
    p, f, text, e, m = (flags.pop(k) for k in ("p", "f", "R", "e", "m"))
    if path:
        R, m, flags = _load_input_file(path)
    elif None in (p, f, text, e, m):
        raise ValidationError("report needs -p -f -R -e -m or --input")
    else:
        R = parse_additive_poly(text, p, f, e)
    ambient.validate_input(R, m)
    return _DOCUMENTS[cmd](R, m, **flags)


def run(argv) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        sys.stderr.write(_usage())
        return 0 if argv else 1
    cmd = argv[0]
    if cmd not in SUBCOMMANDS:
        sys.stderr.write(f"unknown subcommand {cmd!r}\n{_usage()}")
        return 1
    try:
        doc, code = _document(cmd, argv[1:]), 0
    except ValidationError as exc:
        doc, code = {"error": str(exc)}, 2
    except TheoremViolation as exc:
        doc, code = {"error": f"internal consistency violation: {exc}"}, 3
    except SystemExit:  # -h: argparse has printed the help
        return 0
    # two writes: when the reader closes stdout during the long first one,
    # that write can return without error, and the second raises it
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True))
    sys.stdout.write("\n")
    return code


def _usage() -> str:
    return (
        "usage: wildinv <subcommand> [options]\n"
        "subcommands: " + ", ".join(SUBCOMMANDS) + "\n"
        "try: wildinv report -p 3 -f 1 -R \"1\" -e 1 -m 1\n"
    )


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (say `| head`); point it at devnull so the
        # interpreter's final flush does not raise again (Python docs, "Note
        # on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
