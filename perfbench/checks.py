"""Output checks for one `report` document, independent of wildinv.

Every expected value is computed here from the input, or is a property the
method must have; nothing is compared against stored reports. The curve
checks rest on the theorem that every curve y^p - y = x R(x) is
supersingular (van der Geer & van der Vlugt, 1992).

Run as a script for the self-test: it builds two reports with wildinv and
shows that an altered swan, off-diagonal or diagonal gram entry, count or
zeta coefficient is rejected.

    python3 perfbench/checks.py
"""

import copy
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path


def rank_mod_p(rows, p):
    """Rank over F_p by Gaussian elimination on Python ints."""
    rows = [[x % p for x in r] for r in rows]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def power_sums(zeta, kmax):
    """s_k = sum of alpha^k for P(T) = sum c_j T^j = prod (1 - alpha T),
    by Newton's identities k c_k + sum_{i=1}^{k} s_i c_{k-i} = 0."""
    c = list(zeta) + [0] * max(0, kmax + 1 - len(zeta))
    s = []
    for k in range(1, kmax + 1):
        s.append(-k * c[k] - sum(s[i - 1] * c[k - i] for i in range(1, k)))
    return s


def _check_curve(spec, curve, fail):
    p, f, e = spec["p"], spec["f"], spec["e"]
    q = p ** f
    g = (p - 1) * p ** e // 2
    if curve.get("genus") != g:
        fail(f"genus {curve.get('genus')} != (p-1)p^e/2 = {g}")
    zeta = curve.get("zeta_numerator") or []
    if len(zeta) != 2 * g + 1 or zeta[0] != 1:
        fail("zeta numerator must have constant term 1 and degree 2g")
        return
    if any(zeta[2 * g - i] != q ** (g - i) * zeta[i] for i in range(g + 1)):
        fail("zeta numerator fails c_(2g-i) = q^(g-i) c_i")
    if curve.get("functional_equation_sign") != 1:
        fail("functional equation sign must be 1")
    counts = curve.get("counts") or []
    if len(counts) != 2 * g:
        fail(f"{len(counts)} counts, expected 2g = {2 * g}")
    for k, (N, s) in enumerate(zip(counts, power_sums(zeta, len(counts))), start=1):
        if N != q ** k - s:
            fail(f"N_{k} = {N} but the zeta numerator gives {q ** k - s}")
        if (q ** k - N) ** 2 > 4 * g * g * q ** k:
            fail(f"N_{k} = {N} breaks the Weil bound")
    if f == 1 and counts:
        a = sum(c[0] for c in spec["coeffs"]) % p
        want = p * (p if a == 0 else 1)
        if counts[0] != want:
            fail(f"N_1 = {counts[0]}, expected p * #{{x in F_p : {a} x^2 = 0}} = {want}")
    if curve.get("supersingular") is not True:
        fail("every curve y^p - y = x R(x) is supersingular")
    if curve.get("psi_L_degrees") != [p ** e] * (p - 1):
        fail(f"psi_L_degrees {curve.get('psi_L_degrees')} != p - 1 copies of p^e")


def check_report(spec, doc):
    """Reasons the report `doc` for input `spec` is wrong; empty when it passes."""
    out = []
    fail = out.append
    try:
        p, f, e, m = spec["p"], spec["f"], spec["e"], spec["m"]
        inp = doc["input"]
        if (inp["p"], inp["f"], inp["e"], inp["m"]) != (p, f, e, m):
            fail("input echo differs from the input")
        d_R = 0
        for i, c in enumerate(spec["coeffs"]):
            if any(x % p for x in c):
                d_R = gcd(d_R, p ** i + 1)
        if doc["d_R"] != d_R:
            fail(f"d_R {doc['d_R']} != {d_R}")
        swan = Fraction(m * (p ** e + 1), d_R)
        if (doc["swan"]["num"], doc["swan"]["den"]) != (swan.numerator, swan.denominator):
            fail(f"swan {doc['swan']} != m(p^e+1)/d_R = {swan}")
        if doc["degree"] != p ** e:
            fail(f"degree {doc['degree']} != p^e")

        mod = doc["module"]
        dim = mod["dim"]
        gram = mod["gram"]
        if dim != 2 * e:
            fail(f"module dim {dim} != 2e")
        if len(gram) != dim or any(len(r) != dim for r in gram):
            fail("gram is not dim x dim")
        else:
            if any((gram[i][j] + gram[j][i]) % p for i in range(dim) for j in range(dim)):
                fail("gram is not antisymmetric mod p")
            if any(gram[i][i] % p for i in range(dim)):
                fail("gram diagonal is not zero mod p")
            if rank_mod_p(gram, p) != dim:
                fail("gram is singular mod p")

        verdict = doc["verdict"]
        kind = verdict["kind"]
        if kind not in ("primitive", "imprimitive", "primitive_unramified_unstable"):
            fail(f"unknown verdict {kind!r}")
        if kind == "imprimitive":
            w = len(verdict.get("witness_basis") or [])
            if not 1 <= w <= e:
                fail(f"witness size {w} not in 1..e")
            if p != 2:
                ind = verdict.get("induction") or {}
                if ind.get("F_prime_degree") != p ** w:
                    fail(f"F_prime_degree {ind.get('F_prime_degree')} != p^w")
                if len((ind.get("r") or {}).get("coeffs", [])) != w + 1:
                    fail("r does not have w + 1 coefficients")
                if ind.get("e_prime") != e - w:
                    fail(f"e_prime {ind.get('e_prime')} != e - w")

        curve = doc.get("curve")
        if spec["curve"]:
            if not curve:
                fail("curve section missing")
            else:
                _check_curve(spec, curve, fail)
        elif curve is not None:
            fail("curve section present without --curve")
    except (KeyError, TypeError, IndexError, ValueError, ZeroDivisionError) as exc:
        fail(f"malformed report: {exc!r}")
    return out


def mutations(doc):
    """(label, altered copy) pairs, one altered value each."""
    out = []
    d = copy.deepcopy(doc)
    d["swan"]["num"] += 1
    out.append(("swan", d))
    if doc["module"]["dim"] >= 2:
        d = copy.deepcopy(doc)
        d["module"]["gram"][0][1] += 1
        out.append(("gram", d))
        d = copy.deepcopy(doc)
        d["module"]["gram"][0][0] += 1
        out.append(("gram diagonal", d))
    if doc.get("curve"):
        d = copy.deepcopy(doc)
        d["curve"]["counts"][-1] += doc["input"]["p"]
        out.append(("count", d))
        d = copy.deepcopy(doc)
        d["curve"]["zeta_numerator"][1] += 1
        out.append(("zeta", d))
    return out


def self_test(pairs):
    """Check that each (spec, doc) passes and that each of its mutations is
    rejected. Returns (labels tested, problems)."""
    tested, problems = [], []
    for spec, doc in pairs:
        if check_report(spec, doc):
            problems.append(f"{spec['name']}: unaltered report rejected")
        for label, bad in mutations(doc):
            tested.append(label)
            if not check_report(spec, bad):
                problems.append(f"{spec['name']}: altered {label} accepted")
    return sorted(set(tested)), problems


def main():
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    from inputs import CURVE, PRIMITIVITY
    from wildinv import invariants

    pairs = []
    for spec in (PRIMITIVITY[0], CURVE[0]):
        rep = invariants.full_report(spec["p"], spec["f"], [tuple(c) for c in spec["coeffs"]],
                                     spec["m"], curve=spec["curve"])
        pairs.append((spec, rep.to_json()))
    tested, problems = self_test(pairs)
    print(f"self-test: altered {', '.join(tested)}: "
          + ("all rejected" if not problems else "; ".join(problems)))
    return 1 if problems or len(tested) < 5 else 0


if __name__ == "__main__":
    sys.exit(main())
