"""Workload inputs of the benchmark.

An input is a dict {"p", "f", "e", "m", "R", "coeffs", "curve", "name"}:
"R" is the text given to `wildinv report -R` and "coeffs" the same
polynomial as a low-to-high list of coordinate lists over F_{p^f}, which the
output checks use. The cold workloads are fixed lists; the batch list is
generated from a seed and frozen in batch_inputs.json.

Regenerate the frozen batch list (it imports wildinv from ../src, because
inputs that the ambient size guard refuses are left out):

    python3 perfbench/inputs.py --seed 2305 > perfbench/batch_inputs.json
"""

import argparse
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BATCH_FILE = HERE / "batch_inputs.json"
BATCH_SEED = 2305
BATCH_TIMED = 160
BATCH_WARMUP = 40


def expand_R(text, p, f, e):
    """Coordinate lists of the -R text, following the CLI's rules: entries
    split on ';', coordinates on ',', short vectors zero-padded, and a single
    entry with e >= 1 meaning the monomial a_e x^(p^e)."""
    entries = [t for t in text.split(";") if t.strip()]
    coords = [[int(c) % p for c in t.split(",")] for t in entries]
    coords = [c + [0] * (f - len(c)) for c in coords]
    if len(coords) == 1 and e >= 1:
        coords = [[0] * f] * e + coords
    if len(coords) != e + 1:
        raise ValueError(f"R {text!r} does not have e + 1 = {e + 1} coefficients")
    return coords


def make_input(name, p, f, R, e, m, curve=False):
    return {
        "name": name,
        "p": p,
        "f": f,
        "e": e,
        "m": m,
        "R": R,
        "coeffs": expand_R(R, p, f, e),
        "curve": curve,
    }


def report_argv(spec):
    argv = ["report", "-p", str(spec["p"]), "-f", str(spec["f"]), "-R", spec["R"],
            "-e", str(spec["e"]), "-m", str(spec["m"])]
    return argv + (["--curve"] if spec["curve"] else [])


# The scan ladder, the three goldens without a curve section, and three
# non-monomial imprimitive inputs that reach the descent construction.
PRIMITIVITY = [
    make_input("p3e2", 3, 1, "1", 2, 1),
    make_input("p3e3", 3, 1, "1", 3, 1),
    make_input("p3e3m2", 3, 1, "1", 3, 2),
    make_input("p2e4", 2, 1, "1", 4, 1),
    make_input("p2e5", 2, 1, "1", 5, 1),
    make_input("p5e2", 5, 1, "1", 2, 1),
    make_input("g2", 3, 2, "1", 1, 2),
    make_input("g3", 3, 1, "1", 1, 2),
    make_input("g6", 3, 1, "1;1", 1, 1),
    make_input("p3e2_x_x9", 3, 1, "1;0;1", 2, 1),
    make_input("p3e2_x_x3_x9_m2", 3, 1, "1;1;1", 2, 2),
    make_input("p2e3_x2_x8", 2, 2, "0;1;0;1", 3, 1),
]

# The curve goldens and small curve ladder; p23e0 stands in for the p7e1
# curve (about a minute per cold report, too long for one run) as the input
# whose time goes into building large extension fields: it needs F_23^k for
# every k <= 22.
CURVE = [
    make_input("g1", 3, 1, "1", 1, 1, curve=True),
    make_input("g4", 5, 1, "1", 1, 1, curve=True),
    make_input("g5", 2, 2, "0;1;0;1", 3, 1, curve=True),
    make_input("p3e2c", 3, 1, "1", 2, 1, curve=True),
    make_input("p2e4c", 2, 1, "1", 4, 1, curve=True),
    make_input("p3e2_x_x3_x9c", 3, 1, "1;1;1", 2, 1, curve=True),
    make_input("p23e0c", 23, 1, "1", 0, 1, curve=True),
]


def load_batch():
    with open(BATCH_FILE, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["timed"], doc["warmup"]


def _random_input(rng):
    """About 1 in 8 inputs ask for the curve section, on q <= 9 and genus <= 4."""
    curve = rng.random() < 1 / 8
    while True:
        p = rng.choice((2, 3, 5, 7))
        f = rng.choice((1, 2))
        # p^(2e) <= 81: a larger p^(2e)-vector scan costs 1-4 s and belongs to
        # the primitivity workload
        e = rng.choice([e for e in (0, 1, 2) if (p, e) != (2, 0) and p ** (2 * e) <= 81])
        if not curve or (p ** f <= 9 and (p - 1) * p ** e // 2 <= 4):
            break
    m = rng.choice([m for m in range(1, 9) if m % p])
    monomial = rng.random() < 0.35
    coeffs = []
    for i in range(e + 1):
        if i < e and (monomial or rng.random() < 0.5):
            coeffs.append([0] * f)
            continue
        c = [rng.randrange(p) for _ in range(f)]
        while i == e and not any(c):
            c = [rng.randrange(p) for _ in range(f)]
        coeffs.append(c)
    R = ";".join(",".join(str(x) for x in c) for c in coeffs)
    spec = make_input("", p, f, R, e, m, curve)
    spec["name"] = f"p{p}f{f}e{e}m{m}{'c' if curve else ''}[{R}]"
    return spec


def generate_batch(seed):
    """Distinct seeded inputs, the timed list first and then a disjoint
    warm-up list; inputs refused by the ambient size guard are counted and
    left out."""
    src = HERE.parent / "src"
    sys.path.insert(0, str(src))
    from wildinv import errors, invariants

    rng = random.Random(seed)
    seen, kept, refused = set(), [], []
    while len(kept) < BATCH_TIMED + BATCH_WARMUP:
        spec = _random_input(rng)
        key = (spec["p"], spec["f"], spec["R"], spec["m"], spec["curve"])
        if key in seen:
            continue
        seen.add(key)
        try:
            invariants.full_report(spec["p"], spec["f"], [tuple(c) for c in spec["coeffs"]],
                                   spec["m"], curve=spec["curve"])
        except errors.AmbientGuardError:
            refused.append(spec["name"])
            continue
        kept.append(spec)
    return {
        "command": f"python3 perfbench/inputs.py --seed {seed} > perfbench/batch_inputs.json",
        "seed": seed,
        "refused_by_guard": len(refused),
        "refused": refused,
        "timed": kept[:BATCH_TIMED],
        "warmup": kept[BATCH_TIMED:],
    }


def main():
    ap = argparse.ArgumentParser(description="write the frozen batch input list to stdout")
    ap.add_argument("--seed", type=int, default=BATCH_SEED)
    args = ap.parse_args()
    json.dump(generate_batch(args.seed), sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
