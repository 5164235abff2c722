"""Reference values that boxlab's outputs are checked against.

Everything here is written from the definitions, as explicit sums over input
and outcome bits, and imports nothing from boxlab: a defect in the code under
test cannot hide in its own oracle.

Tables are indexed ``[x][y][a][b]`` (bipartite) and ``[x][y][z][a][b][c]``
(tripartite); outcome bit 0 stands for the value +1.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

TOL = 1e-9      # closed forms, reconstructions and re-computed values
EPS_LP = 1e-7   # band around the CHSH local bound where LP verdicts are not checked

BITS2 = list(product((0, 1), repeat=2))
BITS3 = list(product((0, 1), repeat=3))
PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


# -- catalog tables ----------------------------------------------------------

def pr_table(al: int, be: int, ga: int) -> np.ndarray:
    """PR box: 1/2 on a^b = xy ^ al x ^ be y ^ ga."""
    t = np.zeros((2,) * 4)
    for x, y, a, b in product((0, 1), repeat=4):
        if a ^ b == (x & y) ^ (al & x) ^ (be & y) ^ ga:
            t[x, y, a, b] = 0.5
    return t


def mermin_table(al: int, be: int, ga: int) -> np.ndarray:
    """Mermin box: even mixture of PR(al,be,ga) and PR(1-al,1-be,ga^be)."""
    return 0.5 * (pr_table(al, be, ga) + pr_table(al ^ 1, be ^ 1, ga ^ be))


def det_table(responses_a, responses_b) -> np.ndarray:
    """Deterministic box: party A answers responses_a[x], B answers responses_b[y]."""
    t = np.zeros((2,) * 4)
    for x, y in BITS2:
        t[x, y, responses_a[x], responses_b[y]] = 1.0
    return t


def sv_table(al: int, be: int, ga: int, ep: int) -> np.ndarray:
    """Svetlichny box: 1/4 on a^b^c = xy ^ xz ^ yz ^ al x ^ be y ^ ga z ^ ep."""
    t = np.zeros((2,) * 6)
    for x, y, z, a, b, c in product((0, 1), repeat=6):
        if a ^ b ^ c == (x & y) ^ (x & z) ^ (y & z) ^ (al & x) ^ (be & y) ^ (ga & z) ^ ep:
            t[x, y, z, a, b, c] = 0.25
    return t


def mermin3_table(al: int, be: int, ga: int, ep: int) -> np.ndarray:
    """Tripartite Mermin box: even mixture of two complementary Svetlichny boxes."""
    partner = (al ^ 1, be ^ 1, ga ^ 1, ep ^ al ^ be ^ ga)
    return 0.5 * (sv_table(al, be, ga, ep) + sv_table(*partner))


def sv_polytope_vertices() -> np.ndarray:
    """The 128 Svetlichny-polytope vertices as rows of 64 flat entries: 16
    Svetlichny boxes, 48 two-party PR boxes whose spectator answers
    o = ep * input, and 64 deterministic boxes."""
    rows = [sv_table(*p).reshape(-1) for p in product((0, 1), repeat=4)]
    for pair in ((0, 1), (0, 2), (1, 2)):
        spectator = 3 - sum(pair)
        for al, be, ga, ep in product((0, 1), repeat=4):
            t = np.zeros((2,) * 6)
            for ins in BITS3:
                for outs in BITS3:
                    i, j = ins[pair[0]], ins[pair[1]]
                    if (outs[pair[0]] ^ outs[pair[1]] == (i & j) ^ (al & i) ^ (be & j) ^ ga
                            and outs[spectator] == (ep & ins[spectator])):
                        t[ins + outs] = 0.5
            rows.append(t.reshape(-1))
    for al, be, ga, ep, ze, et in product((0, 1), repeat=6):
        t = np.zeros((2,) * 6)
        for x, y, z in BITS3:
            t[x, y, z, (al & x) ^ be, (ga & y) ^ ep, (ze & z) ^ et] = 1.0
        rows.append(t.reshape(-1))
    return np.array(rows)


def table_of_label(label: str) -> np.ndarray:
    """Table of a PR, Mermin, Svetlichny or tripartite Mermin catalog label."""
    for prefix, builder, n in (("MerminMM", mermin_table, 3), ("Mermin3", mermin3_table, 4),
                               ("PR", pr_table, 3), ("Sv", sv_table, 4)):
        digits = label[len(prefix):]
        if label.startswith(prefix) and len(digits) == n and set(digits) <= {"0", "1"}:
            return builder(*(int(ch) for ch in digits))
    raise ValueError(f"no reference table for label {label!r}")


# -- correlators and inequality values ---------------------------------------

def expectations2(t) -> np.ndarray:
    """E[x, y] = sum_ab (-1)^(a^b) P(ab|xy)."""
    t = np.asarray(t)
    e = np.zeros((2, 2))
    for x, y, a, b in product((0, 1), repeat=4):
        e[x, y] += (-1) ** (a ^ b) * t[x, y, a, b]
    return e


def chsh_signed(t) -> dict:
    """Signed CHSH values B[al,be,ga] = sum_xy (-1)^(xy ^ al x ^ be y ^ ga) E[x,y]."""
    e = expectations2(t)
    return {(al, be, ga): sum((-1) ** ((x & y) ^ (al & x) ^ (be & y) ^ ga) * e[x, y]
                              for x, y in BITS2)
            for al, be, ga in BITS3}


def chsh_max(t) -> float:
    """Largest CHSH value; by Fine's theorem the box is local iff it is <= 2."""
    return max(chsh_signed(t).values())


def _pairing_min(f) -> float:
    return min(abs(abs(f[i] - f[j]) - abs(f[k] - f[l])) for (i, j), (k, l) in PAIRINGS)


def bell_discord(t) -> float:
    """G: pairing minimum over the four CHSH moduli |B[al,be,0]|."""
    s = chsh_signed(t)
    return _pairing_min([abs(s[al, be, 0]) for al, be in BITS2])


def mermin_discord(t) -> float:
    """Q: pairing minimum over |E00-E11|, |E01-E10|, |E00+E11|, |E01+E10|."""
    e = expectations2(t)
    return _pairing_min([abs(e[0, 0] - e[1, 1]), abs(e[0, 1] - e[1, 0]),
                         abs(e[0, 0] + e[1, 1]), abs(e[0, 1] + e[1, 0])])


def svetlichny_max(t) -> float:
    """Largest signed Svetlichny value over the 16 labels."""
    t = np.asarray(t)
    e = np.zeros((2, 2, 2))
    for x, y, z, a, b, c in product((0, 1), repeat=6):
        e[x, y, z] += (-1) ** (a ^ b ^ c) * t[x, y, z, a, b, c]
    best = -math.inf
    for al, be, ga, ep in product((0, 1), repeat=4):
        v = sum((-1) ** ((i & j) ^ (i & k) ^ (j & k) ^ (al & i) ^ (be & j) ^ (ga & k) ^ ep)
                * e[i, j, k] for i, j, k in BITS3)
        best = max(best, v)
    return best


# -- checks on CLI outputs ---------------------------------------------------

def check_measure2(table, report: dict) -> list[str]:
    """Problems with a bipartite `measure` report; empty when it is right."""
    problems = []
    bmax = chsh_max(table)
    if abs(report["chsh_max"] - bmax) > TOL:
        problems.append(f"chsh_max {report['chsh_max']!r} != {bmax!r}")
    if abs(bmax - 2.0) > EPS_LP and report["local"] != (bmax < 2.0):
        problems.append(f"local={report['local']} but max CHSH is {bmax!r}")
    for key, want in (("bell_discord", bell_discord(table)),
                      ("mermin_discord", mermin_discord(table))):
        if abs(report[key] - want) > TOL:
            problems.append(f"{key} {report[key]!r} != {want!r}")
    return problems


def check_measure3(table, report: dict, in_sv_polytope: bool) -> list[str]:
    """Problems with a tripartite `measure` report.

    `in_sv_polytope` is known by construction for the generated boxes: they
    are convex mixtures of Svetlichny-polytope vertices.
    """
    problems = []
    smax = svetlichny_max(table)
    if abs(report["svetlichny_max"] - smax) > TOL:
        problems.append(f"svetlichny_max {report['svetlichny_max']!r} != {smax!r}")
    if in_sv_polytope and not report["in_sv_polytope"]:
        problems.append("box built inside the Svetlichny polytope reported outside")
    return problems


def check_decomposition(table, report: dict) -> list[str]:
    """Problems with a `decompose` report: weights must be a convex split and
    mu PR + nu Mermin + (1 - mu - nu) residual must rebuild the box."""
    table = np.asarray(table)
    mu, nu = report["mu"], report["nu"]
    if not (-TOL <= mu and -TOL <= nu and mu + nu <= 1.0 + TOL):
        return [f"weights mu={mu!r}, nu={nu!r} are not a convex split"]
    recon = (1.0 - mu - nu) * np.asarray(report["residual"])
    for weight, key in ((mu, "pr_component"), (nu, "mermin_component")):
        label = report[key]
        if label is None:
            if abs(weight) > TOL:
                return [f"{key} is missing but carries weight {weight!r}"]
            continue
        recon = recon + weight * table_of_label(label)
    err = float(np.max(np.abs(recon - table)))
    return [] if err <= TOL else [f"reconstruction error {err:.3e}"]


def sweep_expected(kind: str, value: float) -> dict:
    """Closed forms of the four sweep families at one parameter value."""
    if kind == "schmidt_bsb":
        g = 2.0 * math.sqrt(2.0) * math.sin(2.0 * value)
        return {"CHSH000": g, "G": g}
    if kind == "werner_msb":
        return {"Q": 2.0 * value}
    if kind == "ghz_smdghz":
        sp, sm = math.sqrt(value), math.sqrt(1.0 - value)
        # T = G + Q = 4(sqrt p + sqrt(1-p)) and G + 2Q = 8 sqrt p fix G and Q
        return {"T": 4.0 * (sp + sm), "Q": 4.0 * (sp - sm), "G": 8.0 * sm}
    if kind == "gghz_sdxy":
        return {"G": 4.0 * math.sqrt(2.0) * math.sin(2.0 * value)}
    raise ValueError(f"unknown sweep kind {kind!r}")


def check_sweep_csv(text: str, kind: str, values: list[float], measures: list[str]) -> list[str]:
    """Problems with a sweep CSV: one row per grid value, each at its closed form.

    The CSV carries 12 significant digits, far inside TOL for values of
    order one.
    """
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    if header[1:] != measures:
        return [f"header {header!r} does not list {measures!r}"]
    if len(lines) - 1 != len(values):
        return [f"{len(lines) - 1} rows for {len(values)} grid points"]
    problems = []
    for line, value in zip(lines[1:], values):
        row = [float(v) for v in line.split(",")]
        if abs(row[0] - value) > TOL:
            problems.append(f"row parameter {row[0]!r} != {value!r}")
            continue
        want = sweep_expected(kind, value)
        for name, got in zip(measures, row[1:]):
            if abs(got - want[name]) > TOL:
                problems.append(f"{name}({value!r}) = {got!r}, closed form {want[name]!r}")
    return problems
