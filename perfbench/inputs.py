"""Seeded inputs for the three workloads.

Every generator takes a `numpy.random.Generator` seeded from the benchmark's
`--seed`, so one seed always gives the same operations. boxlab sees only
the results: CLI arguments and box files.

The request mix is stratified: every round holds one box of each category in
a fixed order, so the share of each category is the same at every seed and
every run length. boxlab's own samplers (`polytope.random_ns_tables`,
`tribox.random_sv_polytope_box`, `qstate.born_box3`) make three of the
categories; the others are built here because those samplers never reach
them: flat-Dirichlet NS boxes stay below CHSH 1.90, and random
Svetlichny-polytope mixtures below a Svetlichny discord of 0.66 of 8.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import count, product
from pathlib import Path

import numpy as np

import oracle

# Sweep families: CLI arguments, parameter range, measures, points per command.
# The point counts make one command of each family take about the same time
# (30 ms on the reference machine; a tripartite point costs about 3.7
# bipartite ones), so per-command latency has one mode rather than four.
SWEEPS = {
    "schmidt_bsb": (["--family", "Schmidt", "--settings", "BSb"],
                    "theta", (0.0, math.pi / 4), ["CHSH000", "G"], 42),
    "werner_msb": (["--family", "Werner2", "--settings", "MSb"],
                   "p", (0.0, 1.0), ["Q"], 45),
    "ghz_smdghz": (["--family", "GHZ", "--settings", "SMDghz", "--settings-param", "sweep"],
                   "p", (0.5, 1.0), ["G", "Q", "T"], 11),
    "gghz_sdxy": (["--family", "GGHZ", "--settings", "SDxy"],
                  "theta", (0.0, math.pi / 4), ["G"], 12),
}
BIPARTITE_SWEEPS = ("schmidt_bsb", "werner_msb")

# One round of the request mix. Bipartite boxes come twice per round, so
# that the median request falls in the middle of the bipartite latency mode
# and the 90th percentile inside the tripartite one, not on a boundary where
# a small shift in the mix would move them by a factor of two.
REQUEST_ROUND = ("ns_flat", "pr_nonlocal", "near_facet", "witness",
                 "sv_flat", "ns_flat", "pr_nonlocal", "near_facet", "witness",
                 "sv_heavy", "ghz")


@dataclass
class Op:
    """One call of boxlab.cli.main and what its output must satisfy."""

    argv: list[str]
    kind: str                  # latency class: sweep2, sweep3, measure, decompose, verify
    category: str = ""
    out: Path | None = None    # file the command writes, removed before each call
    points: int = 0            # sweep grid points
    expect: dict = field(default_factory=dict)


# -- sweep -------------------------------------------------------------------

def _sweep_op(name: str, a: float, b: float, points: int, out: Path) -> Op:
    args, pname, _, measures, _ = SWEEPS[name]
    argv = (["sweep"] + args
            + ["--sweep", f"{pname}:{a!r}:{b!r}:{points}",
               "--measures", ",".join(measures), "--out", str(out)])
    kind = "sweep2" if name in BIPARTITE_SWEEPS else "sweep3"
    return Op(argv, kind, name, out, points,
              {"values": np.linspace(a, b, points).tolist(), "measures": measures})


def sweep_ops(rng: np.random.Generator, outdir: Path):
    """Endless rounds of the four sweep families on random sub-intervals."""
    out = outdir / "sweep.csv"
    while True:
        for name, (_, _, (lo, hi), _, points) in SWEEPS.items():
            a, b = (float(v) for v in np.sort(rng.uniform(lo, hi, size=2)))
            yield _sweep_op(name, a, b, points, out)


def sweep_warmup(outdir: Path) -> list[Op]:
    """One two-point command per family over its whole range: it goes
    through every code path and lazy cache of a sweep at little cost."""
    return [_sweep_op(name, lo, hi, 2, outdir / "sweep.csv")
            for name, (_, _, (lo, hi), _, _) in SWEEPS.items()]


# -- verify ------------------------------------------------------------------

def verify_ops(criteria: list[int] | None):
    """The acceptance run, repeated; `criteria` None means all sixteen."""
    argv = ["verify"] if criteria is None else ["verify", "--only", ",".join(map(str, criteria))]
    expected = 16 if criteria is None else len(criteria)
    while True:
        yield Op(argv, "verify", expect={"criteria": expected})


# -- requests ----------------------------------------------------------------

def _dirichlet(rng, n):
    w = rng.exponential(size=n)
    return w / w.sum()


def _ns_table(rng, boxlab):
    return boxlab.polytope.random_ns_tables(rng, 1)[0]


def pr_nonlocal_box(rng, boxlab):
    """PR-weighted mixture mu PR + (1 - mu) NS with mu in [0.35, 0.95]; most
    land above CHSH 2, which flat NS sampling never reaches."""
    label = tuple(int(v) for v in rng.integers(0, 2, size=3))
    mu = rng.uniform(0.35, 0.95)
    return mu * oracle.pr_table(*label) + (1 - mu) * _ns_table(rng, boxlab)


def near_facet_box(rng):
    """A box whose largest CHSH value is 2 +- delta, delta log-uniform in
    [1e-6, 1e-2]: on the segment from a random local box to a random PR box,
    the CHSH values are linear, so the crossing of 2 is solved exactly."""
    local = (_dirichlet(rng, 16) @ _det_rows()).reshape((2,) * 4)
    label = tuple(int(v) for v in rng.integers(0, 2, size=3))
    pr = oracle.pr_table(*label)
    b_local, b_pr = oracle.chsh_signed(local), oracle.chsh_signed(pr)
    crossings = [((2.0 - b_local[k]) / (b_pr[k] - b_local[k]), b_pr[k] - b_local[k])
                 for k in b_local if b_pr[k] > b_local[k]]
    t_star, slope = min(crossings)
    delta = 10.0 ** rng.uniform(-6, -2) * rng.choice((-1.0, 1.0))
    t = t_star + delta / slope
    return (1 - t) * local + t * pr


def _det_rows():
    return np.array([oracle.det_table((a0, a1), (b0, b1)).reshape(-1)
                     for a0, a1, b0, b1 in product((0, 1), repeat=4)])


def _relabel(table, rng):
    """Random local relabeling: party swap, input flips, and per party an
    output flip that may depend on the input."""
    t = table.transpose(1, 0, 3, 2) if rng.integers(2) else table
    fx, fy, kx, ky, cx, cy = (int(v) for v in rng.integers(0, 2, size=6))
    out = np.empty_like(t)
    for x, y, a, b in product((0, 1), repeat=4):
        out[x, y, a, b] = t[x ^ fx, y ^ fy, a ^ (kx & x) ^ cx, b ^ (ky & y) ^ cy]
    return out


def witness_box(rng):
    """A box with a canonical witness: mu PR + nu Mermin + (1 - mu - nu) R
    under a random relabeling, where R mixes white noise with one
    deterministic box, so both discords of R are 0, and the box's own G and Q
    (by the oracle) equal 4 mu and 2 nu. About half the draws have a residual
    that moves G or Q away from 4 mu, 2 nu; they are drawn again, so every
    box of this category carries its witness."""
    while True:
        al, be, ga = (int(v) for v in rng.integers(0, 2, size=3))
        partner = (al, be, ga) if rng.integers(2) else (al ^ 1, be ^ 1, ga ^ be ^ 1)
        mu, nu, rest = _dirichlet(rng, 3)
        lam = rng.uniform()
        det = oracle.det_table(*(tuple(int(v) for v in rng.integers(0, 2, size=2))
                                 for _ in range(2)))
        table = _relabel(mu * oracle.pr_table(al, be, ga) + nu * oracle.mermin_table(*partner)
                         + rest * (lam * det + (1 - lam) * 0.25), rng)
        if (abs(oracle.bell_discord(table) - 4 * mu) <= oracle.TOL
                and abs(oracle.mermin_discord(table) - 2 * nu) <= oracle.TOL):
            return table, float(mu), float(nu)


def sv_heavy_box(rng, vertices):
    """Svetlichny-heavy polytope mixture: 50-95 % of the weight on the 16
    Svetlichny boxes, the rest flat over the 112 other vertices."""
    heavy = rng.uniform(0.5, 0.95)
    w = np.concatenate([heavy * _dirichlet(rng, 16), (1 - heavy) * _dirichlet(rng, 112)])
    return (w @ vertices).reshape((2,) * 6)


def request_ops(rng: np.random.Generator, outdir: Path, boxlab):
    """Endless rounds of one box per category, each sent as a `measure` and
    a `decompose` request; box files are written as the rounds are drawn."""
    vertices = oracle.sv_polytope_vertices()
    ghz = boxlab.qstate.ghz_state()
    out = {"measure": outdir / "measure.json", "decompose": outdir / "decompose.json"}
    for n in count():
        for slot, category in enumerate(REQUEST_ROUND):
            expect = {}
            if category == "ns_flat":
                table = _ns_table(rng, boxlab)
            elif category == "pr_nonlocal":
                table = pr_nonlocal_box(rng, boxlab)
            elif category == "near_facet":
                table = near_facet_box(rng)
            elif category == "witness":
                table, mu, nu = witness_box(rng)
                expect["witness"] = (mu, nu)
            elif category == "sv_flat":
                table = boxlab.tribox.random_sv_polytope_box(rng).table
                expect["in_sv_polytope"] = True
            elif category == "sv_heavy":
                table = sv_heavy_box(rng, vertices)
                expect["in_sv_polytope"] = True
            else:
                p = float(rng.uniform(0.5, 1.0))
                frame = boxlab.qstate.settings_catalog("SMDghz", p)
                table = boxlab.qstate.born_box3(ghz, frame).table
                # criterion 13's closed form: mu = sqrt(1-p), nu = sqrt p - sqrt(1-p)
                expect["in_sv_polytope"] = True
                expect["witness"] = (math.sqrt(1 - p), math.sqrt(p) - math.sqrt(1 - p))
            table = np.asarray(table, dtype=float)
            parties = table.ndim // 2
            path = outdir / f"box{n % 1000}_{slot}_{category}.json"
            path.write_text(json.dumps({"parties": parties, "table": table.tolist()}))
            expect["table"] = table
            for command in ("measure", "decompose"):
                argv = [command, "--box", str(path), "--format", "json", "--out", str(out[command])]
                yield Op(argv, command, category, out[command], expect=expect)
