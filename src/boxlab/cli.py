"""Command-line front end: measure, decompose, state-box, sweep, verify.

Exit codes: 0 success, 1 verification failure, 2 input error or a failed LP solve.

qstate loads only in the Born-rule commands (state-box, sweep) and
acceptance only in verify, so measure and decompose start without them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import boxcore, discord2, polytope, tribox

EXIT_OK = 0
EXIT_CRITERION_FAILED = 1
EXIT_INPUT_ERROR = 2


class InputError(Exception):
    pass


def _load_box(args):
    """Box from --box FILE (JSON) or --catalog LABEL."""
    if args.box:
        text = Path(args.box).read_text()
        parties = boxcore._json_object(text).get("parties")
        if parties == 2:
            return boxcore.box_from_json(text)
        if parties == 3:
            return tribox.box3_from_json(text)
        raise InputError(f"unsupported parties={parties}")
    if args.catalog:
        try:
            return boxcore.vertex(boxcore.parse_vertex_label(args.catalog))
        except ValueError:
            pass
        try:
            return tribox.tri_vertex(tribox.parse_tri_vertex_label(args.catalog))
        except ValueError:
            raise InputError(f"unknown catalog label {args.catalog!r}") from None
    raise InputError("need --box FILE or --catalog LABEL")


def _parse_params(pairs) -> dict[str, float]:
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise InputError(f"--param expects k=v, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        try:
            out[key] = float(value)
        except ValueError:
            raise InputError(f"--param {key}: {value!r} is not a number") from None
        if not np.isfinite(out[key]):
            raise InputError(f"--param {key}: {value!r} is not a finite number")
    return out


def _emit(data, args) -> None:
    if args.format == "json":
        text = json.dumps(data, sort_keys=True)
    else:
        width = max(len(k) for k in data)
        lines = []
        for key, value in data.items():
            if isinstance(value, float):
                value = f"{value:.12g}"
            lines.append(f"{key.ljust(width)}  {value}")
        text = "\n".join(lines)
    _write(text, args)


def _write(text: str, args) -> None:
    """`text` to the --out file if one is given, else to stdout."""
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


def cmd_measure(args) -> int:
    box = _load_box(args)
    _emit((_measure_report2 if box.parties == 2 else _measure_report3)(box), args)
    return EXIT_OK


def cmd_decompose(args) -> int:
    box = _load_box(args)
    if isinstance(box, tribox.TripartiteBox):
        if args.mode == "two":
            raise InputError("--mode two needs a bipartite box; a tripartite box has only "
                             "the three-way split")
        dec = tribox.three_decomposition3(box)
    elif args.mode == "two":
        dec = polytope.canonical_2decomposition(box)
    else:
        dec = polytope.three_decomposition(box)
    report = {
        "mu": dec.mu,
        "nu": dec.nu,
        "pr_component": dec.pr_id.label() if dec.pr_id else None,
        "mermin_component": dec.mermin_id.label() if dec.mermin_id else None,
        "residual": dec.residual.table.tolist(),
    }
    _emit(report, args)
    return EXIT_OK


def _build_state(name, params):
    """The state of `params`, or the state stack where some are (k,) arrays."""
    from . import qstate

    if name == "BellDiagonal":
        # the CLI names the eight weights w0..w7
        names = [f"w{i}" for i in range(8)]
        if sorted(params) != names:
            raise InputError(f"family {name!r} takes the parameters w0..w7, "
                             f"not {sorted(params)}")
        weights = np.stack(np.broadcast_arrays(*(params[k] for k in names)), axis=-1)
        return qstate.state_family(name, weights=weights)
    return qstate.state_family(name, **params)


def cmd_state_box(args) -> int:
    from . import qstate

    params = _parse_params(args.param)
    frame = qstate.settings_catalog(args.settings, params.pop("settings", None))
    rho = _build_state(args.family, params)
    box = (qstate.born_box2 if rho.dim == 4 else qstate.born_box3)(rho, frame)
    _write(boxcore._to_json(box), args)
    return EXIT_OK


def _box_max(box, values) -> float | np.ndarray:
    """The largest of each box's `values`: a float for one box, a (k,)
    array for a stack."""
    lead = box.correlators.shape[:-1]
    return boxcore._per_box(box, values.reshape(lead + (-1,)).max(axis=-1))


# Each measure maps one box to a float and a box stack to a (k,) array;
# `sweep` takes them by name
_MEASURES2 = {
    "G": discord2.bell_discord,
    "Q": discord2.mermin_discord,
    "T": discord2.total_correlation,
    "C": discord2.classical_correlation,
    "CHSH": lambda box: _box_max(box, discord2.chsh_values(box)),
    "CHSH000": lambda box: discord2.chsh_value(box, 0, 0, 0),
    "steering": discord2.steering_value,
}

_MEASURES3 = {
    "G": tribox.svetlichny_discord,
    "Q": tribox.mermin3_discord,
    "T": tribox.total_correlation3,
    "C": tribox.classical_correlation3,
    "SV": lambda box: _box_max(box, tribox.sv_values(box)),
    "MERMIN3": lambda box: _box_max(box, tribox.mermin3_functions(box)),
    "CLASS99": tribox.class99_value,
}


def _labeled(report: dict, values: dict) -> dict:
    """`report` with each label's entry of every (2, 2, 2) array of `values`
    under its key template, label by label."""
    rows = [(key, v.reshape(8).tolist()) for key, v in values.items()]
    for i in range(8):  # the label (al, be, ga) is i in binary
        report.update((key % f"{i:03b}", v[i]) for key, v in rows)
    return report


def _measure_report2(box) -> dict:
    membership = polytope.is_local(box)
    chsh, split = discord2.chsh_values(box), discord2.correlation_split(box)
    report = _labeled({
        "parties": 2, "bell_discord": split.bell, "mermin_discord": split.mermin,
        "total_correlation": split.total, "classical_correlation": split.classical,
        "classical_sign": split.sign, "chsh_max": _box_max(box, chsh),
        "steering_value": discord2.steering_value(box),
        "epr_steerable": discord2.is_epr_steerable(box), "local": membership.inside,
    }, {"chsh_%s": chsh, "mermin_%s": discord2.mermin_values(box)})
    if not membership.inside:
        report["violated_facet"], report["violation"] = membership.violated_facet
    return report


def _measure_report3(box) -> dict:
    # the membership flags, one per hull of tribox._SV_STARTS
    in_sv, two_way_local, local = polytope.nested_hull_flags(
        box.table.reshape(-1), tribox.tri_vertex_matrix(tribox._sv_polytope_key()),
        tribox._SV_STARTS)
    sv, split = tribox.sv_values(box), tribox.correlation_split3(box)
    return _labeled({
        "parties": 3, "svetlichny_discord": split.svetlichny, "mermin3_discord": split.mermin,
        "total_correlation": split.total, "classical_correlation": split.classical,
        "classical_sign": split.sign, "svetlichny_max": _box_max(box, sv),
        "mermin3_max": _box_max(box, tribox.mermin3_functions(box)),
        "class99_value": tribox.class99_value(box),
        "ghz_paradox": tribox.ghz_paradox_check(box), "in_sv_polytope": in_sv,
        "two_way_local": two_way_local, "local": local,
    }, {"sv_%s0": sv[..., 0], "mermin3_%s0": tribox.mermin3_values(box)[..., 0]})


_SWEEP_CHUNK = 64  # points per state and frame build, Born call, box check and measure pass


def _sweep_party(rho, frame, measures) -> tuple:
    """The Born rule and measures of the sweep's party count, after the checks
    its Born rule makes of `rho` and `frame`; InputError for an unknown measure."""
    from . import qstate

    parties = 2 if rho.dim == 4 else 3
    qstate._born_inputs(rho, frame, parties)
    born, table = ((qstate.born_box2, _MEASURES2) if parties == 2
                   else (qstate.born_box3, _MEASURES3))
    unknown = [m for m in measures if m not in table]
    if unknown:
        raise InputError(f"unknown measure {unknown[0]!r} for {parties} parties; "
                         f"the measures are {', '.join(table)}")
    return born, table


def cmd_sweep(args) -> int:
    from . import qstate

    params = _parse_params(args.param)
    try:
        pname, start, stop, steps = args.sweep.split(":")
        start, stop, steps = float(start), float(stop), int(steps)
    except ValueError as exc:
        raise InputError(f"--sweep expects name:start:stop:steps, got {args.sweep!r}") from exc
    if not np.isfinite([start, stop]).all():
        raise InputError(f"--sweep start and stop must be finite, got {args.sweep!r}")
    if not np.isfinite(stop - start):
        raise InputError(f"--sweep range stop - start must be finite, got {args.sweep!r}")
    if steps < 2:
        raise InputError("sweep needs at least 2 steps")
    measures = [m.strip() for m in (args.measures or "G,Q,T").split(",")]
    # the frame moves only when the swept value is its parameter; the family
    # gets the value unless it is the frame's alone
    frame_moves = args.settings_param == "sweep" or pname == "settings"
    to_family = not frame_moves or pname in qstate.family_parameter_names(args.family)
    if frame_moves and "settings" in params:
        raise InputError("--param settings is not taken when the sweep sets the frame's "
                         "parameter")
    frame = None if frame_moves else qstate.settings_catalog(args.settings, params.get("settings"))
    fixed = {k: v for k, v in params.items() if k != "settings"}

    def build(value):
        """The frame and the state at `value`, one point or a (k,) array of them."""
        return (qstate.settings_catalog(args.settings, value) if frame_moves else frame,
                _build_state(args.family, {**fixed, pname: value} if to_family else fixed))

    try:
        values = np.linspace(start, stop, steps)
    except MemoryError:
        raise InputError(f"sweep cannot allocate a grid of {steps} steps") from None
    party, columns = None, []
    for lo in range(0, steps, _SWEEP_CHUNK):
        chunk = values[lo:lo + _SWEEP_CHUNK]
        try:
            frames, rho = build(chunk)
        except (InputError, qstate.InvalidStateError, qstate.UnknownNameError):
            # the error of the first point that fails, its frame's before its
            # state's, and the first point's measure check before any later one
            for value in chunk.tolist():
                one_frame, one_state = build(value)
                party = party or _sweep_party(one_state, one_frame, measures)
            raise
        party = party or _sweep_party(rho, frames, measures)
        born, table = party
        box = born(rho, frames)
        columns.append(np.column_stack([chunk] + [table[m](box) for m in measures]))
    rows = sorted(np.concatenate(columns).tolist(), key=lambda r: r[0])
    row_format = ",".join(["%.12g"] * (1 + len(measures)))
    lines = [",".join([pname] + measures)] + [row_format % tuple(row) for row in rows]
    _write("\n".join(lines), args)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import acceptance

    numbers = None
    if args.only is not None:
        known = {str(n) for n in range(1, len(acceptance.ALL_CRITERIA) + 1)}
        unknown = [n for n in args.only.split(",") if n.strip() not in known]
        if unknown:
            raise InputError(f"--only: no criterion {', '.join(map(repr, unknown))}; "
                             f"criteria are 1..{len(acceptance.ALL_CRITERIA)}")
        numbers = [int(n) for n in args.only.split(",")]
    results = acceptance.run_all(numbers)
    failed = sum(not r.passed for r in results)
    if args.json:
        print(json.dumps({"criteria": [
            {"number": r.number, "verdict": "PASS" if r.passed else "FAIL",
             "detail": r.detail, "seconds": r.seconds} for r in results],
            "passed": len(results) - failed, "total": len(results)}))
    else:
        width = max(len(r.description) for r in results)
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"[{status}] {r.number:2d}  {r.description.ljust(width)}  {r.detail}")
        print(f"{len(results) - failed}/{len(results)} criteria passed")
    return EXIT_OK if failed == 0 else EXIT_CRITERION_FAILED


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose refusals are one `error: ...` line on stderr
    and exit 2, as every other input error; its subparsers are of this class."""

    def error(self, message):
        self.exit(EXIT_INPUT_ERROR, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="boxlab",
        description="Nonsignaling-box measures, decompositions and state-generated boxes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_box_source(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--box", help="JSON box file")
        source.add_argument("--catalog", help="catalog label, e.g. PR000 or Sv0000")

    p = sub.add_parser("measure", help="discords, totals, inequality values, locality class")
    add_box_source(p)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("--out")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("decompose", help="canonical decomposition of a box")
    add_box_source(p)
    p.add_argument("--mode", choices=("two", "three"), default="three")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("state-box", help="generate a box from a state family and settings")
    p.add_argument("--family", required=True)
    p.add_argument("--param", action="append", help="k=v, repeatable; use settings=v for the frame parameter")
    p.add_argument("--settings", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_state_box)

    p = sub.add_parser("sweep", help="parameter sweep to CSV")
    p.add_argument("--family", required=True)
    p.add_argument("--sweep", required=True, help="name:start:stop:steps")
    p.add_argument("--settings", required=True)
    p.add_argument("--settings-param", dest="settings_param", choices=("sweep",),
                   help="'sweep' to reuse the swept value as the settings parameter")
    p.add_argument("--measures", help="comma list, default G,Q,T")
    p.add_argument("--param", action="append")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--only", help="comma list of criterion numbers")
    p.add_argument("--json", action="store_true",
                   help="one JSON line: each criterion's number, verdict, detail and seconds, "
                        "its own wall time while other criteria run concurrently (the "
                        "seconds can sum to more than the run)")
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, boxcore.BoxError, boxcore.InvalidStateError, boxcore.UnknownNameError,
            polytope.LpNumericalFailure, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
