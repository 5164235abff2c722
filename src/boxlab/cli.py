"""Command-line front end: measure, decompose, state-box, sweep, verify.

Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import acceptance, boxcore, discord2, polytope, qstate, tribox

EXIT_OK = 0
EXIT_CRITERION_FAILED = 1
EXIT_INPUT_ERROR = 2


class InputError(Exception):
    pass


def _load_box(args):
    """Box from --box FILE (JSON) or --catalog LABEL."""
    if getattr(args, "box", None):
        text = Path(args.box).read_text()
        parties = json.loads(text).get("parties")
        if parties == 2:
            return boxcore.box_from_json(text)
        if parties == 3:
            return tribox.box3_from_json(text)
        raise InputError(f"unsupported parties={parties}")
    if getattr(args, "catalog", None):
        label = args.catalog
        try:
            return boxcore.vertex(boxcore.parse_vertex_label(label))
        except ValueError:
            pass
        try:
            return tribox.tri_vertex(tribox.parse_tri_vertex_label(label))
        except ValueError:
            raise InputError(f"unknown catalog label {label!r}") from None
    raise InputError("need --box FILE or --catalog LABEL")


def _parse_params(pairs) -> dict[str, float]:
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise InputError(f"--param expects k=v, got {item!r}")
        key, value = item.split("=", 1)
        out[key.strip()] = float(value)
    return out


def _frame(name, param):
    try:
        return qstate.settings_catalog(name, param)
    except qstate.UnknownNameError as exc:
        raise InputError(str(exc)) from exc


def _settings_from_args(args, params):
    if args.settings is None:
        raise InputError("need --settings NAME")
    return _frame(args.settings, params.pop("settings", None))


def _emit(data, args) -> None:
    fmt = getattr(args, "format", "table") or "table"
    if fmt == "json":
        text = json.dumps(data, indent=2, sort_keys=True)
    elif fmt == "table":
        width = max(len(k) for k in data)
        lines = []
        for key, value in data.items():
            if isinstance(value, float):
                value = f"{value:.12g}"
            lines.append(f"{key.ljust(width)}  {value}")
        text = "\n".join(lines)
    else:
        raise InputError(f"unsupported format {fmt!r} for this command")
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _measure_report2(box) -> dict:
    split = discord2.correlation_split(box)
    chsh = discord2.chsh_values(box)
    membership = polytope.is_local(box)
    report = {
        "parties": 2,
        "bell_discord": split.bell,
        "mermin_discord": split.mermin,
        "total_correlation": split.total,
        "classical_correlation": split.classical,
        "classical_sign": split.sign,
        "chsh_max": float(np.max(chsh)),
        "steering_value": discord2.steering_value(box),
        "epr_steerable": discord2.is_epr_steerable(box),
        "local": membership.inside,
    }
    mermin = discord2.mermin_values(box)
    for al in range(2):
        for be in range(2):
            for ga in range(2):
                report[f"chsh_{al}{be}{ga}"] = float(chsh[al, be, ga])
                report[f"mermin_{al}{be}{ga}"] = float(mermin[al, be, ga])
    if not membership.inside:
        report["violated_facet"] = membership.violated_facet[0]
        report["violation"] = membership.violated_facet[1]
    return report


# The tripartite membership flags, each with the first row of its hull in
# sv_polytope_ids(): 16 Svetlichny, 48 embedded PR, then 64 deterministic
# vertices, so each hull holds the next
_TRI_FLAGS = {"in_sv_polytope": 0, "two_way_local": 16, "local": 64}


def _measure_report3(box) -> dict:
    split = tribox.correlation_split3(box)
    svv = tribox.sv_values(box)
    mermin = tribox.mermin3_values(box)
    flags = polytope.nested_hull_flags(box.table.reshape(-1),
                                       tribox.tri_vertex_matrix(tribox.sv_polytope_ids()),
                                       tuple(_TRI_FLAGS.values()))
    report = {
        "parties": 3,
        "svetlichny_discord": split.svetlichny,
        "mermin3_discord": split.mermin,
        "total_correlation": split.total,
        "classical_correlation": split.classical,
        "classical_sign": split.sign,
        "svetlichny_max": float(np.max(svv)),
        "mermin3_max": float(np.max(tribox.mermin3_functions(box))),
        "class99_value": tribox.class99_value(box),
        "ghz_paradox": tribox.ghz_paradox_check(box),
        **dict(zip(_TRI_FLAGS, flags)),
    }
    for al in range(2):
        for be in range(2):
            for ga in range(2):
                report[f"sv_{al}{be}{ga}0"] = float(svv[al, be, ga, 0])
                report[f"mermin3_{al}{be}{ga}0"] = float(mermin[al, be, ga, 0])
    return report


def cmd_measure(args) -> int:
    box = _load_box(args)
    if isinstance(box, boxcore.BipartiteBox):
        _emit(_measure_report2(box), args)
    else:
        _emit(_measure_report3(box), args)
    return EXIT_OK


def cmd_decompose(args) -> int:
    box = _load_box(args)
    if isinstance(box, tribox.TripartiteBox):
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


def _build_state(args, params):
    name = args.family
    if name is None:
        raise InputError("need --family NAME")
    try:
        if name == "BellDiagonal":
            weights = [params[f"w{i}"] for i in range(8)]
            return qstate.state_family(name, weights=weights)
        return qstate.state_family(name, **params)
    except (KeyError, qstate.UnknownNameError) as exc:
        raise InputError(str(exc)) from exc


def cmd_state_box(args) -> int:
    params = _parse_params(args.param)
    frame = _settings_from_args(args, params)
    rho = _build_state(args, params)
    if rho.dim == 4:
        box = qstate.born_box2(rho, frame)
        text = boxcore.box_to_json(box)
    else:
        box = qstate.born_box3(rho, frame)
        text = tribox.box3_to_json(box)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return EXIT_OK


_MEASURES2 = {
    "G": discord2.bell_discord,
    "Q": discord2.mermin_discord,
    "T": discord2.total_correlation,
    "C": discord2.classical_correlation,
    "CHSH": lambda box: float(np.max(discord2.chsh_values(box))),
    "CHSH000": lambda box: discord2.chsh_value(box, 0, 0, 0),
    "steering": discord2.steering_value,
}

_MEASURES3 = {
    "G": tribox.svetlichny_discord,
    "Q": tribox.mermin3_discord,
    "T": tribox.total_correlation3,
    "C": tribox.classical_correlation3,
    "SV": lambda box: float(np.max(tribox.sv_values(box))),
    "MERMIN3": lambda box: float(np.max(tribox.mermin3_functions(box))),
    "CLASS99": tribox.class99_value,
}


def cmd_sweep(args) -> int:
    params = _parse_params(args.param)
    try:
        pname, start, stop, steps = args.sweep.split(":")
        start, stop, steps = float(start), float(stop), int(steps)
    except ValueError as exc:
        raise InputError(f"--sweep expects name:start:stop:steps, got {args.sweep!r}") from exc
    if steps < 2:
        raise InputError("sweep needs at least 2 steps")
    measures = [m.strip() for m in (args.measures or "G,Q,T").split(",")]
    # the frame moves only when the swept value is its parameter
    frame_moves = args.settings_param == "sweep" or pname == "settings"
    if not frame_moves:
        frame = _frame(args.settings, params.get("settings"))
    rows = []
    for value in np.linspace(start, stop, steps):
        if frame_moves:
            frame = _frame(args.settings, float(value))
        point = dict(params)
        point[pname] = float(value)
        point.pop("settings", None)
        state_args = argparse.Namespace(family=args.family)
        rho = _build_state(state_args, point)
        if rho.dim == 4:
            box = qstate.born_box2(rho, frame)
            table = _MEASURES2
        else:
            box = qstate.born_box3(rho, frame)
            table = _MEASURES3
        row = [float(value)]
        for m in measures:
            if m not in table:
                raise InputError(f"unknown measure {m!r} for {rho.dim=}")
            row.append(float(table[m](box)))
        rows.append(row)
    rows.sort(key=lambda r: r[0])
    header = [pname] + measures
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.12g}" for v in row))
    text = "\n".join(lines)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    numbers = None
    if args.only:
        known = {str(n) for n in range(1, len(acceptance.ALL_CRITERIA) + 1)}
        unknown = [n for n in args.only.split(",") if n.strip() not in known]
        if unknown:
            raise InputError(f"--only: no criterion {', '.join(unknown)}; "
                             f"criteria are 1..{len(acceptance.ALL_CRITERIA)}")
        numbers = [int(n) for n in args.only.split(",")]
    results = acceptance.run_all(numbers)
    width = max(len(r.description) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.number:2d}  {r.description.ljust(width)}  {r.detail}")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return EXIT_OK if failed == 0 else EXIT_CRITERION_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxlab",
        description="Nonsignaling-box measures, decompositions and state-generated boxes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_box_source(p):
        p.add_argument("--box", help="JSON box file")
        p.add_argument("--catalog", help="catalog label, e.g. PR000 or Sv0000")

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
    p.add_argument("--settings-param", dest="settings_param",
                   help="'sweep' to reuse the swept value as the settings parameter")
    p.add_argument("--measures", help="comma list, default G,Q,T")
    p.add_argument("--param", action="append")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--only", help="comma list of criterion numbers")
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
    except (InputError, boxcore.BoxError, qstate.InvalidStateError,
            FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
