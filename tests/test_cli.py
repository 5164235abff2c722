"""CLI surface: subcommands, formats, exit codes."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from boxlab import _corr, acceptance, boxcore, cli, discord2, polytope, qstate, tribox


def run_cli(args):
    return cli.main(args)


def test_measure_catalog_pr(capsys):
    assert run_cli(["measure", "--catalog", "PR000", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bell_discord"] == pytest.approx(4.0)
    assert report["local"] is False
    assert report["violated_facet"] == "B000"


def test_measure_noise_all_zero(capsys):
    assert run_cli(["measure", "--catalog", "Noise", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    for key in ("bell_discord", "mermin_discord", "total_correlation"):
        assert report[key] == pytest.approx(0.0, abs=1e-12)
    assert report["local"] is True



@pytest.mark.parametrize("label", ["Noise", "Noise3", "PR000"])
def test_measure_reports_no_negative_zero(label, capsys):
    assert run_cli(["measure", "--catalog", label, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert "-0.0" not in out
    assert run_cli(["measure", "--catalog", label]) == 0
    assert [line for line in capsys.readouterr().out.splitlines() if line.endswith(" -0")] == []

def test_measure_tsirelson(capsys):
    assert run_cli(["measure", "--catalog", "Tsirelson000", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["chsh_max"] == pytest.approx(2 * np.sqrt(2), abs=1e-9)
    assert report["bell_discord"] == pytest.approx(2 * np.sqrt(2), abs=1e-9)


def test_measure_tripartite_catalog(capsys):
    assert run_cli(["measure", "--catalog", "Sv0000", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["svetlichny_discord"] == pytest.approx(8.0)
    assert report["in_sv_polytope"] is True
    assert report["two_way_local"] is False


def test_measure_box_file(tmp_path, capsys):
    box = boxcore.mix([boxcore.pr_box(0, 0, 0), boxcore.noise_box()], [0.7, 0.3])
    path = tmp_path / "box.json"
    path.write_text(boxcore.box_to_json(box))
    assert run_cli(["measure", "--box", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bell_discord"] == pytest.approx(2.8, abs=1e-9)


def test_measure_missing_source_is_input_error(capsys):
    assert run_cli(["measure"]) == 2
    assert "error" in capsys.readouterr().err


def test_measure_invalid_box_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    table = np.full((2, 2, 2, 2), 0.25)
    table[0, 0, 0, 0] = 0.5  # breaks normalization
    path.write_text(json.dumps({"parties": 2, "table": table.tolist()}))
    assert run_cli(["measure", "--box", str(path)]) == 2


# det_box(0, 0, 0, 0) with its ones written as strings: numpy would read it,
# and the same table with true for the strings, as that box
STRING_ENTRY_BOX2 = (Path(__file__).parent / "data" / "string_entry_box2.json").read_bytes()
MALFORMED_BOX_FILES = [
    b"[0.25, 0.25]",
    b'{"parties": 2}',
    b'{"parties": 2, "table": "abc"}',
    b'{"parties": 2, "table": [[0.25, 0.25, 0.25, 0.25], [0.25, 0.25, 0.25]]}',
    b"\xff\xfe not UTF-8",
    (Path(__file__).parent / "data" / "malformed_box3.json").read_bytes(),
    STRING_ENTRY_BOX2,
    STRING_ENTRY_BOX2.replace(b'"1.0"', b"true"),
    # det3_box(0, 0, 0, 0, 0, 0) with its ones written as true
    (Path(__file__).parent / "data" / "bool_entry_box3.json").read_bytes(),
]


@pytest.mark.parametrize("data", MALFORMED_BOX_FILES)
def test_measure_malformed_box_file_exit_2(data, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    assert run_cli(["measure", "--box", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_measure_box_file_of_huge_entries_exit_2_without_a_warning(capsys, recwarn):
    # 1e308 entries are finite; their block sums overflow to inf
    path = Path(__file__).parent / "data" / "huge_entry_box2.json"
    assert run_cli(["measure", "--box", str(path)]) == 2
    assert capsys.readouterr().err == "error: sum of P(a,b|x=0,y=0) = inf != 1\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_lp_numerical_failure_exits_2_with_one_line(monkeypatch, capsys):
    # with no simplex iteration allowed HiGHS stops at its iteration limit
    monkeypatch.setitem(polytope._HIGHS_OPTIONS, "simplex_iteration_limit", 0)
    assert run_cli(["measure", "--catalog", "PR000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: HiGHS model status 14: Iteration limit reached\n"


def test_measure_box_file_of_another_party_count_exit_2(tmp_path, capsys):
    path = tmp_path / "box4.json"
    path.write_text(json.dumps({"parties": 4, "table": np.full((2,) * 8, 1 / 16).tolist()}))
    assert run_cli(["measure", "--box", str(path)]) == 2
    assert capsys.readouterr().err == "error: unsupported parties=4\n"


@pytest.mark.parametrize("label", ["PR00", "Sv00"])
def test_measure_malformed_catalog_label_exit_2(label, capsys):
    assert run_cli(["measure", "--catalog", label]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_decompose_isotropic_pr(capsys):
    box = boxcore.mix([boxcore.pr_box(0, 0, 0), boxcore.noise_box()], [0.7, 0.3])
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        fh.write(boxcore.box_to_json(box))
        name = fh.name
    assert run_cli(["decompose", "--box", name, "--mode", "two"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mu"] == pytest.approx(0.7, abs=1e-9)
    assert report["pr_component"] == "PR000"
    assert np.allclose(report["residual"], 0.25, atol=1e-9)


def test_decompose_mermin_box_three_way(capsys):
    assert run_cli(["decompose", "--catalog", "MerminMM000", "--mode", "three"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["nu"] == pytest.approx(1.0, abs=1e-12)
    assert report["mermin_component"] == "MerminMM000"


def test_decompose_mode_two_of_a_tripartite_box_exits_2(capsys):
    # a tripartite box has only the three-way split, which --mode two must not stand for
    assert run_cli(["decompose", "--catalog", "Sv0000", "--mode", "two"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.strip().splitlines()) == 1
    assert "--mode two" in captured.err


@pytest.mark.parametrize("parties", [2, 3])
def test_decompose_splits_committed_witness_box(parties, capsys):
    # a planted witness that the relabeling-frame searches refused
    path = Path(__file__).parent / "data" / f"witness_box{parties}.json"
    assert run_cli(["decompose", "--box", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    planted = json.loads(path.read_text())["planted"]
    assert report["mu"] == pytest.approx(planted["mu"], abs=1e-9)
    assert report["nu"] == pytest.approx(planted["nu"], abs=1e-9)


def test_state_box_writes_valid_box(tmp_path):
    out = tmp_path / "out.json"
    code = run_cli(["state-box", "--family", "Schmidt", "--param", "theta=0.6",
                    "--settings", "BSb", "--out", str(out)])
    assert code == 0
    box = boxcore.box_from_json(out.read_text())
    w = np.sin(1.2) / np.sqrt(2)
    assert np.allclose(box.table,
                       w * boxcore.pr_box(0, 0, 0).table + (1 - w) * 0.25,
                       atol=1e-12)


def test_state_box_tripartite(tmp_path):
    out = tmp_path / "out3.json"
    code = run_cli(["state-box", "--family", "GHZ", "--settings", "MDxy",
                    "--out", str(out)])
    assert code == 0
    box = tribox.box3_from_json(out.read_text())
    assert tribox.ghz_paradox_check(box)


def test_state_box_unknown_family_exit_2():
    assert run_cli(["state-box", "--family", "Wrong", "--settings", "BSb"]) == 2


@pytest.mark.parametrize("argv", [
    ["--family", "Werner2", "--param", "p=abc", "--settings", "BSb"],
    ["--family", "Werner2", "--param", "p", "--settings", "BSb"],  # no '='
    ["--family", "Werner2", "--param", "p=0.5", "--settings", "PRQ(abc)"],
    # out of range: NaN directions, refused by the norm check without a numpy warning
    ["--family", "Werner2", "--param", "p=0.5", "--settings", "PRQ(-0.5)"],
    # CQ's r_hat is a vector, which --param cannot give
    ["--family", "CQ", "--param", "p0=0.5", "--param", "r_hat=1",
     "--param", "s0=0", "--param", "s1=0", "--settings", "BSb"],
])
def test_state_box_malformed_parameter_exit_2(argv, capsys):
    assert run_cli(["state-box", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


BELL_WEIGHTS = [arg for i in range(8) for arg in ("--param", f"w{i}=0.125")]


def test_state_box_of_bell_diagonal_weights_is_the_born_box(tmp_path):
    weights = [0.4, 0.1, 0.05, 0.15, 0.1, 0.05, 0.1, 0.05]
    out = tmp_path / "out.json"
    argv = [arg for i, w in enumerate(weights) for arg in ("--param", f"w{i}={w!r}")]
    assert run_cli(["state-box", "--family", "BellDiagonal", *argv, "--settings", "BSb",
                    "--out", str(out)]) == 0
    want = qstate.born_box2(qstate.state_family("BellDiagonal", weights=np.array(weights)),
                            qstate.settings_catalog("BSb"))
    assert np.array_equal(boxcore.box_from_json(out.read_text()).table, want.table)


@pytest.mark.parametrize("argv, named", [
    (["state-box", "--family", "Werner2", "--param", "p=0.5", "--param", "q=3",
      "--settings", "BSb"], "'q'"),
    (["state-box", "--family", "Werner2", "--param", "p=0.5", "--settings", "BSb(0.3)"],
     "'BSb'"),
    (["state-box", "--family", "Werner2", "--param", "p=0.5", "--param", "settings=7",
      "--settings", "BSb"], "'BSb'"),
    (["state-box", "--family", "BellDiagonal", *BELL_WEIGHTS, "--param", "x=1",
      "--settings", "BSb"], "'x'"),
    (["sweep", "--family", "GHZ", "--sweep", "p:0.5:1:3", "--settings", "MDxy"], "'p'"),
    (["sweep", "--family", "Werner2", "--sweep", "p:0:1:3", "--settings", "BSb",
      "--settings-param", "sweep"], "'BSb'"),
    (["sweep", "--family", "Werner2", "--sweep", "p:0:1:3", "--settings", "meb1",
      "--settings-param", "sweep", "--param", "settings=7"], "settings"),
    (["sweep", "--family", "Werner2", "--param", "p=0.5", "--sweep", "settings:0:1:3",
      "--settings", "meb1", "--param", "settings=7"], "settings"),
])
def test_parameter_the_family_or_frame_does_not_take_exit_2(argv, named, capsys):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert named in err


def test_swept_frame_parameter_reaches_the_family_that_takes_it(tmp_path):
    # with --settings-param sweep the value is the frame's; Werner2 takes p too
    out = tmp_path / "w.csv"
    assert run_cli(["sweep", "--family", "Werner2", "--sweep", "p:0.2:0.8:3",
                    "--settings", "meb1", "--settings-param", "sweep",
                    "--measures", "G,Q", "--out", str(out)]) == 0
    for line in out.read_text().strip().splitlines()[1:]:
        p, g, q = map(float, line.split(","))
        box = qstate.born_box2(qstate.werner2_state(p), qstate.settings_catalog("meb1", p))
        assert (g, q) == (pytest.approx(discord2.bell_discord(box), abs=1e-11),
                          pytest.approx(discord2.mermin_discord(box), abs=1e-11))


def test_sweep_csv_matches_closed_form(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(["sweep", "--family", "Schmidt", "--sweep",
                    "theta:0:0.785398163:9", "--settings", "BSb",
                    "--measures", "CHSH000,G", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "theta,CHSH000,G"
    assert len(lines) == 10
    for line in lines[1:]:
        theta, chsh, g = map(float, line.split(","))
        want = 2 * np.sqrt(2) * np.sin(2 * theta)
        assert chsh == pytest.approx(want, abs=1e-9)
        assert g == pytest.approx(want, abs=1e-9)


def test_sweep_with_swept_settings_parameter(tmp_path):
    out = tmp_path / "ghz.csv"
    code = run_cli(["sweep", "--family", "GHZ", "--sweep", "p:0.5:1.0:6",
                    "--settings", "SMDghz", "--settings-param", "sweep",
                    "--measures", "G,Q,T", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    for line in lines[1:]:
        p, g, q, t = map(float, line.split(","))
        assert g == pytest.approx(8 * np.sqrt(1 - p), abs=1e-9)
        assert q == pytest.approx(4 * (np.sqrt(p) - np.sqrt(1 - p)), abs=1e-9)
        assert t == pytest.approx(g + q, abs=1e-9)


def test_sweep_of_the_settings_parameter_moves_the_frame(tmp_path):
    out = tmp_path / "prq.csv"
    code = run_cli(["sweep", "--family", "Schmidt", "--param", "theta=0.4",
                    "--sweep", "settings:0.2:1.8:5", "--settings", "PRQ",
                    "--measures", "G,Q,CHSH", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "settings,G,Q,CHSH"
    assert len(lines) == 6
    rho = qstate.schmidt_state(0.4)
    for line in lines[1:]:
        tau, g, q, chsh = map(float, line.split(","))
        box = qstate.born_box2(rho, qstate.settings_catalog("PRQ", tau))
        assert g == pytest.approx(discord2.bell_discord(box), abs=1e-11)
        assert q == pytest.approx(discord2.mermin_discord(box), abs=1e-11)
        assert chsh == pytest.approx(np.max(discord2.chsh_values(box)), abs=1e-11)


def test_sweep_rejects_bad_spec():
    assert run_cli(["sweep", "--family", "Schmidt", "--sweep", "theta:0:1",
                    "--settings", "BSb"]) == 2
    assert run_cli(["sweep", "--family", "Schmidt", "--sweep", "theta:0:1:1",
                    "--settings", "BSb"]) == 2


def test_sweep_deterministic_output(tmp_path):
    args = ["sweep", "--family", "Werner2", "--sweep", "p:0:1:5",
            "--settings", "MSb", "--measures", "Q"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def test_verify_subset_runs(capsys):
    assert run_cli(["verify", "--only", "1,14"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]  1" in out and "[PASS] 14" in out
    assert "2/2 criteria passed" in out


def test_verify_unknown_criterion_exit_2(capsys):
    assert run_cli(["verify", "--only", "99"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    # each unknown entry is quoted, so an empty one shows
    assert run_cli(["verify", "--only", "1,,2,x"]) == 2
    assert capsys.readouterr().err == ("error: --only: no criterion '', 'x'; "
                                       "criteria are 1..16\n")
    # an empty list names no criterion; it does not run them all
    assert run_cli(["verify", "--only", ""]) == 2
    assert capsys.readouterr().err == "error: --only: no criterion ''; criteria are 1..16\n"


@pytest.mark.parametrize("command", ["measure", "decompose"])
def test_box_and_catalog_together_exit_2_with_one_line(command, capsys):
    with pytest.raises(SystemExit) as info:
        run_cli([command, "--box", str(Path(__file__).parent / "data" / "witness_box2.json"),
                 "--catalog", "Sv0000"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: argument --catalog: not allowed with argument --box"]


def test_parser_is_built_once_and_keeps_no_options(tmp_path, capsys):
    assert cli._parser() is cli._parser()
    out = tmp_path / "report.json"
    assert run_cli(["measure", "--catalog", "PR000", "--format", "json", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["bell_discord"] == pytest.approx(4.0)
    out.unlink()
    assert run_cli(["measure", "--catalog", "Noise"]) == 0
    assert not out.exists()
    assert capsys.readouterr().out.startswith("parties")


def _report_boxes(parties):
    rng = np.random.default_rng(8080)
    if parties == 2:
        boxes = [boxcore.make_box(t) for t in polytope.random_ns_tables(rng, 4)]
        return boxes + [boxcore.mermin_box(1, 0, 1), boxcore.pr_box(0, 1, 1)]
    boxes = [tribox.random_sv_polytope_box(rng) for _ in range(3)]
    return boxes + [tribox.mermin3_box(1, 0, 1, 1), tribox.class8_box(),
                    qstate.born_box3(qstate.ghz_state(), qstate.settings_catalog("MDxy"))]


def test_measure_reports_take_mermin_values_of_the_per_label_functions():
    labels = list(itertools.product(range(2), repeat=3))
    for box in _report_boxes(2):
        report = cli._measure_report2(box)
        for al, be, ga in labels:
            assert report[f"mermin_{al}{be}{ga}"] == discord2.mermin_value(box, al, be, ga)
    for box in _report_boxes(3):
        report = cli._measure_report3(box)
        for al, be, ga in labels:
            assert report[f"mermin3_{al}{be}{ga}0"] == tribox.mermin3_value(box, al, be, ga, 0)


def test_tripartite_membership_flags_match_separate_lps():
    seen = set()
    for box in _report_boxes(3):
        report = cli._measure_report3(box)
        target = box.table.reshape(-1)
        flags = []
        for key, ids in (("in_sv_polytope", tribox.sv_polytope_ids()),
                         ("two_way_local", [*tribox.all_pr2_ids(), *tribox.all_det3_ids()]),
                         ("local", tribox.all_det3_ids())):
            inside = polytope.lp_vertex_weights(target, tribox.tri_vertex_matrix(ids)) is not None
            assert report[key] is inside
            flags.append(inside)
        seen.add(tuple(flags))
    assert len(seen) >= 3


@pytest.mark.parametrize("spec", ["theta:inf:1:3", "theta:0:nan:3", "theta:-inf:inf:3",
                                  "theta:nan:1:3"])
def test_sweep_rejects_non_finite_bounds_with_one_line(spec, capsys, recwarn):
    assert run_cli(["sweep", "--family", "Schmidt", "--sweep", spec,
                    "--settings", "BSb"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --sweep start and stop must be finite, "
                                         f"got {spec!r}"]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_sweep_refuses_a_range_whose_width_overflows_with_one_line(capsys, recwarn):
    # both ends are finite, but stop - start is not
    spec = "theta:-1e308:1e308:3"
    assert run_cli(["sweep", "--family", "Schmidt", "--settings", "PRQ", "--settings-param",
                    "sweep", "--sweep", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --sweep range stop - start must be finite, "
                                         f"got {spec!r}"]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_sweep_refuses_a_grid_it_cannot_allocate_with_one_line(capsys):
    # 8 * 10**16 bytes lie beyond a 47-bit address space, so numpy refuses
    # the grid before it allocates anything
    assert run_cli(["sweep", "--family", "Werner2", "--settings", "BSb",
                    "--sweep", f"p:0:1:{10 ** 16}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: sweep cannot allocate a grid of {10 ** 16} steps"]


@pytest.mark.parametrize("argv", [
    ["state-box", "--family", "Werner2", "--param", "p=inf", "--settings", "BSb"],
    ["state-box", "--family", "Schmidt", "--param", "theta=inf", "--settings", "BSb"],
    ["state-box", "--family", "GGHZ", "--param", "theta=inf", "--settings", "MDxy"],
    ["state-box", "--family", "BellCC", "--param", "p=-inf", "--settings", "BSb"],
    ["state-box", "--family", "Werner3", "--param", "p=inf", "--settings", "MDxy"],
    ["state-box", "--family", "GhzWMix", "--param", "p=inf", "--settings", "MDxy"],
    ["state-box", "--family", "Werner2", "--param", "p=nan", "--settings", "BSb"],
    ["sweep", "--family", "GhzClass", "--param", "theta3=inf", "--sweep", "theta:0:0.7:3",
     "--settings", "MDxy"],
])
def test_a_param_value_that_is_not_finite_exits_2_with_one_line(argv, capsys, recwarn):
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    key, value = argv[argv.index("--param") + 1].split("=")
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --param {key}: {value!r} is not a finite number"]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_settings_param_takes_only_sweep():
    with pytest.raises(SystemExit) as info:
        run_cli(["sweep", "--family", "Schmidt", "--settings", "BSb", "--settings-param", "foo",
                 "--sweep", "theta:0:0.7:3"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["sweep", "--family", "Schmidt", "--settings", "BSb", "--settings-param", "foo",
     "--sweep", "theta:0:0.7:3"],
    ["decompose", "--catalog", "PR000", "--mode", "four"],
    ["measure", "--catalog", "PR000", "--format", "xml"],
    ["sweep", "--settings", "BSb", "--sweep", "theta:0:0.7:3"],
])
def test_argparse_refusals_exit_2_with_one_line(argv, capsys):
    with pytest.raises(SystemExit) as info:
        run_cli(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


@pytest.mark.parametrize("spec, message", [
    # Werner2 fails at p = 2, the first point; PRQ only at p = -1, the last
    ("p:2:-1:4", "error: negative eigenvalue -2.500e-01"),
    # PRQ fails at p = -0.2, the first point; Werner2 only at p = 2
    ("p:-0.2:2:3", "error: measurement direction has norm nan"),
    # both fail at p = -0.5: the frame is built first
    ("p:-0.5:0.5:3", "error: measurement direction has norm nan"),
], ids=["state_first", "frame_first", "same_point"])
def test_a_sweep_raises_the_error_of_its_first_failing_point(spec, message, capsys):
    assert run_cli(["sweep", "--family", "Werner2", "--settings", "PRQ", "--settings-param",
                    "sweep", "--sweep", spec]) == 2
    assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize("args, frames", [
    (["--family", "Werner2", "--settings", "meb1", "--settings-param", "sweep"], 2),
    (["--family", "GGHZ", "--settings", "SDxy"], 1),
])
def test_a_sweep_builds_states_and_frames_once_per_chunk(args, frames, monkeypatch, tmp_path):
    calls = {"state_family": 0, "settings_catalog": 0}

    def counted(name):
        original = getattr(qstate, name)

        def wrapper(*a, **kw):
            calls[name] += 1
            return original(*a, **kw)
        return wrapper

    for name in calls:
        monkeypatch.setattr(qstate, name, counted(name))
    pname = "p" if "Werner2" in args else "theta"
    assert run_cli(["sweep", *args, "--sweep", f"{pname}:0.1:0.7:70",
                    "--out", str(tmp_path / "s.csv")]) == 0
    assert 70 > cli._SWEEP_CHUNK  # two chunks
    assert calls == {"state_family": 2, "settings_catalog": frames}


def test_sweep_reaching_an_invalid_state_exits_2(capsys):
    assert run_cli(["sweep", "--family", "Werner2", "--settings", "BSb",
                    "--sweep", "p:0:2:5"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: negative eigenvalue -1.250e-01"]


_MEASURE_NAMES = {2: "G, Q, T, C, CHSH, CHSH000, steering", 3: "G, Q, T, C, SV, MERMIN3, CLASS99"}


@pytest.mark.parametrize("args, measure, parties", [
    (["--family", "Werner2", "--settings", "MSb", "--sweep", "p:0:1:3"], "SV", 2),
    (["--family", "Werner2", "--settings", "MSb", "--sweep", "p:0:1:3"], "bogus", 2),
    (["--family", "GGHZ", "--settings", "SDxy", "--sweep", "theta:0:0.7:3"], "CHSH", 3),
    (["--family", "GGHZ", "--settings", "SDxy", "--sweep", "theta:0:0.7:3"], "bogus", 3),
    # checked at the first point, before a later point reaches an invalid state
    (["--family", "Werner2", "--settings", "BSb", "--sweep", "p:0:2:5"], "steering,SV", 2),
])
def test_sweep_of_an_unknown_measure_names_the_party_count_and_the_measures(
        args, measure, parties, capsys):
    assert run_cli(["sweep", *args, "--measures", f"G,{measure}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: unknown measure {measure.split(',')[-1]!r} for {parties} parties; "
        f"the measures are {_MEASURE_NAMES[parties]}"]


def test_sweep_reports_a_frame_of_the_other_party_count_first(capsys):
    # the first point's Born rule refuses the frame before the measure names
    # are looked up and before any later point is built
    assert run_cli(["sweep", "--family", "Werner2", "--settings", "SDxy",
                    "--sweep", "p:0:2:5", "--measures", "SV"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: born_box2 needs two-party settings"]


def _stack_and_boxes(parties, k=40):
    """A box stack of random nonsignaling tables and catalog vertices, and its boxes one by one."""
    rng = np.random.default_rng(2104)
    if parties == 2:
        make, vertices = boxcore.make_box, polytope.vertex_matrix(boxcore.ns_vertex_ids())
        random = polytope.random_ns_tables(rng, k).reshape(k, 16)
    else:
        make, vertices = tribox.make_box3, tribox.tri_vertex_matrix(tribox.sv_polytope_ids()[::8])
        random = np.stack([tribox.random_sv_polytope_box(rng).table.reshape(-1) for _ in range(k)])
    rows = np.concatenate([random, vertices])
    return make(rows), [make(row) for row in rows]


@pytest.mark.parametrize("parties", [2, 3])
def test_each_sweep_measure_of_a_box_stack_is_its_per_box_values(parties):
    stack, boxes = _stack_and_boxes(parties)
    for name, measure in (cli._MEASURES2 if parties == 2 else cli._MEASURES3).items():
        want = [measure(box) for box in boxes]
        assert all(type(v) is float for v in want), name
        got = measure(stack)
        assert isinstance(got, np.ndarray) and got.shape == (len(boxes),), name
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)


def _draws(parties, k=130):
    """k seeded rows: PR-weighted nonsignaling boxes, p PR + (1 - p) NS with p
    uniform, or Svetlichny-polytope boxes."""
    rng = np.random.default_rng(3001)
    if parties == 3:
        return np.stack([tribox.random_sv_polytope_box(rng).table.reshape(-1) for _ in range(k)])
    p = rng.uniform(size=(k, 1))
    pr = polytope.vertex_matrix(boxcore.all_pr_ids())[rng.integers(8, size=k)]
    return p * pr + (1 - p) * polytope.random_ns_tables(rng, k).reshape(k, 16)


# (start, stop) of slices of 2 to 129 rows, on both sides of _corr._FEW = 64
_SLICES = [(0, 2), (128, 130), (41, 44), (3, 66), (0, 64), (66, 130), (10, 75), (30, 97),
           (1, 130), (0, 129)]


@pytest.mark.parametrize("parties", [2, 3])
def test_each_sweep_measure_of_a_stack_slice_has_the_bits_of_the_stack_rows(parties):
    # a stack of two or more rows gives each row the same bits; one box may
    # differ from its row in the last bits (a matrix-vector product)
    rows = _draws(parties)
    make = boxcore.make_box if parties == 2 else tribox.make_box3
    stack = make(rows)
    for name, measure in (cli._MEASURES2 if parties == 2 else cli._MEASURES3).items():
        full = measure(stack)
        for start, stop in _SLICES:
            assert measure(make(rows[start:stop])).tobytes() == full[start:stop].tobytes(), \
                (name, start, stop)
        one = np.array([measure(make(row)) for row in rows])
        assert np.max(np.abs(one - full)) <= 1e-15, name


@pytest.mark.parametrize("parties", [2, 3])
def test_correlation_split_of_a_box_stack_is_that_of_each_box(parties):
    stack, boxes = _stack_and_boxes(parties)
    split = discord2.correlation_split if parties == 2 else tribox.correlation_split3
    got = split(stack)
    for k, box in enumerate(boxes):
        want = split(box)
        assert type(want.sign) is int and type(want.total) is float
        for field in ("total", "classical", "sign"):
            assert abs(getattr(got, field)[k] - getattr(want, field)) <= 1e-12, field


@pytest.mark.parametrize("parties", [2, 3])
def test_measure_report_computes_the_full_correlators_once(parties, monkeypatch):
    full = []
    original = _corr.correlators

    def counted(tables, n, mask=None):
        if mask is None or mask == 2 ** n - 1:
            full.append(n)
        return original(tables, n, mask)

    monkeypatch.setattr(_corr, "correlators", counted)
    report = cli._measure_report2 if parties == 2 else cli._measure_report3
    make = boxcore.make_box if parties == 2 else tribox.make_box3
    for box in _report_boxes(parties):
        full.clear()
        fresh = make(box.table)  # its correlators are computed here, at construction
        report(fresh)
        assert full == [parties]


def test_verify_json_gives_each_criterion_its_verdict_and_time(capsys):
    assert run_cli(["verify", "--only", "10", "--json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert (report["passed"], report["total"]) == (1, 1)
    [c10] = report["criteria"]
    assert (c10["number"], c10["verdict"]) == (10, "PASS")
    assert "two-sided 502 inside / 498 outside" in c10["detail"]
    assert 0.0 < c10["seconds"] < 600.0


def test_verify_json_keeps_the_exit_codes(capsys, monkeypatch):
    failing = acceptance.CriterionResult(1, "always fails", False, "max error 1")
    monkeypatch.setattr(acceptance, "ALL_CRITERIA",
                        [lambda: failing, *acceptance.ALL_CRITERIA[1:]])
    assert run_cli(["verify", "--only", "1,14", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [c["verdict"] for c in report["criteria"]] == ["FAIL", "PASS"]
    assert [c["number"] for c in report["criteria"]] == [1, 14]
    assert report["criteria"][0]["detail"] == "max error 1"
    assert run_cli(["verify", "--only", "99", "--json"]) == 2
    assert capsys.readouterr().out == ""
