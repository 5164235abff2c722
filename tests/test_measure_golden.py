"""The `measure` report of every catalog box and both witness boxes, pinned.

tests/data/measure_golden.json maps each box (its catalog label, or the name
of its file under tests/data/) to its report as [key, value] pairs in the
order the table format prints them. It was written with `_golden_text()`.
Keys, key order and value types must match exactly and numbers to 1e-12:
rounding noise near zero prints differently across BLAS builds, so the
printed text itself is not compared.
"""

import json
from pathlib import Path

import pytest

from boxlab import boxcore, cli, discord2, tribox

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "measure_golden.json"
WITNESS_FILES = ("witness_box2.json", "witness_box3.json")


def _catalog_ids() -> tuple[list, list]:
    """(bipartite, tripartite) ids of the whole catalog."""
    return (boxcore.all_pr_ids() + boxcore.all_det_ids() + boxcore.all_mermin_ids()
            + boxcore.all_mermin_nmm_ids() + boxcore.all_cc_ids()
            + boxcore.all_tsirelson_ids() + [boxcore.NOISE_ID],
            tribox.all_sv_ids() + tribox.all_det3_ids() + tribox.all_pr2_ids()
            + tribox.all_mermin3_ids() + [tribox.CLASS8_ID, tribox.NOISE3_ID])


def _catalog_labels() -> list[str]:
    return [vid.label() for ids in _catalog_ids() for vid in ids]


def _source(name: str) -> list[str]:
    return ["--box", str(DATA / name)] if name in WITNESS_FILES else ["--catalog", name]


def _report(name: str, capsys) -> list[list]:
    """The report of `name` as [key, value] pairs: the keys in the table
    format's order, each value as the JSON format gives it."""
    assert cli.main(["measure", *_source(name), "--format", "table"]) == 0
    keys = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert cli.main(["measure", *_source(name), "--format", "json"]) == 0
    values = json.loads(capsys.readouterr().out)
    assert sorted(keys) == sorted(values)
    return [[key, values[key]] for key in keys]


def _golden_text(capsys) -> str:
    """The golden file's text: one box per line."""
    names = _catalog_labels() + list(WITNESS_FILES)
    lines = [f"{json.dumps(name)}: {json.dumps(_report(name, capsys))}" for name in names]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_the_catalog_has_81_bipartite_and_146_tripartite_labels():
    bi, tri = _catalog_ids()
    assert (len(bi), len(tri)) == (81, 146)
    assert len(set(_catalog_labels())) == 227


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_catalog_label_and_witness_box(golden):
    assert list(golden) == _catalog_labels() + list(WITNESS_FILES)


@pytest.mark.parametrize("name", _catalog_labels() + list(WITNESS_FILES))
def test_measure_report_matches_the_golden_report(name, golden, capsys):
    got, want = _report(name, capsys), golden[name]
    assert [key for key, _ in got] == [key for key, _ in want]
    for (key, value), (_, expected) in zip(got, want):
        assert type(value) is type(expected), key
        if isinstance(expected, float):
            assert abs(value - expected) <= 1e-12, key
        else:
            assert value == expected, key


def _by_label(values, key: str) -> dict:
    """Operator values (2, 2, 2) under the report keys `key` % label bits."""
    return {key % f"{i:03b}": v for i, v in enumerate(values.reshape(8).tolist())}


def _assert_reads(got: dict, want: list):
    want = dict(want)
    for key, value in got.items():
        assert abs(value - want[key]) <= 1e-12, key


@pytest.mark.parametrize("label", [vid.label() for vid in _catalog_ids()[1]])
def test_discord2_readers_read_a_tripartite_box(label, golden):
    box = tribox.tri_vertex(tribox.parse_tri_vertex_label(label))
    _assert_reads({"svetlichny_discord": discord2.bell_discord(box),
                   "mermin3_discord": discord2.mermin_discord(box),
                   "total_correlation": discord2.total_correlation(box),
                   "classical_correlation": discord2.classical_correlation(box),
                   "classical_sign": discord2.correlation_split(box).sign,
                   "svetlichny_max": discord2.bell_functions(box).max(),
                   "mermin3_max": discord2.mermin_functions(box).max(),
                   **_by_label(discord2.chsh_values(box)[..., 0], "sv_%s0"),
                   **_by_label(discord2.mermin_values(box)[..., 0], "mermin3_%s0")},
                  golden[label])


@pytest.mark.parametrize("label", [vid.label() for vid in _catalog_ids()[0]])
def test_tripartite_names_read_a_bipartite_box(label, golden):
    box = boxcore.vertex(boxcore.parse_vertex_label(label))
    _assert_reads({"mermin_discord": tribox.mermin3_discord(box),
                   "total_correlation": tribox.total_correlation3(box),
                   "classical_correlation": tribox.classical_correlation3(box),
                   "chsh_max": tribox.sv_functions(box).max(),
                   "steering_value": tribox.mermin3_functions(box).max(),
                   **_by_label(tribox.sv_values(box), "chsh_%s"),
                   **_by_label(tribox.mermin3_values(box), "mermin_%s")},
                  golden[label])
