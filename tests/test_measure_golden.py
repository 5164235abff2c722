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

from boxlab import boxcore, cli, tribox

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
