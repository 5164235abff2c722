"""The three-way split of every catalog box, pinned.

tests/data/split_golden.json maps each of the 227 catalog labels to its
split's mu, nu, pr_component and mermin_component, or to the class of the
error that refuses it. 170 of the 194 boxes that split take nu = 0, so both
Mermin partners of their top pass and the tie order of polytope._partners
names their mermin_component; this golden pins that order apart from the
test_frames oracles, which read the library's own rule. Numbers match to
1e-12, as in the measure golden.
"""

import json
from pathlib import Path

import pytest

from boxlab import boxcore, polytope, tribox

GOLDEN = json.loads((Path(__file__).parent / "data" / "split_golden.json").read_text())
CATALOG = [vid for kind, spec in boxcore._KINDS.items()
           for vid in boxcore._family(boxcore.VertexId if spec.parties == 2
                                      else boxcore.TriVertexId, kind)]


def split(vid) -> dict:
    """The split of catalog box `vid` as the golden holds it."""
    box, decompose = ((boxcore.vertex(vid), polytope.three_decomposition) if vid.parties == 2
                      else (tribox.tri_vertex(vid), tribox.three_decomposition3))
    try:
        dec = decompose(box)
    except (polytope.ResidualInvalidError, tribox.NotInPolytopeError) as exc:
        return {"refused": type(exc).__name__}
    return {"mu": dec.mu, "nu": dec.nu, "pr_component": dec.pr_id.label(),
            "mermin_component": dec.mermin_id.label()}


def test_golden_covers_the_catalog_and_its_refusals():
    assert list(GOLDEN) == [vid.label() for vid in CATALOG]
    assert len(GOLDEN) == 227
    refused = {label: v["refused"] for label, v in GOLDEN.items() if "refused" in v}
    assert refused == {**{f"MerminNMM{i}": "ResidualInvalidError" for i in range(32)},
                       "Class8Rep": "NotInPolytopeError"}
    assert sum(v.get("nu") == 0.0 for v in GOLDEN.values()) == 170


@pytest.mark.parametrize("vid", CATALOG, ids=lambda vid: vid.label())
def test_split_matches_the_golden_split(vid):
    got, want = split(vid), GOLDEN[vid.label()]
    assert list(got) == list(want)
    for key, expected in want.items():
        if isinstance(expected, float):
            assert abs(got[key] - expected) <= 1e-12, key
        else:
            assert got[key] == expected, key
