"""When and how the HiGHS binding loads: not on import, not for the CLI's
Born-rule commands, and as one shared copy on the first LP."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from boxlab import polytope, tribox

SRC = Path(__file__).resolve().parents[1] / "src"

PRELUDE = """
import contextlib, io, json, sys
import numpy as np
from boxlab import boxcore, cli, polytope

def modules(*prefixes):
    return sorted(k for k in sys.modules if k.startswith(prefixes))

def lp_answers():
    pr, noise = boxcore.pr_box(0, 0, 0), boxcore.noise_box()
    boxes = [boxcore.mix([pr, noise], [w, 1 - w]) for w in (0.3, 0.5, 0.6)]
    single = [polytope.is_local(box).weights for box in boxes]
    stack = polytope.lp_vertex_weights(np.stack([b.table.reshape(-1) for b in boxes]),
                                       polytope._DET_MATRIX)
    return [[None if w is None else {str(k): v for k, v in w.items()} for w in single],
            [[None if np.isnan(x) else x for x in row] for row in stack.tolist()]]
"""


def run_python(body: str) -> dict:
    """Run PRELUDE + body in a fresh interpreter; the last stdout line is JSON."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", PRELUDE + body], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_born_rule_commands_load_no_scipy():
    out = run_python("""
after_import = modules("scipy")
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["sweep", "--family", "Schmidt", "--settings", "BSb",
                       "--sweep", "theta:0:0.7:3", "--measures", "CHSH,G,Q"]),
             cli.main(["sweep", "--family", "GHZ", "--settings", "SMDghz",
                       "--settings-param", "sweep", "--sweep", "p:0.5:1:3"]),
             cli.main(["state-box", "--family", "Werner2", "--param", "p=0.5",
                       "--settings", "BSb"])]
print(json.dumps({"after_import": after_import, "codes": codes,
                  "after_commands": modules("scipy")}))
""")
    assert out == {"after_import": [], "codes": [0, 0, 0], "after_commands": []}


def test_first_lp_loads_highs_without_scipy_optimize_and_shares_it():
    out = run_python("""
first = lp_answers()
# the extension alone, registered under its own name: no package import
packages_after_lp = [k for k in ("scipy.optimize", "scipy.optimize._highspy", "scipy.sparse")
                     if k in sys.modules]
from scipy.optimize import linprog
res = linprog([1, 2], A_eq=[[1, 1]], b_eq=[1], bounds=(0, None), method="highs")
print(json.dumps({"packages_after_lp": packages_after_lp, "status": int(res.status),
                  "x": res.x.tolist(),
                  "shared": sys.modules["scipy.optimize._highspy._core"] is polytope._highs(),
                  "same_answers": lp_answers() == first}))
""")
    assert out["packages_after_lp"] == []
    assert out["status"] == 0 and out["x"] == [1.0, 0.0]
    assert out["shared"] and out["same_answers"]


def test_missing_extension_file_is_an_import_error(monkeypatch):
    monkeypatch.setattr(polytope.os.path, "isfile", lambda path: False)
    with pytest.raises(ImportError, match="HiGHS extension .*_highspy.*_core"):
        polytope._highs_core_file()


def test_threads_making_the_first_lp_call_at_once_agree():
    out = run_python("""
import threading
barrier = threading.Barrier(4)
loaded, answers, errors = [None] * 4, [None] * 4, []

def worker(i):
    barrier.wait()
    try:
        loaded[i] = polytope._highs()
        answers[i] = lp_answers()
    except Exception as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
one_copy = all(m is sys.modules["scipy.optimize._highspy._core"] for m in loaded)
print(json.dumps({"errors": errors, "alive": any(t.is_alive() for t in threads),
                  "one_copy": one_copy, "answers": answers, "again": lp_answers()}))
""")
    assert not out["errors"] and not out["alive"]
    assert out["one_copy"]
    assert all(answer == out["again"] for answer in out["answers"])


@pytest.mark.parametrize("m", [1, 2, 7, 500])
@pytest.mark.parametrize("vertices", [
    polytope._DET_MATRIX, polytope._NS_MATRIX,
    tribox.tri_vertex_matrix(tribox.sv_polytope_ids()),
], ids=["det16", "ns24", "sv128"])
def test_block_csc_matches_scipy_sparse_kron(vertices, m):
    block = polytope._elastic_block(vertices)
    want = sparse.kron(sparse.identity(m), block, format="csc")
    got = polytope._block_csc(block, m)
    for g, w in zip(got, (want.indptr, want.indices, want.data)):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)

