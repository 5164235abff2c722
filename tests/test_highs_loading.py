"""When and how the HiGHS binding loads: not on import, not for the CLI's
Born-rule commands, and as one shared copy on the first LP; and which of
boxlab's own modules a command loads."""

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
DATA = Path(__file__).resolve().parent / "data"

# The names `import boxlab` gave before its state names loaded lazily, by the
# module that defines or re-exports them
EXPORTS = {
    "boxcore": "BadWeightsError BipartiteBox BoxError Lro NegativeEntryError NotNormalizedError "
               "SignalingError VertexId apply_lro box_from_json box_to_json cc_box det_box "
               "joint_expectation joint_expectations lro_group make_box marginal_expectation "
               "mermin_box mermin_nmm_box mix noise_box pr_box tsirelson_box vertex",
    "discord2": "CorrelationSplit bell_discord bell_functions chsh_value chsh_values "
                "classical_correlation correlation_split is_epr_steerable mermin_discord "
                "mermin_functions mermin_value monogamy_checks steering_flags steering_value "
                "total_correlation",
    "polytope": "DecompositionResult LpNumericalFailure MembershipResult ResidualInvalidError "
                "canonical_2decomposition is_local ns_membership "
                "random_ns_box three_decomposition",
    "qstate": "DensityMatrix InvalidStateError MeasurementSettings UnknownNameError born_box2 "
              "born_box3 density_matrix entanglement_params hardy_probability settings "
              "settings_catalog state_family",
    "tribox": "NotInPolytopeError TripartiteBox TriVertexId class99_value classical_correlation3 "
              "ghz_paradox_check make_box3 marginal2 mermin3_discord mermin3_functions "
              "mermin3_value monogamy_checks3 sv_box sv_functions sv_value svetlichny_discord "
              "three_decomposition3 total_correlation3 tri_vertex",
}

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


def test_measure_and_decompose_load_neither_qstate_acceptance_nor_scipy():
    out = run_python(f"DATA = {str(DATA)!r}\n" + """
from boxlab import tribox
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main([command, "--box", f"{DATA}/witness_box{n}.json"])
             for n in (2, 3) for command in ("measure", "decompose")]
print(json.dumps({"codes": codes, "loaded": [k for k in (
    "boxlab.qstate", "boxlab.acceptance", "scipy", "scipy.optimize._highspy._core")
    if k in sys.modules]}))
""")
    assert out == {"codes": [0, 0, 0, 0], "loaded": ["scipy.optimize._highspy._core"]}


def test_pair_tables_are_built_on_the_first_split_not_at_import():
    out = run_python("""
before = polytope._pairs.cache_info().currsize
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["decompose", "--catalog", "Sv0000"])
print(json.dumps({"before": before, "code": code,
                  "after": polytope._pairs.cache_info().currsize}))
""")
    assert out == {"before": 0, "code": 0, "after": 1}


def test_sweep_loads_qstate_but_not_acceptance():
    out = run_python("""
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["sweep", "--family", "Werner2", "--settings", "BSb",
                     "--sweep", "p:0:1:3"])
print(json.dumps({"code": code, "loaded": modules("boxlab.qstate", "boxlab.acceptance")}))
""")
    assert out == {"code": 0, "loaded": ["boxlab.qstate"]}


def test_package_names_load_on_first_use_as_the_modules_own_objects():
    out = run_python(f"EXPORTS = {EXPORTS!r}\n" + """
from importlib import import_module
import boxlab
lazy_before = modules("boxlab.qstate", "boxlab.acceptance")
from boxlab import born_box2
cached = "born_box2" in vars(boxlab)
differ = [name for module, names in EXPORTS.items() for name in names.split()
          if getattr(boxlab, name) is not getattr(import_module("boxlab." + module), name)]
submodules = [getattr(boxlab, m) is import_module("boxlab." + m)
              for m in ("qstate", "acceptance", "cli")]
try:
    boxlab.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"lazy_before": lazy_before, "cached": cached,
                  "born_box2": born_box2 is import_module("boxlab.qstate").born_box2,
                  "differ": differ, "submodules": submodules, "unknown": unknown}))
""")
    assert out == {"lazy_before": [], "cached": True, "born_box2": True, "differ": [],
                   "submodules": [True, True, True],
                   "unknown": "module 'boxlab' has no attribute 'no_such_name'"}


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

