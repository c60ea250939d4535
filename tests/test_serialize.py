"""Round-trips and formatting of every serialized record.

Each record is reloaded the way a consumer of the artifacts would: JSON with
``json.loads``, CSV with ``np.loadtxt``, whose float parser is correctly
rounded, so a 17-digit CSV reload must reproduce every double bit-for-bit.
"""

import io
import json
import os

import numpy as np

from epibvp import serialize
from epibvp.certificates import certificates_for
from epibvp.continuation import sweep
from epibvp.integrator import integrate, validate
from epibvp.model import BoundaryKind, ProblemSpec, reconstruct_phi


def _traj():
    spec = ProblemSpec(lam=9.0, kind=BoundaryKind.NAVIER, grid_n=401)
    return integrate(spec, -4.742307280271374)


def _columns(text, **kwargs):
    return np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2, **kwargs).T


def test_csv_text_matches_per_cell_format():
    """One format operation per block of rows gives the text of formatting
    each cell, across block boundaries."""
    rng = np.random.default_rng(7)
    edge = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2e-308, 1.0 / 3.0, -1e300]
    n = 2 * serialize._CSV_BLOCK_ROWS + 50
    first = np.concatenate([edge, rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)])
    columns = [first, first[::-1].copy(), -first]
    want = "a,b,c\n" + "".join(
        ",".join(format(float(x), ".17g") for x in row) + "\n" for row in zip(*columns)
    )
    assert serialize._csv("a,b,c", columns) == want
    assert serialize._csv("a,b,c", [np.empty(0)] * 3) == "a,b,c\n"


def test_float_formatting_roundtrips_bits():
    values = [np.pi, 1.0 / 3.0, 1e-300, -1.23456789012345678e17, 0.0]
    for v in values:
        assert float(format(v, ".17g")) == v


def test_trajectory_csv_roundtrip():
    traj = _traj()
    text = serialize.trajectory_to_csv(traj)
    assert text.startswith("t,u,du\n")
    assert "\r" not in text
    t, u, du = _columns(text)
    assert np.array_equal(t, traj.t)
    assert np.array_equal(u, traj.u)
    assert np.array_equal(du, traj.du)


def test_profile_csv_roundtrip():
    traj = _traj()
    prof = reconstruct_phi(traj)
    text = serialize.profile_to_csv(prof)
    assert text.startswith("r,w,phi\n")
    r, w, phi = _columns(text)
    assert np.array_equal(r, prof.r)
    assert np.array_equal(w, prof.w)
    assert np.array_equal(phi, prof.phi)


def test_validation_json_roundtrip():
    report = validate(_traj())
    back = json.loads(serialize.validation_to_json(report))
    assert back == report.to_dict()


def test_rootset_json_roundtrip(root_cache):
    rs = root_cache(100.0, BoundaryKind.DIRICHLET)
    assert len(rs.roots) == 2
    back = json.loads(serialize.rootset_to_json(rs))
    assert back["lambda"] == rs.lam
    assert back["kind"] == rs.kind.value
    assert [r["a"] for r in back["roots"]] == rs.slopes()
    assert tuple(back["window"]) == rs.scan_window


def test_diagram_csv_roundtrip():
    diagram = sweep(BoundaryKind.NAVIER, [0.0, 5.0])
    text = serialize.diagram_to_csv(diagram)
    assert text.startswith("lambda,a,branch\n")
    lam, a = _columns(text, usecols=(0, 1))
    (branch,) = _columns(text, usecols=(2,), dtype=str)
    assert list(lam) == [p.lam for p in diagram.points]
    assert list(a) == [p.a for p in diagram.points]
    assert list(branch) == [p.branch.value for p in diagram.points]


def test_fold_json_roundtrip():
    text = serialize.fold_to_json(BoundaryKind.NAVIER, 11.30, 11.35, 11.32, -8.87)
    back = json.loads(text)
    assert back == {"lo": 11.30, "hi": 11.35, "kind": "navier", "lam0": 11.32, "a_star": -8.87}
    assert list(back) == ["lo", "hi", "kind", "lam0", "a_star"]


def test_certificates_json_roundtrip():
    certs = certificates_for(144.0, BoundaryKind.DIRICHLET)
    back = json.loads(serialize.certificates_to_json(certs))
    assert back == [c.to_dict() for c in certs]


def test_atomic_write(tmp_path):
    path = os.path.join(tmp_path, "nested", "out.csv")
    serialize.atomic_write_text(path, "t,u,du\n0.5,0,0\n")
    with open(path) as handle:
        assert handle.read() == "t,u,du\n0.5,0,0\n"
    leftovers = [f for f in os.listdir(os.path.dirname(path)) if f.startswith(".tmp_")]
    assert leftovers == []
