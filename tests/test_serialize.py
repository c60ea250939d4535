"""Round-trips and formatting of every serialized record."""

import os

import numpy as np

from epibvp import serialize
from epibvp.certificates import certificates_for
from epibvp.continuation import sweep
from epibvp.integrator import integrate, validate
from epibvp.model import BoundaryKind, ProblemSpec, reconstruct_phi
from epibvp.shooting import RootSet, ShootingRoot


def _traj():
    spec = ProblemSpec(lam=9.0, kind=BoundaryKind.NAVIER, grid_n=401)
    return integrate(spec, -4.742307280271374)


def test_float_formatting_roundtrips_bits():
    values = [np.pi, 1.0 / 3.0, 1e-300, -1.23456789012345678e17, 0.0]
    for v in values:
        assert float(format(v, ".17g")) == v


def test_trajectory_csv_roundtrip():
    traj = _traj()
    text = serialize.trajectory_to_csv(traj)
    assert text.startswith("t,u,du\n")
    assert "\r" not in text
    t, u, du = serialize.trajectory_samples_from_csv(text)
    assert np.array_equal(t, traj.t)
    assert np.array_equal(u, traj.u)
    assert np.array_equal(du, traj.du)


def test_profile_csv_roundtrip():
    traj = _traj()
    prof = reconstruct_phi(traj)
    text = serialize.profile_to_csv(prof)
    assert text.startswith("r,w,phi\n")
    back = serialize.profile_from_csv(text)
    assert np.array_equal(back.r, prof.r)
    assert np.array_equal(back.w, prof.w)
    assert np.array_equal(back.phi, prof.phi)


def test_validation_json_roundtrip():
    report = validate(_traj())
    back = serialize.validation_from_json(serialize.validation_to_json(report))
    assert back.to_dict() == report.to_dict()


def test_rootset_json_roundtrip():
    rs = RootSet(
        lam=100.0,
        kind=BoundaryKind.DIRICHLET,
        roots=[ShootingRoot(-108.52567289833944), ShootingRoot(-16.2635630662405)],
        scan_window=(-500.0, 0.0),
    )
    back = serialize.rootset_from_json(serialize.rootset_to_json(rs))
    assert back.lam == rs.lam
    assert back.kind == rs.kind
    assert back.slopes() == rs.slopes()
    assert back.scan_window == rs.scan_window


def test_diagram_csv_roundtrip():
    diagram = sweep(BoundaryKind.NAVIER, [0.0, 5.0])
    text = serialize.diagram_to_csv(diagram)
    assert text.startswith("lambda,a,branch\n")
    back = serialize.diagram_from_csv(text, BoundaryKind.NAVIER)
    assert back.points == diagram.points


def test_fold_json_roundtrip():
    text = serialize.fold_to_json(BoundaryKind.NAVIER, 11.30, 11.35)
    kind, lo, hi = serialize.fold_from_json(text)
    assert (kind, lo, hi) == (BoundaryKind.NAVIER, 11.30, 11.35)


def test_certificates_json_roundtrip():
    certs = certificates_for(144.0, BoundaryKind.DIRICHLET)
    back = serialize.certificates_from_json(serialize.certificates_to_json(certs))
    assert [c.to_dict() for c in back] == [c.to_dict() for c in certs]


def test_atomic_write(tmp_path):
    path = os.path.join(tmp_path, "nested", "out.csv")
    serialize.atomic_write_text(path, "t,u,du\n0.5,0,0\n")
    with open(path) as handle:
        assert handle.read() == "t,u,du\n0.5,0,0\n"
    leftovers = [f for f in os.listdir(os.path.dirname(path)) if f.startswith(".tmp_")]
    assert leftovers == []
