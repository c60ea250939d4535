"""Round-trips and formatting of every serialized record.

Each record is reloaded the way a consumer of the artifacts would: JSON with
``json.loads``, CSV with ``np.loadtxt``, whose float parser is correctly
rounded, so a 17-digit CSV reload must reproduce every double bit-for-bit.
"""

import hashlib
import io
import json
import math
import os
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epibvp import serialize
from epibvp.certificates import certificates_for
from epibvp.cli import main
from epibvp.continuation import sweep
from epibvp.integrator import integrate, validate
from epibvp.model import BoundaryKind, ProblemSpec, reconstruct_phi


def _traj():
    spec = ProblemSpec(lam=9.0, kind=BoundaryKind.NAVIER, grid_n=401)
    return integrate(spec, -4.742307280271374)


def _columns(text, **kwargs):
    return np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2, **kwargs).T


def test_csv_text_matches_per_cell_format():
    """The block-wise numpy kernel, with its ``format`` fallback, gives the
    text of formatting each cell, across block boundaries."""
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


def _per_cell(values):
    return "x\n" + "".join(format(float(v), ".17g") + "\n" for v in values)


def _bits_to_float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _decimal_ties():
    """Odd multiples of 2**-(17 - E) in decade E: each is an exact decimal of
    18 significant digits ending in 5, a tie for 17-digit rounding."""
    ties = []
    for e in range(-4, 16):
        bits = 17 - e
        for lead in (1.5, 4.5, 9.5):
            odd = int(lead * 10.0 ** e * 2 ** bits) | 1
            if odd < 2 ** 53:
                ties.append(math.ldexp(odd, -bits))
    return ties


_LARGEST = float(np.finfo(float).max)
# the fixed/exponent switch of %.17g at 1e-4 and 1e17, with their ulp neighbours
_SWITCH = [float(v) for x in (1e-4, 1e17) for v in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf))]
_TIES = _decimal_ties()
FORMAT_HARD_CASES = (
    [0.0, -0.0, 5e-324, -5e-324, _LARGEST, -_LARGEST, 9.9999999999999999e16]
    + _SWITCH + [-v for v in _SWITCH]
    + _TIES + [-v for v in _TIES]
    + [20.0, 970030.0, 0.5, 100.0, -100.0, 0.0001234, 1e16 - 2.0]
)


def test_format_hard_cases():
    assert len(_TIES) > 40
    for tie in _TIES:
        digits = str(Fraction(tie).numerator * 10 ** 40 // Fraction(tie).denominator).rstrip("0")
        assert len(digits) == 18 and digits.endswith("5"), tie
    values = np.array(FORMAT_HARD_CASES)
    assert serialize._csv("x", [values]) == _per_cell(FORMAT_HARD_CASES)


def test_kernel_writes_fixed_notation_itself():
    """The numpy kernel, not the format fallback, writes ordinary fixed-range
    values, and a tie or a value below 1e-4 is left to format."""
    values = np.array([20.0, 970030.0, 0.5, 0.0001234, -2.0 / 3.0, np.pi * 1e15, 5e-5, _TIES[0]])
    cells, ok = serialize._fixed_cells(values)
    assert ok.tolist() == [True] * 6 + [False, False]
    text = [row[row != 0].tobytes().decode() for row in cells[ok, :-1]]
    assert text == [format(v, ".17g") for v in values[ok].tolist()]


_ANY_FLOAT = st.floats(allow_subnormal=True)  # nan and inf included
_BIT_PATTERN = st.integers(0, 2 ** 64 - 1).map(_bits_to_float)
_FIXED_RANGE = st.floats(1e-4, 1e17) | st.floats(-1e17, -1e-4)


@settings(max_examples=500, deadline=None)
@given(st.lists(_ANY_FLOAT | _BIT_PATTERN | _FIXED_RANGE, min_size=1, max_size=40))
def test_kernel_matches_format(values):
    assert serialize._csv("x", [np.array(values)]) == _per_cell(values)


def test_kernel_takes_almost_every_solution_cell(root_cache):
    """At most 1% of the cells of a default-grid solution go to the format
    fallback, so the kernel, not format, writes the artifacts."""
    upper = max(root_cache(100.0, BoundaryKind.DIRICHLET).slopes())
    traj = integrate(ProblemSpec(lam=100.0, kind=BoundaryKind.DIRICHLET), upper)
    prof = reconstruct_phi(traj)
    for columns in ([traj.t, traj.u, traj.du], [prof.r, prof.w, prof.phi]):
        _, ok = serialize._fixed_cells(np.column_stack(columns).ravel())
        assert np.count_nonzero(~ok) <= 0.01 * len(ok)


# sha256 of trajectory.csv, profile.csv and validation.json from
# `solve --bc navier --lambda 9 --a -4.742307280271374 --grid 2001`; the CSVs
# were written by one %.17g format per block of rows, and validation.json
# holds the residuals of the 16001-sample re-integration
NAVIER_SOLVE_CSV_SHA256 = {
    "trajectory.csv": "40988b5cad6980f6804300b81fbd980045435999cb3fc0047698e80682083afd",
    "profile.csv": "0abb03573b036295ba98258724c0225c2297852652ee89e5221ccc22951f7b3f",
    "validation.json": "db935cff9f174518863904d811bf792b8d8840e9a1fc2d091448d830cec3a69b",
}


def test_solve_csv_bytes_are_pinned(tmp_path):
    argv = ["solve", "--bc", "navier", "--lambda", "9", "--a", "-4.742307280271374",
            "--grid", "2001", "--out", str(tmp_path)]
    assert main(argv) == 0
    for name, digest in NAVIER_SOLVE_CSV_SHA256.items():
        with open(os.path.join(tmp_path, name), "rb") as handle:
            assert hashlib.sha256(handle.read()).hexdigest() == digest, name


# sha256 of trajectory.csv, profile.csv and validation.json from
# `solve --lambda 0 --monotone` of either kind at the default grid: u, du and
# every residual are +0.0, so no "-0" reaches the CSVs
MONOTONE_LAM0_SHA256 = {
    "trajectory.csv": "c4a149d5e69d8c0b23681c6e388c2e251002c812b07d31fabe8867a0b0b65f2d",
    "profile.csv": "7c4a65a89ecd0e20388772dc4c9d119d38f39e9c1aa9c7c67f9e995aa5695c71",
    "validation.json": "b85386df0dab56ae39c0a0f36a5a4f5907dadc101e3ecce6dcf9d73468bf0a1e",
}


@pytest.mark.parametrize("kind", ["dirichlet", "navier"])
def test_monotone_solve_at_lam0_bytes_are_pinned(tmp_path, kind):
    argv = ["solve", "--bc", kind, "--lambda", "0", "--monotone", "--out", str(tmp_path)]
    assert main(argv) == 0
    for name, digest in MONOTONE_LAM0_SHA256.items():
        with open(os.path.join(tmp_path, name), "rb") as handle:
            assert hashlib.sha256(handle.read()).hexdigest() == digest, name


def test_trajectory_and_profile_json_match_list_form():
    """tolist() gives the text of list(ndarray): the same doubles, each
    written by float.__repr__."""
    traj = _traj()
    prof = reconstruct_phi(traj)
    dump = lambda payload: json.dumps(payload, indent=2, allow_nan=False) + "\n"
    want = dump({"t": list(traj.t), "u": list(traj.u), "du": list(traj.du)})
    assert serialize.trajectory_to_json(traj) == want
    want = dump({"r": list(prof.r), "w": list(prof.w), "phi": list(prof.phi)})
    assert serialize.profile_to_json(prof) == want


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
    points = sweep(BoundaryKind.NAVIER, [0.0, 5.0])
    text = serialize.diagram_to_csv(points)
    assert text.startswith("lambda,a,branch\n")
    lam, a = _columns(text, usecols=(0, 1))
    (branch,) = _columns(text, usecols=(2,), dtype=str)
    assert list(lam) == [p.lam for p in points]
    assert list(a) == [p.a for p in points]
    assert list(branch) == [p.branch.value for p in points]


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
