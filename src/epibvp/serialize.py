"""CSV/JSON emitters and parsers for every result record, plus atomic writes.

CSV uses '.' decimals, ',' separators, LF line endings, and 17-significant-
digit floats, so a reload reproduces every double bit-for-bit.  All writers
go through an atomic temp-file-plus-rename so partial artifacts never land
on disk.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .certificates import Certificate, CertificateKind, Verdict
from .continuation import BifurcationDiagram, Branch, DiagramPoint
from .integrator import ValidationReport
from .model import BoundaryKind, RadialProfile, Trajectory
from .shooting import RootSet, ShootingRoot


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file in the same directory + rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header: str, columns: list[np.ndarray]) -> str:
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def trajectory_to_csv(traj: Trajectory) -> str:
    return _csv("t,u,du", [traj.t, traj.u, traj.du])


def trajectory_samples_from_csv(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse a trajectory CSV back into (t, u, du) arrays."""
    lines = [ln for ln in text.strip().split("\n") if ln]
    if lines[0] != "t,u,du":
        raise ValueError(f"unexpected trajectory header: {lines[0]!r}")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return data[:, 0], data[:, 1], data[:, 2]


def profile_to_csv(profile: RadialProfile) -> str:
    return _csv("r,w,phi", [profile.r, profile.w, profile.phi])


def profile_from_csv(text: str) -> RadialProfile:
    lines = [ln for ln in text.strip().split("\n") if ln]
    if lines[0] != "r,w,phi":
        raise ValueError(f"unexpected profile header: {lines[0]!r}")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return RadialProfile(r=data[:, 0], w=data[:, 1], phi=data[:, 2])


def validation_to_json(report: ValidationReport) -> str:
    return json.dumps(report.to_dict(), indent=2) + "\n"


def validation_from_json(text: str) -> ValidationReport:
    d = json.loads(text)
    return ValidationReport(
        first_integral_resid=d["first_integral_resid"],
        representation_resid=d["representation_resid"],
        sign_violation=d["sign_violation"],
        boundary_resid=d["boundary_resid"],
    )


def rootset_to_json(rs: RootSet) -> str:
    payload = {
        "lambda": rs.lam,
        "kind": rs.kind.value,
        "roots": [{"a": r.a} for r in rs.roots],
        "window": [rs.scan_window[0], rs.scan_window[1]],
    }
    return json.dumps(payload, indent=2) + "\n"


def rootset_from_json(text: str) -> RootSet:
    d = json.loads(text)
    return RootSet(
        lam=d["lambda"],
        kind=BoundaryKind(d["kind"]),
        roots=[ShootingRoot(a=r["a"]) for r in d["roots"]],
        scan_window=(d["window"][0], d["window"][1]),
    )


def diagram_to_csv(diagram: BifurcationDiagram) -> str:
    lines = ["lambda,a,branch"]
    for p in diagram.points:
        lines.append(f"{_fmt(p.lam)},{_fmt(p.a)},{p.branch.value}")
    return "\n".join(lines) + "\n"


def diagram_from_csv(text: str, kind: BoundaryKind) -> BifurcationDiagram:
    lines = [ln for ln in text.strip().split("\n") if ln]
    if lines[0] != "lambda,a,branch":
        raise ValueError(f"unexpected diagram header: {lines[0]!r}")
    points = []
    for ln in lines[1:]:
        lam_s, a_s, branch_s = ln.split(",")
        points.append(DiagramPoint(lam=float(lam_s), a=float(a_s), branch=Branch(branch_s)))
    return BifurcationDiagram(kind=kind, points=points)


def fold_to_json(kind: BoundaryKind, lo: float, hi: float) -> str:
    return json.dumps({"lo": lo, "hi": hi, "kind": kind.value}, indent=2) + "\n"


def fold_from_json(text: str) -> tuple[BoundaryKind, float, float]:
    d = json.loads(text)
    return BoundaryKind(d["kind"]), d["lo"], d["hi"]


def certificates_to_json(certs: list[Certificate]) -> str:
    return json.dumps([c.to_dict() for c in certs], indent=2) + "\n"


def certificates_from_json(text: str) -> list[Certificate]:
    out = []
    for d in json.loads(text):
        out.append(
            Certificate(
                kind=CertificateKind(d["kind"]),
                lam=d["lambda"],
                verdict=Verdict(d["verdict"]),
                witness=d["witness"],
            )
        )
    return out


def trajectory_to_json(traj: Trajectory) -> str:
    payload = {"t": list(traj.t), "u": list(traj.u), "du": list(traj.du)}
    return json.dumps(payload, indent=2) + "\n"


def profile_to_json(profile: RadialProfile) -> str:
    payload = {"r": list(profile.r), "w": list(profile.w), "phi": list(profile.phi)}
    return json.dumps(payload, indent=2) + "\n"


def diagram_to_json(diagram: BifurcationDiagram) -> str:
    payload = [
        {"lambda": p.lam, "a": p.a, "branch": p.branch.value} for p in diagram.points
    ]
    return json.dumps(payload, indent=2) + "\n"
