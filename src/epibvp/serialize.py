"""CSV/JSON emitters for every result record, plus atomic writes.

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

from .certificates import Certificate
from .continuation import BifurcationDiagram
from .integrator import ValidationReport
from .model import BoundaryKind, RadialProfile, Trajectory
from .shooting import RootSet


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


def profile_to_csv(profile: RadialProfile) -> str:
    return _csv("r,w,phi", [profile.r, profile.w, profile.phi])


def validation_to_json(report: ValidationReport) -> str:
    return json.dumps(report.to_dict(), indent=2) + "\n"


def rootset_to_json(rs: RootSet) -> str:
    payload = {
        "lambda": rs.lam,
        "kind": rs.kind.value,
        "roots": [{"a": r.a} for r in rs.roots],
        "window": [rs.scan_window[0], rs.scan_window[1]],
    }
    return json.dumps(payload, indent=2) + "\n"


def diagram_to_csv(diagram: BifurcationDiagram) -> str:
    lines = ["lambda,a,branch"]
    for p in diagram.points:
        lines.append(f"{_fmt(p.lam)},{_fmt(p.a)},{p.branch.value}")
    return "\n".join(lines) + "\n"


def fold_to_json(kind: BoundaryKind, lo: float, hi: float) -> str:
    return json.dumps({"lo": lo, "hi": hi, "kind": kind.value}, indent=2) + "\n"


def certificates_to_json(certs: list[Certificate]) -> str:
    return json.dumps([c.to_dict() for c in certs], indent=2) + "\n"


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
