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


# rows per format operation in _csv: bounds the cell list and tuple it builds
_CSV_BLOCK_ROWS = 8192


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
    # one %-format per block of rows: "%.17g" gives the same text as _fmt
    row_fmt = ",".join(["%.17g"] * len(columns)) + "\n"
    table = np.column_stack(columns)
    parts = [header + "\n"]
    for start in range(0, len(table), _CSV_BLOCK_ROWS):
        rows = table[start:start + _CSV_BLOCK_ROWS]
        parts.append((row_fmt * len(rows)) % tuple(rows.ravel().tolist()))
    return "".join(parts)


def trajectory_to_csv(traj: Trajectory) -> str:
    return _csv("t,u,du", [traj.t, traj.u, traj.du])


def profile_to_csv(profile: RadialProfile) -> str:
    return _csv("r,w,phi", [profile.r, profile.w, profile.phi])


def validation_to_json(report: ValidationReport) -> str:
    return json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n"


def rootset_to_json(rs: RootSet) -> str:
    payload = {
        "lambda": rs.lam,
        "kind": rs.kind.value,
        "roots": [{"a": r.a} for r in rs.roots],
        "window": [rs.scan_window[0], rs.scan_window[1]],
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def diagram_to_csv(diagram: BifurcationDiagram) -> str:
    lines = ["lambda,a,branch"]
    for p in diagram.points:
        lines.append(f"{_fmt(p.lam)},{_fmt(p.a)},{p.branch.value}")
    return "\n".join(lines) + "\n"


def fold_to_json(kind: BoundaryKind, lo: float, hi: float, lam0: float, a_star: float) -> str:
    payload = {"lo": lo, "hi": hi, "kind": kind.value, "lam0": lam0, "a_star": a_star}
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def certificates_to_json(certs: list[Certificate]) -> str:
    return json.dumps([c.to_dict() for c in certs], indent=2, allow_nan=False) + "\n"


def trajectory_to_json(traj: Trajectory) -> str:
    payload = {"t": list(traj.t), "u": list(traj.u), "du": list(traj.du)}
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def profile_to_json(profile: RadialProfile) -> str:
    payload = {"r": list(profile.r), "w": list(profile.w), "phi": list(profile.phi)}
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def diagram_to_json(diagram: BifurcationDiagram) -> str:
    payload = [
        {"lambda": p.lam, "a": p.a, "branch": p.branch.value} for p in diagram.points
    ]
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"
