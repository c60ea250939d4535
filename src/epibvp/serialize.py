"""CSV/JSON emitters for every result record, plus atomic writes.

CSV uses '.' decimals, ',' separators, LF line endings, and 17-significant-
digit floats, so a reload reproduces every double bit-for-bit.  A float's
text is exactly ``format(x, ".17g")``.  Trajectory and profile columns are
formatted a block of rows at a time by a numpy kernel: a finite
``1e-4 <= |x| < 1e17`` is scaled to its 17 significant digits by an
error-free product and spelled from a digit-pair table; a value outside
that range, or whose rounding is a near tie or may change its decade, is
formatted by ``format`` itself.  All writers go through an atomic
temp-file-plus-rename so partial artifacts never land on disk.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .certificates import Certificate
from .continuation import DiagramPoint
from .integrator import ValidationReport
from .model import BoundaryKind, RadialProfile, Trajectory
from .shooting import RootSet


# rows per kernel call in _csv: bounds the kernel's temporaries, a few
# hundred bytes a cell (4096 rows raised the solve workload's peak RSS)
_CSV_BLOCK_ROWS = 2048

# One cell of the kernel's (cells, _CELL) uint8 matrix: the sign, "0.00"
# at columns 1-4 (as much of it as E < 0 needs), 18 digit chars at 5-22,
# NUL padding and, last, the delimiter.  NUL bytes are dropped from the
# text; format(x, ".17g") is at most 24 chars ("-2.2250738585072014e-308").
_CELL = 25

# The tables are built from bytes and Python numbers: numpy ufuncs at import
# would cost every command a few hundred KB of RSS.
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint8).reshape(100, 2)
# each pair moved as one 2-byte unit, so its bytes keep their order on any host
_PAIR_UNITS = np.frombuffer(_PAIRS, np.uint16)
_PAIR_RANK = np.arange(1, 10, dtype=np.uint8).reshape(9, 1)
# row k keeps the first k of 18 chars
_TAIL = np.frombuffer(b"".join(b"\xff" * k + bytes(18 - k) for k in range(19)), np.uint8).reshape(19, 18)
_POW10 = np.array([float(10 ** k) for k in range(21)])  # exact up to 10**22
_IPOW10 = np.array([10 ** k for k in range(19)], dtype=np.int64)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _split(v):
    """Dekker's split of v (floats or an array) into two halves of at most
    26 significant bits."""
    high = 134217729.0 * v  # 2**27 + 1
    high -= high - v
    return high, v - high


_POW10_HIGH, _POW10_LOW = np.array([_split(float(10 ** k)) for k in range(21)]).T


def _scaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each x as n = round(|x| * 10**(16 - E)), 17 digits, and its decimal
    exponent E, with the mask of the x for which both are sure.

    Sure means a finite 1e-4 <= |x| < 1e17, where %.17g writes fixed
    notation, whose rounding to n is no near tie and leaves n away from
    1e16 and 1e17, where E could be one off.
    """
    a = np.abs(x)
    ok = (a >= 1e-4) & (a < 1e17)
    a = np.where(ok, a, 1.0)
    e = np.clip(np.floor(np.log10(a)).astype(np.int64), -4, 16)
    hi = a * _POW10[16 - e]
    e += (hi >= 1e17).astype(np.int64) - (hi < 1e16)
    np.clip(e, -4, 16, out=e)
    # Dekker's product: hi + lo == a * 10**(16 - E) exactly, and hi is an
    # integer, as it exceeds 2**53
    k = 16 - e
    hi = a * _POW10[k]
    ah, al = _split(a)
    ph, pl = _POW10_HIGH[k], _POW10_LOW[k]
    lo = ah * ph
    lo -= hi
    lo += ah * pl
    lo += al * ph
    lo += al * pl
    r = np.rint(lo)
    ok &= (np.abs(lo - r) < 0.5 - 1e-6) & (hi >= 1e16 + 64) & (hi <= 1e17 - 64)
    n = np.where(ok, hi.astype(np.int64) + r.astype(np.int64), 10 ** 16)
    return n, e, ok


def _fixed_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells of format(v, ".17g") for the float64 array x, and the mask
    of those written; the others, where :func:`_scaled` is unsure, hold junk.

    The digits are those of n with '.' after digit E, less trailing zeros
    after the '.' and then a bare '.'.  For E < 0 they are "0." and -E - 1
    zeros, then n.
    """
    m = len(x)
    n, e, ok = _scaled(x)
    # 18 digits: n's 17 with a 0 put in after digit E, where '.' goes; for
    # E < 0, n with a leading 0: the '.' when E == -1, else the last zero
    n = 10 * n - 9 * (n % _IPOW10[16 - np.maximum(e, -1)])
    # its 9 digit pairs; the last 8 come from two 8-digit int32 halves
    pairs = np.empty((9, m), np.int64)
    pairs[0] = n // 10 ** 16
    halves = np.empty((2, m), np.int32)
    halves[0] = n // 10 ** 8 % 10 ** 8
    halves[1] = n % 10 ** 8
    for k, scale in enumerate((10 ** 6, 10 ** 4, 10 ** 2), 1):
        pair = halves // scale
        pairs[k::4] = pair
        halves -= pair * scale
    pairs[4::4] = halves
    digits = np.empty((m, 18), np.uint8)
    digits.view(np.uint16)[...] = np.take(_PAIR_UNITS, pairs).T
    # keep the digits up to the last nonzero one, and all those before '.'
    rank = np.max((pairs != 0) * _PAIR_RANK, axis=0).astype(np.intp)
    last = np.take(pairs, (rank - 1) * m + np.arange(m))
    kept = np.maximum(2 * rank - (last % 10 == 0), e + 1)
    del pairs  # the largest temporary, freed before the cells are built
    digits &= np.take(_TAIL, kept, axis=0)
    dot = np.flatnonzero((e >= -1) & (kept > e + 1))
    digits.reshape(-1)[dot * 18 + 1 + e[dot]] = ord(".")

    cells = np.zeros((m, _CELL), np.uint8)
    cells[:, 0] = np.where(x < 0, ord("-"), 0)
    for col, (char, below) in enumerate(zip(b"0.00", (0, -1, -2, -3)), 1):
        cells[:, col] = np.where(e < below, char, 0)
    cells[:, 5:23] = digits
    return cells, ok


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
    # one growing bytearray and a table per block, rather than block strings
    # joined at the end and a copy of all the columns: in the solve workload
    # those raised the peak RSS by about 3 MB
    text = bytearray((header + "\n").encode("ascii"))
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        block = np.column_stack([c[start:start + _CSV_BLOCK_ROWS] for c in columns])
        values = block.ravel()
        cells, ok = _fixed_cells(values)
        rest = [_fmt(x) for x in values[~ok].tolist()]
        spelled = np.array(rest, dtype=f"S{_CELL - 1}").view(np.uint8)
        cells[~ok, :-1] = spelled.reshape(len(rest), _CELL - 1)
        cells = cells.reshape(*block.shape, _CELL)
        cells[:, :, -1] = ord(",")
        cells[:, -1, -1] = ord("\n")
        text += cells[cells != 0].data
    return text.decode("ascii")


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


def diagram_to_csv(points: list[DiagramPoint]) -> str:
    lines = ["lambda,a,branch"]
    for p in points:
        lines.append(f"{_fmt(p.lam)},{_fmt(p.a)},{p.branch.value}")
    return "\n".join(lines) + "\n"


def fold_to_json(kind: BoundaryKind, lo: float, hi: float, lam0: float, a_star: float) -> str:
    payload = {"lo": lo, "hi": hi, "kind": kind.value, "lam0": lam0, "a_star": a_star}
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def certificates_to_json(certs: list[Certificate]) -> str:
    return json.dumps([c.to_dict() for c in certs], indent=2, allow_nan=False) + "\n"


def trajectory_to_json(traj: Trajectory) -> str:
    payload = {"t": traj.t.tolist(), "u": traj.u.tolist(), "du": traj.du.tolist()}
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def profile_to_json(profile: RadialProfile) -> str:
    payload = {"r": profile.r.tolist(), "w": profile.w.tolist(), "phi": profile.phi.tolist()}
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def diagram_to_json(points: list[DiagramPoint]) -> str:
    payload = [{"lambda": p.lam, "a": p.a, "branch": p.branch.value} for p in points]
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"
