"""CSV/JSON emitters for every result record, plus atomic writes.

CSV uses '.' decimals, ',' separators, LF line endings, and 17-significant-
digit floats, so a reload reproduces every double bit-for-bit.  A float's
text is exactly ``format(x, ".17g")``.  A solution's trajectory and profile
CSVs are written in one pass, a block of rows at a time: a numpy kernel
formats the block's five distinct columns once, u serving as both files' w
column, and each file's cells are gathered from them and streamed in binary
to a temp file.  The kernel scales a finite ``1e-4 <= |x| < 1e17`` to its 17
digits by an error-free product and spells it in 4-byte words from a table
of 4-digit groups; a value outside that range, or whose rounding is a near
tie or may change its decade, is formatted by ``format`` itself.  Every file
is written to a temp file and renamed, so partial artifacts never land on
disk.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import tempfile

import numpy as np

from .certificates import Certificate
from .continuation import DiagramPoint
from .integrator import ValidationReport
from .model import BoundaryKind, RadialProfile, Trajectory
from .shooting import RootSet


# rows per kernel call: bounds the kernel's temporaries, a few
# hundred bytes a cell (4096 rows raised the solve workload's peak RSS)
_CSV_BLOCK_ROWS = 2048

# A kernel cell is 7 uint32 words, 28 bytes: the sign and up to "0.0" (word
# 0), a fourth prefix char, a NUL and 2 digits (1), 16 digits in groups of 4
# (2-5) and the delimiter (6).  NULs are dropped from the text; a fallback's
# format, at most 24 chars ("-2.2250738585072014e-308"), fills words 0-5.
_CELL_WORDS = 7
# word table indices past its 10000 plain and 10000 stripped 4-digit groups
_PLUS, _MINUS, _COMMA, _NEWLINE = range(20000, 20004)
_POW10 = np.array([float(10 ** k) for k in range(21)])  # exact up to 10**22
# at E + 4: n modulo 10**(16 - max(E, -1)) is n's digits after the '.'
_FRACTION_UNIT = np.array([10 ** (16 - max(e, -1)) for e in range(-4, 17)], dtype=np.int64)
# at b + 13 for 2**(b - 1) <= x < 2**b, b in -13..57: x's decade E is
# _DECADE, or one more from _DECADE_END, the one power of 10 in that range
_DECADE = np.array([math.floor(math.log10(2.0 ** (b - 1))) for b in range(-13, 58)], np.int64)
_DECADE_END = np.array([float(f"1e{e + 1}") for e in _DECADE])


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
    b = np.frexp(a)[1] + np.int32(13)
    e = _DECADE[b] + (a >= _DECADE_END[b])
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


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """The kernel's word table and XOR rows, built on a process's first CSV.

    Words 0-9999 spell the 4-digit groups, 10000-19999 the same with trailing
    zeros as NUL.  Row 2 (E + 4) + f, f = 1 when x has a fraction, writes the
    "0.0" of E < 0, clears word 1's leading zeros but the fourth '0' of
    E = -4, turns the 0 at the '.' into '.' and, with no fraction, clears the
    zeros after the integer.  Words hold bytes in memory order on any host.
    """
    digits = np.arange(10000).reshape(-1, 1) // np.array([1000, 100, 10, 1]) % 10
    chars = (digits + ord("0")).astype(np.uint8)
    kept = np.logical_or.accumulate(digits[:, ::-1] != 0, axis=1)[:, ::-1]
    ends = np.frombuffer(b"\0\0\0\0-\0\0\0,\0\0\0\n\0\0\0", np.uint8).reshape(4, 4)
    words = np.concatenate([chars, chars * kept, ends]).view(np.uint32).ravel()
    rows = b""
    for e in range(-4, 17):
        start = b"\0" + b"0.0"[:max(-e, 0)].ljust(3, b"\0") + (b"\0" if e < -3 else b"0") + b"0"
        i = max(e + 1, 0)  # the digit that is '.' when x has a fraction
        dot = bytes([ord("0") ^ ord(".") if e >= -1 else 0])
        rows += start + bytes(i) + b"0" * (18 - i) + bytes(4) + start + bytes(i) + dot + bytes(21 - i)
    return words, np.frombuffer(rows, np.uint32).reshape(-1, _CELL_WORDS)


def _cells(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells of format(v, ".17g") for the float64 block, in its order
    and each with a ',', and the mask of those the kernel wrote; the
    others, where :func:`_scaled` is unsure, are written by format.

    The digits are those of n with '.' after digit E, less trailing zeros
    after the '.' and then a bare '.'; for E < 0, "0." and -E - 1 zeros, then
    n.  They are spelled from 18 digits: n's 17 with a 0 put in after digit
    E, where '.' goes, or for E < 0 a 0 and n, the 0 being '.' when E = -1.
    """
    x = block.ravel()
    n, e, ok = _scaled(x)
    fraction = n % _FRACTION_UNIT[e + 4]
    n += 9 * (n - fraction)
    idx = np.empty((len(x), _CELL_WORDS), np.int32)
    idx[:, 0] = _PLUS + (x < 0)
    idx[:, 1] = head = n // 10 ** 16
    n -= head * 10 ** 16
    # the last 16 digits as two 8-digit int32 halves, then four groups
    high = n // 10 ** 8
    halves = np.stack([high, n - high * 10 ** 8]).astype(np.int32)
    groups = halves // 10 ** 4
    halves -= groups * 10 ** 4
    # a group is stripped when x has a fraction and every later group is 0:
    # its trailing zeros are then the fraction's
    fraction = fraction != 0
    stripped = fraction.astype(np.int32) * 10 ** 4
    for col, group in zip((5, 4, 3, 2), (halves[1], groups[1], halves[0], groups[0])):
        np.add(group, stripped, out=idx[:, col])
        stripped *= group == 0
    idx[:, 6] = _COMMA
    words, flips = _tables()
    cells = np.take(words, idx, mode="clip")  # no index is out of range
    cells ^= np.take(flips, 2 * (e + 4) + fraction, axis=0)
    if not ok.all():
        rest = [_fmt(v) for v in x[~ok].tolist()]
        cells[~ok, :6] = np.array(rest, dtype="S24").view(np.uint32).reshape(len(rest), 6)
    return cells, ok


def _write_files(paths: list[str], chunks) -> None:
    """Stream chunks, each one bytes piece per path, to temp files beside the
    paths and rename them over the paths after the last chunk.  Any
    exception removes every temp file, so no partial artifact lands."""
    handles, temps = [], []
    try:
        for path in paths:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix="~")
            temps.append(tmp)
            handles.append(os.fdopen(fd, "wb"))
        for pieces in chunks:
            for handle, piece in zip(handles, pieces):
                handle.write(piece)
        for handle, tmp, path in zip(handles, temps, paths):
            handle.close()
            os.replace(tmp, path)
    except BaseException:
        for handle in handles:
            with contextlib.suppress(OSError):  # a failed flush must not keep the temps
                handle.close()
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file in the same directory + rename."""
    _write_files([path], [[text.encode("utf-8")]])


def _blocks(columns: list[np.ndarray], files: list[tuple[int, ...]], headers: list[bytes]):
    """The headers, then per block of rows the text of each file, whose
    columns are indices into columns, from one kernel call on the block."""
    yield headers
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        # a call, so that no block's arrays stay alive in this frame across the yield
        yield _texts([c[start:start + _CSV_BLOCK_ROWS] for c in columns], files)


def _texts(columns: list[np.ndarray], files: list[tuple[int, ...]]) -> list[bytes]:
    cells = _cells(np.column_stack(columns))[0].reshape(-1, len(columns), _CELL_WORDS)
    texts = []
    for file in files:
        gathered = np.take(cells, file, axis=1)
        gathered[:, -1, 6] = _tables()[0][_NEWLINE]
        texts.append(gathered.tobytes().translate(None, b"\0"))
    return texts


def solution_to_csv(traj_path: str, profile_path: str, traj: Trajectory,
                    profile: RadialProfile) -> None:
    """Write trajectory.csv (t, u, du) and profile.csv (r, w, phi) of one
    solution in one pass.  w is u, so the kernel formats it once."""
    if profile.w is not traj.u:
        raise ValueError("profile.w must be traj.u, as reconstruct_phi gives it")
    columns = [traj.t, traj.u, traj.du, profile.r, profile.phi]
    chunks = _blocks(columns, [(0, 1, 2), (3, 1, 4)], [b"t,u,du\n", b"r,w,phi\n"])
    _write_files([traj_path, profile_path], chunks)


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
