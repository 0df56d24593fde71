"""Serialization: the two artifact writers (``write_json`` and
``write_table``), profile CSVs with derived curvature columns and their JSON
metadata sidecars.  Table values are written as ``"%.17g" % v`` writes them, 17
significant digits, so files round-trip losslessly and byte-identically.
``_write`` writes every artifact, ``plot``'s SVG too, in place: no ``O_TRUNC``,
whose cut to zero makes ext4, XFS and btrfs flush the file at close, and no
fsync, so after a power loss a rewritten file may hold old bytes.

``read_profile_csv`` reads a CSV's bytes once per call and parses them with
``np.loadtxt``; the last table that passed every check is kept, keyed by its
path and bytes, so reading the same table again only checks its sidecar.

``write_table`` formats in batches of about 2,048 cells.  ``%.17g`` prints a
finite cell with ``1e-4 <= |v| < 1e16`` in fixed notation, and ``10**(16 - e)``
is an exact double, so Dekker's two-product gives ``hi + lo == |v| * 10**(16 -
e)``.  Where ``hi`` lies strictly inside ``(1e16, 1e17)``, ``hi + rint(lo)`` is
the correctly rounded 17-digit significand.  Its digits go twice into a
candidate row, and a row of a bool table, picked by the cell's exponent, sign
and digit count, marks the bytes ``%.17g`` prints; one boolean compress per
batch keeps them.  Every other cell, one at a decade's edge too, is ``"%.17g" %
v`` itself, written into its row with its nonzero bytes as its mask."""

from __future__ import annotations

import csv
import functools
import json
import os
import sys
import warnings
from io import StringIO
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .profiles import ProfileSolution
from .rotgeom import profile_geometry
from .speeds import SpeedSpec

__all__ = [
    "PROFILE_COLUMNS",
    "write_json",
    "write_table",
    "speed_to_dict",
    "speed_from_dict",
    "profile_metadata",
    "write_profile_csv",
    "read_profile_csv",
]

PROFILE_COLUMNS = ("r", "u", "du", "ddu", "lambda1", "lambda2", "gamma", "tilt", "residual")


def _write(path, data: bytes) -> None:
    if path is None:                       # as text: a swapped-in stdout may lack .buffer
        sys.stdout.write(data.decode())
        return
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if os.path.isfile(fd):             # a regular file: not /dev/null, a tty or a FIFO
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def write_json(path, payload) -> None:
    """``payload`` as JSON with sorted keys, indent 2 and a final newline,
    to ``path`` or, when it is None, to stdout."""
    _write(path, (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode())


# -- the batched %.17g kernel -------------------------------------------------

_CHUNK = 2048   # cells per batch; bounds the kernel's temporaries
_CELL = 43      # bytes per candidate row: sign, "0.000", 17 digits, "0.", the 17 digits, separator
_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])  # 10**0 .. 10**22, all exact doubles
# _DIGITS4[g]: the four ASCII digits of 0 <= g < 10000, as one uint32
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4,
                                indexing="ij"), axis=-1).reshape(-1, 4).view(np.uint32).ravel()
# the candidate rows of a middle and of a last cell, before the digits go in
_TEMPLATES = np.frombuffer(b"-0.000" + b"0" * 17 + b"0." + b"0" * 17 + b","
                           b"-0.000" + b"0" * 17 + b"0." + b"0" * 17 + b"\n",
                           np.uint8).reshape(2, _CELL)
# _KEPT[g]: the digits of the four-digit group g up to its last nonzero one; -16 for
# g = 0, so that a zero group never counts below
_KEPT = np.full(10000, 4)
_KEPT[::10] = 3
_KEPT[::100] = 2
_KEPT[::1000] = 1
_KEPT[0] = -16
_GROUP_START = np.array([[1], [5], [9], [13]])   # the significand's digits before groups 1..4


def _masks() -> np.ndarray:
    """Row ``((e + 4) * 2 + negative) * 17 + kept - 1`` marks the bytes of a
    candidate row that ``%.17g`` prints for a cell with decimal exponent
    ``-4 <= e <= 15``: the sign where ``negative``; for ``e >= 0`` the
    ``e + 1`` whole digits from the first copy of the digits (bytes 6..22),
    then, where ``kept > e + 1``, the point (24) and the rest from the second
    copy (25..41); for ``e = -1`` ``"0."`` (23, 24) and ``kept`` digits from
    the second copy; for ``e < -1`` ``"0."``, ``-e - 1`` zeros and ``kept``
    digits from the first copy; and the separator.  ``kept`` counts the
    significand's digits up to its last nonzero one.  A row's bytes are
    copied in runs, and ``0.1 <= |v| < 1`` takes one run for ``"0."`` and its
    digits."""
    e = np.arange(-4, 16)[:, None, None, None]
    negative = np.array([False, True])[:, None, None]
    kept = np.arange(1, 18)[:, None]
    j = np.arange(_CELL)
    whole, small = e >= 0, e < -1
    first = (whole | small) & (j >= 6) & (j - 6 <= np.where(whole, e, kept - 1))
    second = ~small & (((j == 23) & (e == -1)) | ((j == 24) & (kept > e + 1))
                       | ((j - 25 > e) & (j - 25 < kept)))
    lead = small & (j >= 1) & (j <= 5) & ((j <= 2) | (j >= 7 + e))   # "0." and zeros
    return ((j == 0) & negative | first | second | lead | (j == _CELL - 1)).reshape(-1, _CELL)


_MASKS = _masks()


def _split(a):
    """Veltkamp's split: ``hi + lo == a`` with ``hi`` of 26 significant bits."""
    c = 134217729.0 * a                           # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _times_pow10(a, k):
    """``hi + lo == a * 10**k`` exactly (Dekker's two-product)."""
    hi = a * _POW10[k]
    a_hi, a_lo = _split(a)
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    return hi, ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo


def _fixed_cells(v, last):
    """Cells ``v`` as candidate rows of ``_CELL`` bytes (a newline separator
    where ``last`` is 1, else a comma), the masks of their ``%.17g`` bytes and
    the mask of the exact rows, those with ``1e-4 <= |v| < 1e16`` and ``hi``
    strictly inside ``(1e16, 1e17)``; the other rows hold junk."""
    a = np.abs(v)
    fixed = (a >= 1e-4) & (a < 1e16)              # False for NaN
    a = np.where(fixed, a, 1.0)                   # a finite log10 for the junk rows
    # log10 may be one off next to a power of ten, and then hi leaves the
    # decade; e is capped at _MASKS's 15, as log10(9999999999999998) is 16
    e = np.minimum(np.floor(np.log10(a)).astype(np.intp), 15)
    hi, lo = _times_pow10(a, 16 - e)
    # Strictly inside (1e16, 1e17) hi is an even integer (>= 2**53) and
    # hi + lo rounds into the decade, so rounding lo rounds it half to even.
    exact = fixed & (hi > 1e16) & (hi < 1e17)
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    groups = np.empty((5, v.size), np.intp)       # four-digit groups, high to low
    for k in range(4, 0, -1):
        q = d // 10000
        groups[k] = d - q * 10000
        d = q
    groups[0] = d
    digits = np.take(_DIGITS4, groups.T).view(np.uint8)[:, 3:]   # 17 digits a row
    rows = np.take(_TEMPLATES, last, axis=0)
    rows[:, 6:23] = digits
    rows[:, 25:42] = digits
    # group 0, the first digit, is nonzero in an exact row, so kept is at least 1
    kept = np.maximum(np.max(np.take(_KEPT, groups[1:]) + _GROUP_START, axis=0), 1)
    return rows, np.take(_MASKS, ((e + 4) * 2 + (v < 0.0)) * 17 + kept - 1, axis=0), exact


def _other_cells(v, last):
    """Any cells ``v`` as rows of ``_CELL`` bytes: the ``"%.17g" % v`` string
    and its separator (a newline where ``last`` is 1, else a comma),
    formatted one by one, then zero bytes."""
    return np.frombuffer("".join(
        ("%.17g" % x + ("\n" if end else ",")).ljust(_CELL, "\0")
        for x, end in zip(v.tolist(), last.tolist())).encode(), np.uint8).reshape(-1, _CELL)


def write_table(path, header, columns) -> None:
    """Equal-length ``columns`` as comma-separated rows of ``%.17g`` values
    under a ``header`` row, to ``path`` or, when it is None, to stdout.  A
    cell with ``1e-4 <= |v| < 1e16`` whose high part of ``|v| * 10**(16 - e)``
    lies strictly inside ``(1e16, 1e17)`` is built in batches from that exact
    significand in the fixed notation ``%.17g`` prints there; every other cell
    is ``"%.17g" % v``.  So every cell's bytes are those of ``"%.17g" % v``."""
    table = np.column_stack(columns).astype(np.float64, copy=False)
    if table.shape[1] != len(header):
        raise ValueError(f"{table.shape[1]} columns under {len(header)} header names")
    cells = table.ravel()
    step = max(1, _CHUNK // len(header)) * len(header)   # every batch starts a row
    last = (np.arange(step) % len(header) == len(header) - 1).astype(np.intp)
    pieces = []
    for start in range(0, cells.size, step):
        v = cells[start:start + step]
        rows, mask, exact = _fixed_cells(v, last[:v.size])
        other = np.flatnonzero(~exact)
        if other.size:
            formatted = _other_cells(v[other], last[other])
            rows[other] = formatted
            mask[other] = formatted != 0
        pieces.append(rows[mask].tobytes())
    _write(path, b"".join([(",".join(header) + "\n").encode(), *pieces]))


def speed_to_dict(spec: SpeedSpec) -> dict:
    d = {"kind": spec.kind, "n": spec.n}
    if spec.k is not None:
        d["k"] = spec.k
    if spec.l is not None:
        d["l"] = spec.l
    if spec.factors:
        d["factors"] = [speed_to_dict(f) for f in spec.factors]
        d["weights"] = list(spec.weights)
    return d


def speed_from_dict(d: dict) -> SpeedSpec:
    if not isinstance(d, dict):
        raise ParameterError(f"speed: expected a JSON object, got {d!r}")
    factors = tuple(speed_from_dict(f) for f in d.get("factors", []))
    return SpeedSpec(kind=d["kind"], n=d["n"], k=d.get("k"), l=d.get("l"),
                     factors=factors, weights=tuple(d.get("weights", ())))


def derived_columns(profile: ProfileSolution) -> np.ndarray:
    """lambda1, lambda2, gamma, tilt, residual at every sample; gamma and the
    residual are NaN where the curvatures leave the speed's cone."""
    geo = profile_geometry(profile)
    return np.column_stack((geo.lam[:, 0], geo.lam[:, 1], geo.gamma, geo.tilt, geo.residual))


def profile_metadata(profile: ProfileSolution) -> dict:
    return {
        "n": profile.n,
        "speed": speed_to_dict(profile.speed),
        "k": profile.speed.k,
        "startup_slope": profile.startup_slope,
        "startup_radius": profile.startup_radius,
        "blowup_radius": profile.blowup_radius,
        "status": profile.status,
        "tolerances": profile.tolerances,
    }


def write_profile_csv(path, profile: ProfileSolution) -> None:
    """Write the sample table and, beside it, its ``.meta.json`` metadata sidecar."""
    write_table(path, PROFILE_COLUMNS, (*profile.samples.T, *derived_columns(profile).T))
    write_json(Path(path).with_suffix(".meta.json"), profile_metadata(profile))


@functools.lru_cache(maxsize=1)
def _read_samples(path: Path, data: bytes) -> np.ndarray:
    """The r, u, du, ddu columns of the profile CSV ``path`` whose bytes are
    ``data``.  ``np.loadtxt`` parses a well-formed table; on any fault the
    line-numbered loop parses the same text again to name the first bad line.
    The last table that passed every check is kept, keyed by its path and
    bytes; the caller copies what it returns."""
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        # a newline byte never lies inside a UTF-8 sequence, so this is the line
        # whose own decoding fails first
        line, byte = data.count(b"\n", 0, exc.start) + 1, data[exc.start]
        raise ParameterError(f"{path}: line {line}: byte {byte:#04x} is not UTF-8") from None
    # the lines open(path, newline="") yields; csv and np.loadtxt read them
    # alike without their "\n" when no line holds a quote or a "\r"
    plain = "\r" not in text and '"' not in text
    lines = iter(text.split("\n") if plain else StringIO(text, newline=""))
    header = next(csv.reader(lines), None)
    if header is None or tuple(header[:4]) != PROFILE_COLUMNS[:4]:
        raise ParameterError(f"{path}: line 1: expected header starting with r,u,du,ddu")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # loadtxt warns, not raises, on no rows
            samples = np.loadtxt(lines, delimiter=",", usecols=(0, 1, 2, 3), ndmin=2,
                                 comments=None)
        if np.isfinite(samples).all() and np.all(np.diff(samples[:, 0]) > 0.0):
            return samples
    except (ValueError, UserWarning):
        pass
    rows, linenos = [], []
    reader = csv.reader(StringIO(text, newline=""))
    next(reader)
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) < 4:
            raise ParameterError(f"{path}: line {lineno}: {len(row)} fields, expected r,u,du,ddu")
        try:
            rows.append([float(x) for x in row[:4]])
        except ValueError as exc:
            raise ParameterError(f"{path}: line {lineno}: {exc}") from None
        linenos.append(lineno)
    if not rows:
        raise ParameterError(f"{path}: no samples")
    samples = np.asarray(rows)
    if not np.isfinite(samples).all():
        i, j = np.argwhere(~np.isfinite(samples))[0]
        raise ParameterError(f"{path}: line {linenos[i]}: {PROFILE_COLUMNS[j]} is not finite")
    down = np.flatnonzero(np.diff(samples[:, 0]) <= 0.0)
    if down.size:
        raise ParameterError(f"{path}: line {linenos[down[0] + 1]}: radii must be strictly increasing")
    return samples


def read_profile_csv(path) -> ProfileSolution:
    """Parse a profile CSV and its metadata sidecar, building the profile from
    the sidecar's speed, status and tolerances.  Raises ParameterError naming
    the line of a malformed or non-finite value, of a radius that does not
    increase or of a byte that is not UTF-8, and naming the sidecar when it is
    not UTF-8 JSON or lacks or differs in a key of ``profile_metadata``.  The
    CSV is read once per call, and a table whose path and bytes equal the last
    accepted table's is not parsed again; the sidecar is read on every call."""
    path = Path(path)
    samples = _read_samples(path, path.read_bytes()).copy()
    side = path.with_suffix(".meta.json")
    if not side.exists():
        raise ParameterError(f"metadata sidecar {side} not found")
    with open(side, encoding="utf-8") as fh:
        try:
            metadata = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParameterError(f"metadata sidecar {side}: {exc}") from None
    try:
        if not isinstance(metadata, dict):
            raise ParameterError("expected a JSON object")
        profile = ProfileSolution(speed=speed_from_dict(metadata["speed"]), samples=samples,
                                  status=str(metadata["status"]),
                                  tolerances=dict(metadata["tolerances"]))
        for key, value in profile_metadata(profile).items():
            if metadata[key] != value:
                raise ParameterError(f"{key} = {json.dumps(metadata[key])} differs from "
                                     f"the profile's {json.dumps(value)}")
        return profile
    except KeyError as exc:
        raise ParameterError(f"metadata sidecar {side}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"metadata sidecar {side}: {exc}") from None
