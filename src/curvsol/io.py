"""Serialization: the two artifact writers (``write_json`` and
``write_table``), profile CSVs with derived curvature columns and their JSON
metadata sidecars.  Table values are written with 17 significant digits so
files round-trip losslessly and byte-identically."""

from __future__ import annotations

import csv
import json
import sys
import warnings
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


def _write(path, text: str) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def write_json(path, payload) -> None:
    """``payload`` as JSON with sorted keys, indent 2 and a final newline,
    to ``path`` or, when it is None, to stdout."""
    _write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_table(path, header, columns) -> None:
    """Equal-length ``columns`` as comma-separated rows of ``%.17g`` values
    under a ``header`` row, to ``path`` or, when it is None, to stdout."""
    row = ",".join(["%.17g"] * len(header)) + "\n"
    _write(path, ",".join(header) + "\n"
           + "".join(row % tuple(r) for r in np.column_stack(columns).tolist()))


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


def write_profile_csv(path, profile: ProfileSolution) -> Path:
    """Write the sample table and its metadata sidecar; returns the sidecar
    path."""
    path = Path(path)
    write_table(path, PROFILE_COLUMNS, (*profile.samples.T, *derived_columns(profile).T))
    side = path.with_suffix(".meta.json")
    write_json(side, profile_metadata(profile))
    return side


def _read_samples(path: Path) -> np.ndarray:
    """The r, u, du, ddu columns of a profile CSV.  ``np.loadtxt`` parses a
    well-formed table; on any fault the line-numbered loop re-reads the file
    to name the first bad line."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None or tuple(header[:4]) != PROFILE_COLUMNS[:4]:
            raise ParameterError(f"{path}: line 1: expected header starting with r,u,du,ddu")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")   # loadtxt warns, not raises, on no rows
                samples = np.loadtxt(fh, delimiter=",", usecols=(0, 1, 2, 3), ndmin=2,
                                     comments=None)
            if np.isfinite(samples).all() and np.all(np.diff(samples[:, 0]) > 0.0):
                return samples
        except (ValueError, UserWarning):
            pass
    rows, linenos = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
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
    the line of a malformed or non-finite value or of a radius that does not
    increase, and naming the sidecar when it is not JSON or lacks or differs in
    a key of ``profile_metadata``."""
    path = Path(path)
    samples = _read_samples(path)
    side = path.with_suffix(".meta.json")
    if not side.exists():
        raise ParameterError(f"metadata sidecar {side} not found")
    with open(side) as fh:
        try:
            metadata = json.load(fh)
        except json.JSONDecodeError as exc:
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
