"""Profile serialization: CSV sample tables with derived curvature columns
and JSON metadata sidecars.  All numeric output is written with 17
significant digits so files round-trip losslessly and byte-identically."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ParameterError
from .profiles import ProfileSolution
from .speeds import SpeedSpec
from .verifier import profile_geometry

__all__ = [
    "PROFILE_COLUMNS",
    "speed_to_dict",
    "speed_from_dict",
    "profile_metadata",
    "write_profile_csv",
    "read_profile_csv",
    "fmt",
]

PROFILE_COLUMNS = ("r", "u", "du", "ddu", "lambda1", "lambda2", "gamma", "tilt", "residual")


def fmt(x: float) -> str:
    return format(float(x), ".17g")


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
    factors = tuple(speed_from_dict(f) for f in d.get("factors", []))
    return SpeedSpec(kind=d["kind"], n=int(d["n"]), k=d.get("k"), l=d.get("l"),
                     factors=factors, weights=tuple(d.get("weights", ())))


def derived_columns(profile: ProfileSolution) -> np.ndarray:
    """lambda1, lambda2, gamma, tilt, residual at every sample; gamma and the
    residual are NaN where the curvatures leave the speed's cone."""
    geo = profile_geometry(profile)
    return np.column_stack((geo.lam[:, 0], geo.lam[:, 1], geo.gamma, geo.tilt,
                            geo.gamma - geo.tilt))


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


def _sidecar_path(path: Path) -> Path:
    return path.with_suffix(".meta.json")


def write_profile_csv(path, profile: ProfileSolution) -> Path:
    """Write the sample table and its metadata sidecar; returns the sidecar
    path."""
    path = Path(path)
    extra = derived_columns(profile)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PROFILE_COLUMNS)
        for row, drv in zip(profile.samples, extra):
            writer.writerow([fmt(x) for x in (*row, *drv)])
    side = _sidecar_path(path)
    with open(side, "w") as fh:
        json.dump(profile_metadata(profile), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return side


def read_profile_csv(path, metadata: Optional[dict] = None) -> ProfileSolution:
    """Parse a profile CSV (plus sidecar metadata unless supplied inline);
    raises ParameterError naming the offending line on malformed input."""
    path = Path(path)
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header[:4]) != PROFILE_COLUMNS[:4]:
            raise ParameterError(f"{path}: line 1: expected header starting with r,u,du,ddu")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 4:
                raise ParameterError(f"{path}: line {lineno}: {len(row)} fields, expected r,u,du,ddu")
            try:
                rows.append([float(x) for x in row[:4]])
            except ValueError as exc:
                raise ParameterError(f"{path}: line {lineno}: {exc}") from None
    if not rows:
        raise ParameterError(f"{path}: no samples")
    if metadata is None:
        side = _sidecar_path(path)
        if not side.exists():
            raise ParameterError(f"metadata sidecar {side} not found")
        with open(side) as fh:
            metadata = json.load(fh)
    samples = np.asarray(rows)
    if np.any(np.diff(samples[:, 0]) <= 0.0):
        raise ParameterError(f"{path}: radii must be strictly increasing")
    return ProfileSolution(
        n=int(metadata["n"]),
        speed=speed_from_dict(metadata["speed"]),
        samples=samples,
        startup_slope=float(metadata["startup_slope"]),
        startup_radius=float(metadata["startup_radius"]),
        blowup_radius=(None if metadata.get("blowup_radius") is None
                       else float(metadata["blowup_radius"])),
        status=str(metadata["status"]),
        tolerances=dict(metadata.get("tolerances", {})),
    )
