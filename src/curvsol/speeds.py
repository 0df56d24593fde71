"""Curvature speed functions and their derivatives in the principal curvatures.

A speed is a symmetric, 1-homogeneous, monotone, concave function of the
principal curvature vector, positive on an open symmetric convex cone.  The
catalog here covers the k-th roots of the elementary symmetric polynomials,
the inverse of the sum of reciprocal pairwise curvature sums ("harmonic
pairs"), quotients of elementary symmetric polynomials, and weighted
geometric means of the above.

One array kernel works on (m, n) arrays of curvature rows and answers in
arrays; ``eval_speed``, kept for the benchmark, is its only one-row call.
A call sorts each row once, so permuting its entries returns bit-identical
results, and runs one S_k recurrence for its cone test, value and derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from numbers import Integral
from typing import Optional

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "SpeedSpec",
    "sigma_k_root",
    "harmonic_pairs",
    "quotient",
    "product",
    "sigma_partials",
    "eval_speed",
    "speed_values",
    "speed_derivatives",
    "support_margins",
    "support_mask",
    "unit_draws",
    "check_properties",
    "CheckStat",
]

_CHUNK = 4096          # rows per array call in the sampled checks: bounds their memory
_MAX_TRIES = 20000     # consecutive rejected draws before sampling gives up
_BOUNDARY_PATHS = 20   # decay paths to the cone boundary per property check
_BOUNDARY_DEPTH = 30   # halvings of the distance to the boundary along a path
_BOUNDARY_REL = 1e-3   # boundary limit / the path's scale that counts as vanishing
_BOUNDARY_FAR = 0.01 * 2.0 ** 19   # a path leaves the cone iff its point at this t is outside


# --------------------------------------------------------------------------
# elementary symmetric polynomials
# --------------------------------------------------------------------------

def _sigma_all(S: np.ndarray, kmax: int) -> list[np.ndarray]:
    """The list [e_0, .., e_kmax] at the sorted rows S by the prefix recurrence
    e_k(x_1..x_c) = e_k(x_1..x_{c-1}) + x_c e_{k-1}(x_1..x_{c-1}), whose order the
    sort fixes; e_k does not depend on kmax >= k."""
    e = [np.ones(S.shape[:-1])] + [np.zeros(S.shape[:-1]) for _ in range(kmax)]
    for c in range(S.shape[-1]):
        x = S[..., c]
        for j in range(min(c + 1, kmax), 0, -1):
            e[j] = e[j] + x * e[j - 1]
    return e


def _drop_one(n: int) -> np.ndarray:
    j = np.arange(n - 1)
    return j + (j >= np.arange(n)[:, None])             # row i: 0..n-1 without i


def sigma_partials(lam, k: int) -> np.ndarray:
    """dS_k/dlam_i at every row of ``lam`` (shape (..., n)): S_{k-1} of the
    row with entry i removed."""
    lam = np.asarray(lam, dtype=float)
    return _sigma_all(lam[..., _drop_one(lam.shape[-1])], k - 1)[k - 1]


def _sigma_derivatives(S: np.ndarray, k: int, e: list):
    """S_k (shape (m, 1)) from ``e``, with its gradient and Hessian at the rows
    of S (shape (m, n)); d2S_k/dlam_i dlam_j is S_{k-2} of the row without i, j."""
    m, n = S.shape
    P2 = np.zeros((m, n, n))
    if k >= 2:
        drop = _drop_one(n)
        P2[:, np.arange(n)[:, None], drop] = sigma_partials(S[:, drop], k - 1)
    return e[k][:, None], sigma_partials(S, k), P2


def _kmax(spec: SpeedSpec) -> int:
    """The largest k of the k-th roots in ``spec``, 0 where it has none."""
    return max([spec.k if spec.kind == "sigma_k_root" else 0] + [_kmax(f) for f in spec.factors])


def _in_orthant(spec: SpeedSpec) -> bool:
    """The support cone of ``spec`` lies in the positive orthant: Gamma_n, a
    quotient's positive cone, or a product with such a factor."""
    return (spec.kind == "quotient" or spec.kind == "sigma_k_root" and spec.k == spec.n
            or any(_in_orthant(f) for f in spec.factors))


# --------------------------------------------------------------------------
# speed descriptors
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SpeedSpec:
    """Descriptor of a curvature speed.

    kind is one of ``sigma_k_root``, ``harmonic_pairs``, ``quotient``,
    ``product``; ``n`` is the number of principal curvatures.
    """

    kind: str
    n: int
    k: Optional[int] = None
    l: Optional[int] = None
    factors: tuple["SpeedSpec", ...] = field(default=())
    weights: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if not all(isinstance(v, Integral) for v in (self.n, self.k, self.l) if v is not None):
            raise ParameterError(f"n, k, l must be integers, got {self.n!r}, {self.k!r}, {self.l!r}")
        if self.n < 1:
            raise ParameterError("n must be >= 1")
        if self.kind == "sigma_k_root":
            if self.k is None or not 1 <= self.k <= self.n:
                raise ParameterError(f"sigma_k_root requires 1 <= k <= n, got k={self.k}, n={self.n}")
        elif self.kind == "harmonic_pairs":
            if self.n < 2:
                raise ParameterError("harmonic_pairs requires n >= 2")
        elif self.kind == "quotient":
            if self.k is None or self.l is None or not 0 < self.l < self.k <= self.n:
                raise ParameterError(f"quotient requires 0 < l < k <= n, got k={self.k}, l={self.l}")
        elif self.kind == "product":
            if not self.factors:
                raise ParameterError("product requires at least one factor")
            if any(f.n != self.n for f in self.factors):
                raise ParameterError("product factors must share n")
            if len(self.weights) != len(self.factors) or not all(w > 0 for w in self.weights):
                raise ParameterError("product requires one positive weight per factor")
            if not abs(sum(self.weights) - 1.0) <= 1e-12:
                raise ParameterError("product weights must sum to 1 (1-homogeneity)")
        else:
            raise ParameterError(f"unknown speed kind {self.kind!r}")
        # drop what the kind does not read, so equal speeds compare and serialize equal
        if self.kind != "product":
            object.__setattr__(self, "factors", ())
            object.__setattr__(self, "weights", ())
        if self.kind != "quotient":
            object.__setattr__(self, "l", None)
        if self.kind in ("harmonic_pairs", "product"):
            object.__setattr__(self, "k", None)

    def label(self) -> str:
        return f"{self._name()} at n={self.n}"

    def _name(self) -> str:
        if self.kind == "sigma_k_root":
            return f"sigma_{self.k}^(1/{self.k})"
        if self.kind == "harmonic_pairs":
            return "harmonic_pairs"
        if self.kind == "quotient":
            return f"(S_{self.k}/S_{self.l})^(1/{self.k - self.l})"
        return " * ".join(f"{f._name()}^{w:g}" for f, w in zip(self.factors, self.weights))


def sigma_k_root(k: int, n: int) -> SpeedSpec:
    return SpeedSpec(kind="sigma_k_root", n=n, k=k)


def harmonic_pairs(n: int) -> SpeedSpec:
    return SpeedSpec(kind="harmonic_pairs", n=n)


def quotient(k: int, l: int, n: int) -> SpeedSpec:
    return SpeedSpec(kind="quotient", n=n, k=k, l=l)


def product(factors, weights) -> SpeedSpec:
    factors = tuple(factors)
    return SpeedSpec(kind="product", n=factors[0].n if factors else 0,
                     factors=factors, weights=tuple(float(w) for w in weights))


def _rows(n: int, lam) -> np.ndarray:
    arr = np.asarray(lam, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != n:
        raise ParameterError(f"expected an (m, {n}) array of curvature rows, got shape {arr.shape}")
    return arr


# --------------------------------------------------------------------------
# support cones
# --------------------------------------------------------------------------

def support_margins(spec: SpeedSpec, lam) -> list[tuple[str, np.ndarray]]:
    """(violation text, margin) pairs at the rows of ``lam`` (shape (m, n)),
    in the order they are tested: a row lies in the open support cone iff
    every margin is positive.

    Quotient speeds are supported here on the positive cone.  On the full
    Garding cone their continuous extension vanishes at the boundary
    (Maclaurin chain), so the positive cone is the largest of the standard
    cones on which the boundary-vanishing property genuinely fails for
    k < n while monotonicity and concavity still hold.
    """
    S = np.sort(_rows(spec.n, lam), axis=1)
    return _margins(spec, S, _sigma_all(S, _kmax(spec)))


def _margins(spec: SpeedSpec, S: np.ndarray, e: list) -> list[tuple[str, np.ndarray]]:
    """`support_margins` at the sorted rows S and ``e = _sigma_all(S, _kmax(spec))``,
    which a product's factors share, as in `_value` and `_value_grad_hess`."""
    if spec.kind == "sigma_k_root":
        return [(f"S_{l}(lambda) = {{:.6g}} <= 0", e[l]) for l in range(1, spec.k + 1)]
    if spec.kind == "harmonic_pairs":
        return [("min pair sum lambda_i+lambda_j = {:.6g} <= 0", S[:, 0] + S[:, 1])]
    if spec.kind == "quotient":
        return [("min lambda = {:.6g} <= 0 (quotient supported on the positive cone)", S[:, 0])]
    return [c for f in spec.factors for c in _margins(f, S, e)]


def _sigma_line(lam: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
    """Coefficients c_0..c_k (last axis, c_p of t^p) of S_k(lam + t d) at the
    rows of lam and d (shape (m, n)): the prefix recurrence of `_sigma_all`
    run on the linear polynomials lam_c + t d_c."""
    m, n = lam.shape
    e = [np.zeros((m, k + 1)) for _ in range(k + 1)]
    e[0][:, 0] = 1.0
    for c in range(n):
        a, b = lam[:, c, None], d[:, c, None]
        for j in range(min(c + 1, k), 0, -1):
            e[j] = e[j] + a * e[j - 1]
            e[j][:, 1:] += b * e[j - 1][:, :-1]
    return e[k]


def _support_exit(spec: SpeedSpec, lam: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Time t > 0 at which the path lam + t d leaves the open support cone,
    per row of lam (inside the cone) and d (shape (m, n)); inf where it never
    does.  A floating-point value: callers confirm it with `support_mask`."""
    if spec.kind == "product":
        return np.min([_support_exit(f, lam, d) for f in spec.factors], axis=0)
    if spec.kind == "sigma_k_root":
        # Garding: S_k is hyperbolic in the direction of lam, so the reversed
        # polynomial S_k(d + s lam) = s^k S_k(lam + d/s) has real roots only, and
        # the path leaves Gamma_k at t = 1/s for the largest, when it is positive
        m, k = lam.shape[0], spec.k
        c = _sigma_line(lam, d, k)
        companion = np.zeros((m, k, k))
        companion[:, 0, :] = -c[:, 1:] / c[:, :1]        # leading coefficient S_k(lam) > 0
        companion[:, np.arange(1, k), np.arange(k - 1)] = 1.0
        s = np.max(np.linalg.eigvals(companion).real, axis=1)
        return np.divide(1.0, s, out=np.full(m, np.inf), where=s > 0.0)
    if spec.kind == "harmonic_pairs":
        i, j = np.triu_indices(spec.n, 1)
        margin, rate = lam[:, i] + lam[:, j], d[:, i] + d[:, j]
    else:                                                # quotient: the positive cone
        margin, rate = lam, d
    return np.min(np.divide(margin, -rate, out=np.full(margin.shape, np.inf), where=rate < 0.0),
                  axis=1)


def support_mask(spec: SpeedSpec, lam) -> np.ndarray:
    """Boolean array over the rows of ``lam`` (shape (m, n)): the row lies in
    the open support cone of ``spec``."""
    return _inside(support_margins(spec, lam))


def _inside(margins: list[tuple[str, np.ndarray]]) -> np.ndarray:
    """The rows at which every margin is positive, ANDed in order."""
    return reduce(np.logical_and, [m > 0.0 for _, m in margins])


def _violation(spec: SpeedSpec, row) -> str:
    """The text of the first ``support_margins`` condition that the curvature
    row ``row`` (shape (n,)), outside the open support cone, violates."""
    return next(text.format(m[0]) for text, m in support_margins(spec, np.asarray(row)[None])
                if not m[0] > 0.0)


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def speed_values(spec: SpeedSpec, lam) -> np.ndarray:
    """Speed value at every row of ``lam`` (shape (m, n)); NaN on the rows
    outside the open support cone; a k-th root's value is its last margin."""
    S = np.sort(_rows(spec.n, lam), axis=1)
    e = _sigma_all(S, _kmax(spec))
    margins = _margins(spec, S, e)
    inside = _inside(margins)
    out = np.full(inside.size, np.nan)
    out[inside] = (margins[-1][1][inside] ** (1.0 / spec.k) if spec.kind == "sigma_k_root"
                   else _value(spec, S[inside], [x[inside] for x in e]))
    return out


def eval_speed(spec: SpeedSpec, lam) -> float:
    """Speed value at the one row ``lam`` by `speed_values`; raises
    DomainError outside the open cone."""
    row = np.asarray(lam, dtype=float)[None]
    value = speed_values(spec, row)[0]
    if np.isnan(value) and not support_mask(spec, row)[0]:   # inf/inf in the cone is NaN
        raise DomainError(f"lambda outside the support cone of {spec.label()}: "
                          + _violation(spec, row[0]))
    return float(value)


def _value(spec: SpeedSpec, S: np.ndarray, e: list) -> np.ndarray:
    if spec.kind == "sigma_k_root":
        return e[spec.k] ** (1.0 / spec.k)
    if spec.kind == "harmonic_pairs":
        acc = 0.0
        for i, j in zip(*np.triu_indices(S.shape[1], 1)):
            acc = acc + 1.0 / (S[:, i] + S[:, j])
        return 1.0 / acc
    if spec.kind == "quotient":
        q = _sigma_all(S, spec.k)
        return (q[spec.k] / q[spec.l]) ** (1.0 / (spec.k - spec.l))
    out = 1.0
    for f, w in zip(spec.factors, spec.weights):
        out = out * _value(f, S, e) ** w
    return out


def speed_derivatives(spec: SpeedSpec, lam):
    """``(value, gradient, hessian)``, of shapes (m,), (m, n), (m, n, n), at
    the rows of ``lam`` (shape (m, n)); raises DomainError naming the first
    row outside the open cone and the first condition it violates."""
    L = _rows(spec.n, lam)
    order = np.argsort(L, axis=1, kind="stable")
    S = np.take_along_axis(L, order, axis=1)
    e = _sigma_all(S, _kmax(spec))
    inside = _inside(_margins(spec, S, e))
    if not np.all(inside):
        raise DomainError(f"lambda outside the support cone of {spec.label()}: "
                          + _violation(spec, L[np.argmin(inside)]))
    v, g, h = _value_grad_hess(spec, S, e)
    back = np.argsort(order, axis=1)
    rows = np.arange(L.shape[0])[:, None, None]
    return v, np.take_along_axis(g, back, axis=1), h[rows, back[:, :, None], back[:, None, :]]


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[:, :, None] * b[:, None, :]


def _value_grad_hess(spec: SpeedSpec, S: np.ndarray, e: list):
    """Value, gradient and Hessian at the sorted rows S (shape (m, n))."""
    if spec.kind == "sigma_k_root":
        k = spec.k
        Sk, P, P2 = _sigma_derivatives(S, k, e)
        a = (1.0 / k) * Sk ** (1.0 / k - 1.0)
        b = (1.0 / k) * (1.0 / k - 1.0) * Sk ** (1.0 / k - 2.0)
        return Sk[:, 0] ** (1.0 / k), a * P, b[:, :, None] * _outer(P, P) + a[:, :, None] * P2
    if spec.kind == "harmonic_pairs":
        m, n = S.shape
        P, dP, d2P = np.zeros((m, 1)), np.zeros((m, n)), np.zeros((m, n, n))
        for i, j in zip(*np.triu_indices(n, 1)):
            sij = S[:, i, None] + S[:, j, None]
            P += 1.0 / sij
            dP[:, [i, j]] -= sij ** -2
            d2P[:, [i, i, j, j], [i, j, i, j]] += 2.0 * sij ** -3
        h = 2.0 * _outer(dP, dP) / P[:, :, None] ** 3 - d2P / P[:, :, None] ** 2
        return 1.0 / P[:, 0], -dP / P ** 2, h
    if spec.kind == "quotient":                      # through the log, as the product
        p = 1.0 / (spec.k - spec.l)
        q = _sigma_all(S, spec.k)
        (Sk, Pk, P2k), (Sl, Pl, P2l) = (_sigma_derivatives(S, j, q) for j in (spec.k, spec.l))
        v = (Sk / Sl) ** p
        u = p * (Pk / Sk - Pl / Sl)                  # gradient of log f
        Sk, Sl = Sk[:, :, None], Sl[:, :, None]
        u2 = p * (P2k / Sk - _outer(Pk, Pk) / Sk ** 2 - P2l / Sl + _outer(Pl, Pl) / Sl ** 2)
    else:                                            # weighted geometric mean
        v, u, u2 = 1.0, 0.0, 0.0
        for f, w in zip(spec.factors, spec.weights):
            fv, fg, fh = _value_grad_hess(f, S, e)
            fv = fv[:, None]
            v, u = v * fv ** w, u + w * fg / fv
            u2 = u2 + w * (fh / fv[:, :, None] - _outer(fg, fg) / fv[:, :, None] ** 2)
    return v[:, 0], v * u, v[:, :, None] * (_outer(u, u) + u2)


# --------------------------------------------------------------------------
# property suite
# --------------------------------------------------------------------------

@dataclass
class CheckStat:
    passed: int = 0
    failed: int = 0
    worst: float = 0.0
    witness: Optional[tuple] = None

    def record(self, ok: np.ndarray, measure: np.ndarray, points: np.ndarray) -> None:
        """Count the rows; the witness is the first at the largest measure."""
        self.passed += int(np.count_nonzero(ok))
        self.failed += int(ok.size - np.count_nonzero(ok))
        if not measure.size:
            return
        measure = np.where(np.isnan(measure), -np.inf, measure)
        i = int(np.argmax(measure))
        if measure[i] > self.worst:
            self.worst = float(measure[i])
            self.witness = tuple(points[i].tolist())


def unit_draws(n: int, samples: int, rng: np.random.Generator):
    """Yield the unit vectors among ``samples`` standard normal draws in
    R^n, chunk by chunk."""
    for start in range(0, samples, _CHUNK):
        X = rng.standard_normal((min(_CHUNK, samples - start), n))
        norms = np.linalg.norm(X, axis=1)
        yield X[norms > 0.0] / norms[norms > 0.0, None]


def _sample_rows(spec: SpeedSpec, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` uniformly random unit vectors in the open support cone, by
    rejection over chunks of at most ``_CHUNK`` draws, each draw first folded
    into a region that holds the cone: |X| where the cone lies in the positive
    orthant, else X sign(sum X), since every support cone lies in the
    half-space sum lambda > 0.  The sign reflections that fold the sphere
    onto the region preserve the uniform measure, so the result is exact."""
    fold = np.abs if _in_orthant(spec) else lambda X: X * np.sign(X.sum(axis=1, keepdims=True))
    found, accepted, draws, misses = [], 0, 0, 0
    while accepted < count:
        need = count - accepted
        size = min(_CHUNK, need * (draws // max(accepted, 1) + 1))
        X = fold(next(unit_draws(spec.n, size, rng)))    # size <= _CHUNK: one chunk
        draws += size
        X = X[support_mask(spec, X)][:need]
        misses = 0 if X.size else misses + size
        if misses >= _MAX_TRIES:
            raise DomainError(
                f"no interior sample found for {spec.label()} after {misses} draws")
        found.append(X)
        accepted += X.shape[0]
    return np.concatenate(found)


def _radial_degeneracy(L: np.ndarray, hess: np.ndarray):
    """|lam^T D^2f lam| at the unit rows of L, which 1-homogeneity makes
    vanish, relative to max(1, max|D^2f|), the scale of its round-off."""
    scale = np.maximum(1.0, np.max(np.abs(hess), axis=(1, 2)))
    radial = np.abs(np.einsum("mi,mij,mj->m", L, hess, L)) / scale
    return radial <= 1e-10, radial


def _pointwise_checks(spec: SpeedSpec, L: np.ndarray, rng: np.random.Generator) -> dict:
    """(passed, measure) arrays of the six pointwise checks at the rows of L."""
    g, grad, hess = speed_derivatives(spec, L)
    diff = np.abs(speed_values(spec, rng.permuted(L, axis=1)) - g)
    gmin = np.min(grad, axis=1)
    euler = np.abs(np.einsum("mi,mi->m", L, grad) - g) / np.abs(g)
    # Hessian restricted to the orthogonal complement of span{lam}
    proj = np.eye(spec.n) - _outer(L, L)
    M = proj @ hess @ proj
    top = np.linalg.eigvalsh(0.5 * (M + M.transpose(0, 2, 1)))[:, -1]
    return {
        "symmetry": (diff == 0.0, diff),
        "positivity": (g > 0.0, -g),
        "gradient_positivity": (gmin > 0.0, -gmin),
        "euler": (euler <= 1e-9, euler),
        "off_radial_concavity": (top <= 1e-8, top),
        "radial_degeneracy": _radial_degeneracy(L, hess),
    }


def _boundary_paths(spec: SpeedSpec, lam: np.ndarray, d: np.ndarray):
    """Test decay of the speed along straight paths from the rows of ``lam``
    in the unit directions ``d`` to the cone boundary, all paths in lockstep.
    Every path must leave the cone before ``_BOUNDARY_FAR``.

    Returns (found, satisfied, limit_ratio) arrays over the paths.  Each exit
    is bracketed by [0, _BOUNDARY_FAR], or by 1e-9 relative about the exact
    exit time where ``support_mask`` confirms both ends, and each call then
    tests 63 evenly spaced points per bracket until every bracket is one ulp
    wide.  The speed is sampled at the distances 2^-j (j = 0..30) of the
    segment to the last point inside; a path is found iff at least 12 of
    these samples lie inside the cone.  A found path is clean, ratio 0, iff
    its last three kept values v1 > v2 > v3 fall to an Aitken limit
    v3 - d2^2/(d2 - d1) (v3 if d2 = d1) of at most ``_BOUNDARY_REL`` times
    its largest kept value; else its ratio is v3 over the interior value.
    The limit removes a decay of any order (1/k for a k-th root), not a
    plateau.  The bound grows, as the 1-homogeneous speed does, with a far
    exit's length, and so with the round-off the step amplifies.  Every step
    works row by row: a path's results do not depend on the call's other rows.
    """
    p, n = lam.shape

    def inside_at(rows, times):                      # at lam + t d, one path per row of times
        points = lam[rows, None, :] + times[:, :, None] * d[rows, None, :]
        return support_mask(spec, points.reshape(-1, n)).reshape(times.shape)

    t_lo, t_hi = np.zeros(p), np.full(p, _BOUNDARY_FAR)
    exit_t = _support_exit(spec, lam, d)
    hinted = np.flatnonzero(np.isfinite(exit_t))
    ends = exit_t[hinted, None] * np.array([1.0 - 1e-9, 1.0 + 1e-9])
    inside = inside_at(hinted, ends)
    confirmed = inside[:, 0] & ~inside[:, 1]         # a wrong hint keeps [0, _BOUNDARY_FAR]
    t_lo[hinted[confirmed]], t_hi[hinted[confirmed]] = ends[confirmed].T
    frac = np.arange(1, 64) / 64.0
    while (wide := np.flatnonzero(np.nextafter(t_lo, np.inf) < t_hi)).size:
        lo, hi = t_lo[wide, None], t_hi[wide, None]
        grid = np.hstack([lo, np.clip(lo + (hi - lo) * frac, lo, hi), hi])
        outside = np.c_[~inside_at(wide, grid[:, 1:-1]), np.ones(wide.size, dtype=bool)]
        first = 1 + np.argmax(outside, axis=1)       # the first point outside; lo is inside
        rows = np.arange(wide.size)
        t_lo[wide], t_hi[wide] = grid[rows, first - 1], grid[rows, first]
    b = lam + t_lo[:, None] * d                      # just inside the boundary
    g_int = speed_values(spec, lam)
    mus = 2.0 ** -np.arange(_BOUNDARY_DEPTH + 1)
    points = b[:, None, :] + mus[:, None] * (lam - b)[:, None, :]
    vals = speed_values(spec, points.reshape(-1, n)).reshape(p, mus.size)
    keep = ~np.isnan(vals)
    found = np.count_nonzero(keep, axis=1) >= 12
    # the last three values kept on each found path, and their Aitken limit
    last = keep & (np.cumsum(keep[:, ::-1], axis=1)[:, ::-1] <= 3) & found[:, None]
    v1, v2, v3 = vals[last].reshape(-1, 3).T
    d1, d2 = v2 - v1, v3 - v2
    limit = v3 - np.divide(d2 * d2, d2 - d1, out=np.zeros_like(d1), where=d2 != d1)
    clean = (d1 < 0.0) & (d2 < 0.0) & (limit <= _BOUNDARY_REL * np.nanmax(vals[found], axis=1))
    ratio = np.zeros(p)
    ratio[found] = np.where(clean, 0.0, v3) / g_int[found]
    return found, ratio <= _BOUNDARY_REL, ratio


def check_properties(spec: SpeedSpec, sample_count: int = 1000,
                     seed: int = 0) -> dict[str, CheckStat]:
    """Sampled verification of the defining properties of a speed:
    permutation symmetry, positivity, gradient positivity, the Euler
    relation of 1-homogeneity, off-radial concavity of the Hessian, radial
    degeneracy, and vanishing of the continuous extension at the cone
    boundary.  Failures are counted and witnessed, never raised: the result
    maps each check's name to its ``CheckStat``.

    The boundary check runs in two stages.  Plan: rounds of interior rows
    and unit directions are drawn, and a path is kept iff its point at
    ``_BOUNDARY_FAR`` lies outside the cone (the cone is convex, so then and
    only then does the path leave it before there), until ``_BOUNDARY_PATHS``
    paths are kept or ``20 * _BOUNDARY_PATHS`` paths are drawn.  Batch: one
    `_boundary_paths` call on the kept paths, recorded at once; a path passes
    iff its decay's Aitken limit is at most ``_BOUNDARY_REL`` times its largest
    value.  A path with too few decay samples inside the cone does not
    count; for such a shortfall further rounds are planned and batched
    while the draw budget lasts."""
    if sample_count < 1:
        raise ParameterError("sample_count must be >= 1")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    checks = {}
    for start in range(0, sample_count, _CHUNK):
        lam = _sample_rows(spec, rng, min(_CHUNK, sample_count - start))
        for name, (ok, measure) in _pointwise_checks(spec, lam, rng).items():
            checks.setdefault(name, CheckStat()).record(ok, measure, lam)
    boundary = checks["boundary_vanishing"] = CheckStat()
    done = tries = 0
    while done < _BOUNDARY_PATHS and tries < 20 * _BOUNDARY_PATHS:
        start, lams, ds = done, [], []
        while done < _BOUNDARY_PATHS and tries < 20 * _BOUNDARY_PATHS:     # plan
            size = min(_BOUNDARY_PATHS - done, 20 * _BOUNDARY_PATHS - tries)
            tries += size
            lam = _sample_rows(spec, rng, size)
            d = rng.standard_normal((size, spec.n))
            d = d / np.linalg.norm(d, axis=1, keepdims=True)
            leaves = ~support_mask(spec, lam + _BOUNDARY_FAR * d)
            lams.append(lam[leaves])
            ds.append(d[leaves])
            done += int(np.count_nonzero(leaves))
        lam = np.concatenate(lams)                                         # batch
        found, ok, ratio = _boundary_paths(spec, lam, np.concatenate(ds))
        boundary.record(ok[found], ratio[found], lam[found])
        done = start + int(np.count_nonzero(found))      # a path short of decay samples drops
    return checks
