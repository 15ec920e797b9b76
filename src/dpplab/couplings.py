"""Noise couplings: mirror reflection, minimal disk rotation, and clamping.

Each coupling transports one token's noise realization to the other token so
that the pair moves with the marginal laws of the underlying game while the
pair distance drifts the way the comparison arguments need. CouplingMap.step
is the one coupled-step law, shared by coupled play, drift estimation and
the certifier's mirrored-walk margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .comparison import _sqnorm

_PARALLEL_TOL = 1e-14   # |c| at or below which rotation_frames gives the identity


def mirror_map(x, z, h):
    """Reflect h across the hyperplane orthogonal to V = (x-z)/|x-z|.

    P(h) = h - 2 (h.V) V. An involutive isometry of every centered ball;
    undefined on the diagonal x = z. h is (m, n), or a single vector, the
    batch of one; rows are reflected column by column, h[:, k] - 2 (h.V)
    V_k, with h.V one BLAS product over the rows.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    d = x - z
    t = np.linalg.norm(d)
    if t == 0.0:
        raise ValueError("mirror_map needs x != z")
    v = d / t
    H = np.atleast_2d(np.asarray(h, dtype=float))
    hv = H @ v
    out = np.empty(H.shape)
    for k in range(H.shape[1]):
        np.subtract(H[:, k], 2.0 * (hv * v[k]), out=out[:, k])
    return out if np.ndim(h) > 1 else out[0]


def clamp_projection(x, epsilon: float, y):
    """Project y to x when the pair is at least epsilon/2 apart, else keep y.

    P_x(y) = x if |x - y| >= eps/2, else y. In particular points at distance
    exactly eps/2 map to x. y is (m, n), or (n,), the batch of one; rows go
    through clamp_axes.
    """
    x = np.asarray(x, dtype=float)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    Y = np.atleast_2d(np.asarray(y, dtype=float))
    out = np.stack(clamp_axes(x, epsilon, [Y[:, k] for k in range(Y.shape[1])]),
                   axis=1)
    return out if np.ndim(y) > 1 else out[0]


def clamp_axes(x, epsilon: float, ys) -> list:
    """clamp_projection of the points whose k-th coordinates are ys[k]
    (arrays of one shape), as their coordinate arrays. |y - x|^2 is summed
    axis by axis in order (`_sqnorm`), the bits of np.linalg.norm over
    rows."""
    far = np.sqrt(_sqnorm(ys, x, np.subtract)) >= 0.5 * epsilon
    return [np.where(far, b, a) for a, b in zip(ys, x)]


@dataclass(frozen=True)
class RotationMap:
    """Minimal rotation taking direction a to direction b, identity on their
    orthogonal complement.

    Antipodal pair (b = -a) and parallel pair (b = a) both give the identity:
    the convention P(nu, nu') = P(-nu, -nu') forces the antipodal case to
    match the parallel one, and the identity maps the hyperplane orthogonal
    to nu onto the hyperplane orthogonal to -nu anyway.
    """

    a_hat: tuple
    c_hat: Optional[tuple]   # in-plane direction orthogonal to a_hat; None = identity
    cos_phi: float
    sin_phi: float

    def apply(self, h):
        h = np.asarray(h, dtype=float)
        if self.c_hat is None:
            return h.copy()
        return rotate(h, np.asarray(self.a_hat), np.asarray(self.c_hat),
                      self.cos_phi, self.sin_phi)

    __call__ = apply


def rotation_frames(a_hat, b_hat):
    """Frames of the minimal rotations taking unit a_hat onto unit b_hat,
    (..., n) arrays that broadcast together: b_hat = cos_phi a_hat +
    sin_phi c_hat, c_hat a unit vector orthogonal to a_hat. Returns
    (c_hat, cos_phi, sin_phi, identity); identity marks parallel and
    antipodal pairs, whose rotation is the identity."""
    cos_phi = np.clip(np.vecdot(a_hat, b_hat), -1.0, 1.0)
    c = b_hat - cos_phi[..., None] * a_hat
    nc = np.sqrt(np.vecdot(c, c))
    identity = nc <= _PARALLEL_TOL
    c = c / np.where(identity, 1.0, nc)[..., None]
    # the subtraction above cancels badly for near-(anti)parallel pairs and
    # leaves c tilted toward a by ~eps/|c|; one re-orthogonalization pass
    # restores a.c ~ eps, which rotate() needs for exact isometry
    c = c - np.vecdot(a_hat, c)[..., None] * a_hat
    c = c / np.where(identity, 1.0, np.sqrt(np.vecdot(c, c)))[..., None]
    sin_phi = np.vecdot(b_hat, c)
    scale = np.hypot(cos_phi, sin_phi)
    return c, cos_phi / scale, sin_phi / scale, identity


def rotate(h, a_hat, c_hat, cos_phi, sin_phi):
    """Image of displacements h (..., n) under the rotation by phi in the
    plane (a_hat, c_hat), fixing its orthogonal complement; every argument
    broadcasts against h (cos_phi and sin_phi with a trailing axis of 1)."""
    ha = np.vecdot(h, a_hat)[..., None]
    hc = np.vecdot(h, c_hat)[..., None]
    return h - ha * a_hat - hc * c_hat + (ha * cos_phi - hc * sin_phi) * a_hat \
        + (ha * sin_phi + hc * cos_phi) * c_hat


def rotation_map(nu_x, nu_z) -> RotationMap:
    """Minimal rotation moving nu_x/|nu_x| onto nu_z/|nu_z|.

    It maps the hyperplane orthogonal to nu_x onto the hyperplane orthogonal
    to nu_z and fixes the (n-2)-dimensional intersection pointwise. Parallel
    and antipodal inputs give the identity.
    """
    a = np.asarray(nu_x, dtype=float)
    b = np.asarray(nu_z, dtype=float)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("rotation_map needs nonzero directions")
    a = a / na
    c, cos_phi, sin_phi, identity = rotation_frames(a, b / nb)
    if identity:
        return RotationMap(tuple(a), None, 1.0, 0.0)
    return RotationMap(tuple(a), tuple(c), float(cos_phi), float(sin_phi))


def rotation_angle(nu_x, nu_z) -> float:
    """Angle of the minimal rotation (0 for parallel or antipodal pairs)."""
    r = rotation_map(nu_x, nu_z)
    if r.c_hat is None:
        return 0.0
    return float(np.arctan2(r.sin_phi, r.cos_phi))


COUPLING_KINDS = ("mirror", "rotation")


@dataclass(frozen=True)
class CouplingMap:
    """The coupled-step law of one of the two couplings, with its data.

    mirror   : reflection across the bisector of the pair it is applied to,
               with the tokens merging in the lens; data x, z
    rotation : minimal rotation taking nu_x to nu_z; data nu_x, nu_z

    step is the one law: both tokens' next positions from one noise draw.
    It reads the pair it is given, not the x, z stored in a mirror map, so a
    mirror map may be built on the diagonal.
    """

    kind: str
    x: tuple | None = None
    z: tuple | None = None
    nu_x: tuple | None = None
    nu_z: tuple | None = None

    def __post_init__(self):
        if self.kind not in COUPLING_KINDS:
            raise ValueError(f"unknown coupling kind {self.kind!r}")
        if self.kind == "mirror":
            if self.x is None or self.z is None:
                raise ValueError("mirror coupling needs x and z")
        if self.kind == "rotation":
            if self.nu_x is None or self.nu_z is None:
                raise ValueError("rotation coupling needs nu_x and nu_z")
            if not (np.any(np.asarray(self.nu_x)) and np.any(np.asarray(self.nu_z))):
                raise ValueError("rotation coupling needs nonzero directions")

    @staticmethod
    def mirror(x, z) -> "CouplingMap":
        return CouplingMap("mirror", x=tuple(np.asarray(x, dtype=float)),
                           z=tuple(np.asarray(z, dtype=float)))

    @staticmethod
    def rotation(nu_x, nu_z) -> "CouplingMap":
        return CouplingMap("rotation",
                           nu_x=tuple(np.asarray(nu_x, dtype=float)),
                           nu_z=tuple(np.asarray(nu_z, dtype=float)))

    def step(self, x, z, H, epsilon: float):
        """(X, Z): the pair (x, z) moved by noise draws H (m, n) at x.

        X = x + H. Mirror: where |H - (z - x)| < epsilon the x token lands
        in z's ball and the tokens merge, Z = X (on the diagonal every row
        merges); every other row takes Z = z + mirror_map(x, z, H). Rotation:
        Z = z + the minimal rotation nu_x -> nu_z of H.
        """
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        if self.kind == "rotation":
            return x + H, z + rotation_map(self.nu_x, self.nu_z)(H)
        X, land = np.empty(H.shape), np.empty(H.shape)
        for k in range(H.shape[1]):   # x + H, and x + H seen from z
            np.add(x[k], H[:, k], out=X[:, k])
            np.subtract(H[:, k], z[k] - x[k], out=land[:, k])
        apart = np.flatnonzero(~(np.einsum("ij,ij->i", land, land) < epsilon**2))
        if len(apart) == len(H):   # always so at t >= 2 eps
            return X, _shifted(z, mirror_map(x, z, H))
        Z = X.copy()
        if len(apart):   # the apart rows by take, written back per column
            M = _shifted(z, mirror_map(x, z, H.take(apart, axis=0)))
            for k in range(H.shape[1]):
                Z[:, k][apart] = M[:, k]
        return X, Z


def _shifted(z, M):
    """z + M for rows M (m, n), in place, column by column."""
    for k in range(M.shape[1]):
        M[:, k] += z[k]
    return M
