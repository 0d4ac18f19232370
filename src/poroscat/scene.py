"""Scene description: sensing grid, fracture patches, sampling grid.

The imaging scenes are three-dimensional: wells are polylines of 3-space
points, fractures are flat rectangular patches carrying an orthonormal
frame (e1, e2, n) and a contact law, and the sampling region is a
rectangle in a z = const plane probed on a uniform grid with a fan of
in-plane trial normals.  Planar analogues of 2D configurations are built
as ribbon-like patches: long axis in the x-y plane, short axis out of
plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateContactError, DomainError, GeometryError

__all__ = [
    "ContactParams",
    "FracturePatch",
    "SensingGrid",
    "SamplingGrid",
    "Scene",
    "build_sensing_grid",
    "build_fracture_patch",
    "build_sampling_grid",
]

FINITE_PERMEABILITY = "finite-permeability"
HIGH_PERMEABILITY = "high-permeability"


@dataclass(frozen=True)
class ContactParams:
    """Interfacial contact law of a fracture patch.

    k_t, k_n are the tangential/normal drained stiffnesses, kappa_f the
    interface permeability, alpha_f and beta_f the effective-stress and
    Skempton coefficients, Pi the pressure dissipation factor.  The
    high-permeability model forces Pi = 1 and a vanishing pressure jump
    (kappa_f is then unused).
    """

    k_t: complex
    k_n: complex
    kappa_f: float = 1.0
    alpha_f: float = 0.85
    beta_f: float = 0.3
    Pi: float = 1.0
    model: str = FINITE_PERMEABILITY

    def __post_init__(self) -> None:
        if self.model not in (FINITE_PERMEABILITY, HIGH_PERMEABILITY):
            raise DomainError(f"unknown contact model {self.model!r}")
        if self.model == HIGH_PERMEABILITY and self.Pi != 1.0:
            raise DomainError("high-permeability contact requires Pi = 1")
        if self.k_n == 0:
            raise DegenerateContactError("k_n must be nonzero")
        if self.alpha_f == 0.0:
            raise DegenerateContactError("alpha_f must be nonzero")
        if self.Pi == 0.0:
            raise DegenerateContactError("Pi must be nonzero")
        denom = 1.0 - self.alpha_f * self.beta_f * (1.0 - self.Pi)
        if abs(denom) < 1e-12:
            raise DegenerateContactError(
                "alpha_f*beta_f*(1 - Pi) makes the effective stress factor singular"
            )

    @property
    def alpha_f_tilde(self) -> float:
        """Effective interface stress coefficient alpha_f*Pi/(1 - alpha_f*beta_f*(1-Pi))."""
        return self.alpha_f * self.Pi / (1.0 - self.alpha_f * self.beta_f * (1.0 - self.Pi))

    def stiffness_matrix(self, e1, e2, n) -> np.ndarray:
        """K = k_t (e1 e1 + e2 e2) + (alpha_f_tilde k_n / (alpha_f Pi)) n n.

        For the high-permeability model the normal coefficient reduces to
        k_n itself.
        """
        e1 = np.asarray(e1, float)
        e2 = np.asarray(e2, float)
        n = np.asarray(n, float)
        kn_eff = self.alpha_f_tilde * self.k_n / (self.alpha_f * self.Pi)
        return (
            self.k_t * (np.outer(e1, e1) + np.outer(e2, e2))
            + kn_eff * np.outer(n, n)
        )

    def to_dict(self) -> dict:
        return {
            "k_t": [self.k_t.real, complex(self.k_t).imag],
            "k_n": [complex(self.k_n).real, complex(self.k_n).imag],
            "kappa_f": self.kappa_f,
            "alpha_f": self.alpha_f,
            "beta_f": self.beta_f,
            "Pi": self.Pi,
            "model": self.model,
        }


@dataclass(frozen=True)
class FracturePatch:
    """Flat rectangular fracture patch with collocation cells.

    The orthonormal frame (e1, e2, normal) spans the patch; half_lengths
    are the half-extents along e1 and e2, and subdivisions the cell
    counts along the two axes.  Cells tile the rectangle exactly; the
    normal is shared by every cell.
    """

    center: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    normal: np.ndarray
    half_lengths: tuple[float, float]
    subdivisions: tuple[int, int]
    contact: ContactParams

    def __post_init__(self) -> None:
        frame = np.stack([self.e1, self.e2, self.normal])
        if np.abs(frame @ frame.T - np.eye(3)).max() > 1e-12:
            raise GeometryError("patch frame is not orthonormal to 1e-12")
        if not (self.half_lengths[0] > 0 and self.half_lengths[1] > 0):
            raise GeometryError("patch half-lengths must be positive")
        if not (self.subdivisions[0] >= 1 and self.subdivisions[1] >= 1):
            raise GeometryError("subdivision counts must be >= 1")

    @property
    def area(self) -> float:
        return 4.0 * self.half_lengths[0] * self.half_lengths[1]

    @property
    def cell_count(self) -> int:
        return self.subdivisions[0] * self.subdivisions[1]

    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell centers (nc, 3) and areas (nc,), row-major over (e1, e2)."""
        n1, n2 = self.subdivisions
        h1, h2 = self.half_lengths
        s1 = (-h1 + (np.arange(n1) + 0.5) * (2.0 * h1 / n1))  # (n1,)
        s2 = (-h2 + (np.arange(n2) + 0.5) * (2.0 * h2 / n2))  # (n2,)
        S1, S2 = np.meshgrid(s1, s2, indexing="ij")
        centers = (
            self.center[None, :]
            + S1.reshape(-1, 1) * self.e1[None, :]
            + S2.reshape(-1, 1) * self.e2[None, :]
        )
        areas = np.full(n1 * n2, (2.0 * h1 / n1) * (2.0 * h2 / n2))
        return centers, areas

    def refined(self, factor: int = 2) -> "FracturePatch":
        """Same patch with every cell split factor x factor."""
        return FracturePatch(
            center=self.center,
            e1=self.e1,
            e2=self.e2,
            normal=self.normal,
            half_lengths=self.half_lengths,
            subdivisions=(self.subdivisions[0] * factor, self.subdivisions[1] * factor),
            contact=self.contact,
        )

    def distance_to(self, points: np.ndarray) -> np.ndarray:
        """Euclidean distance from points (..., 3) to the patch rectangle."""
        w = np.asarray(points, float) - self.center
        u = np.clip(w @ self.e1, -self.half_lengths[0], self.half_lengths[0])
        v = np.clip(w @ self.e2, -self.half_lengths[1], self.half_lengths[1])
        closest = (
            self.center
            + u[..., None] * self.e1[None, :]
            + v[..., None] * self.e2[None, :]
        )
        return np.linalg.norm(np.asarray(points, float) - closest, axis=-1)


def build_fracture_patch(
    center,
    frame=None,
    half_lengths=(1.0, 1.0),
    subdivisions=(1, 1),
    contact: ContactParams | None = None,
    strike_rad: float | None = None,
) -> FracturePatch:
    """Construct a patch from a frame or from in-plane strike geometry.

    Two construction modes:

    * ``frame=(e1, e2)``: the axes are Gram-Schmidt orthonormalized and
      the normal is e1 x e2.
    * ``strike_rad`` given: ribbon-like in-plane patch with long axis at
      that angle from the x-axis in the x-y plane, short axis along z.

    Cells tile the rectangle exactly: subdivisions (n1, n2) split the
    half_lengths axes into equal cells.
    """
    center = np.asarray(center, dtype=float).reshape(3)
    if contact is None:
        raise DomainError("contact parameters are required")
    if strike_rad is not None:
        e1 = np.array([math.cos(strike_rad), math.sin(strike_rad), 0.0])
        e2 = np.array([0.0, 0.0, 1.0])
    elif frame is not None:
        a = np.asarray(frame[0], dtype=float).reshape(3)
        b = np.asarray(frame[1], dtype=float).reshape(3)
        na = np.linalg.norm(a)
        if na < 1e-14:
            raise GeometryError("frame axis e1 is degenerate")
        e1 = a / na
        b = b - (b @ e1) * e1
        nb = np.linalg.norm(b)
        if nb < 1e-14:
            raise GeometryError("frame axes are collinear; cannot orthogonalize")
        e2 = b / nb
    else:
        raise DomainError("either frame or strike_rad must be given")
    normal = np.cross(e1, e2)
    normal /= np.linalg.norm(normal)
    patch = FracturePatch(
        center=center,
        e1=e1,
        e2=e2,
        normal=normal,
        half_lengths=(float(half_lengths[0]), float(half_lengths[1])),
        subdivisions=(int(subdivisions[0]), int(subdivisions[1])),
        contact=contact,
    )
    return patch


@dataclass(frozen=True)
class SensingGrid:
    """Ordered excitation/observation points, each sensing every channel."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
            raise GeometryError(f"points must be (N>=1, 3), got {pts.shape}")
        object.__setattr__(self, "points", pts)
        # duplicate detection on exact coordinates
        seen = set()
        for i, p in enumerate(pts):
            key = (p[0], p[1], p[2])
            if key in seen:
                raise GeometryError(f"duplicate sensing point at index {i}: {p.tolist()}")
            seen.add(key)

    @property
    def count(self) -> int:
        return self.points.shape[0]


def build_sensing_grid(
    polylines: Sequence[Sequence[Sequence[float]]],
    samples_per_segment: int,
) -> SensingGrid:
    """Sample well polylines uniformly by arc length.

    Every segment of every polyline receives ``samples_per_segment``
    points including both endpoints; the shared junction point between
    consecutive segments of one polyline is emitted once.  Point order is
    polyline order, then arc-length order (deterministic).
    """
    if samples_per_segment < 1:
        raise DomainError("samples_per_segment must be >= 1")
    pts: list[np.ndarray] = []
    for pl_idx, pl in enumerate(polylines):
        verts = np.asarray(pl, dtype=float)
        if verts.ndim != 2 or verts.shape[0] < 2 or verts.shape[1] != 3:
            raise GeometryError(
                f"polyline {pl_idx} must be a (>=2, 3) vertex array, got {verts.shape}"
            )
        for s in range(verts.shape[0] - 1):
            a, b = verts[s], verts[s + 1]
            if np.linalg.norm(b - a) == 0.0:
                raise GeometryError(f"zero-length segment {s} in polyline {pl_idx}")
            if samples_per_segment == 1:
                seg = (a + b)[None, :] / 2.0
            else:
                t = np.linspace(0.0, 1.0, samples_per_segment)[:, None]
                seg = a[None, :] * (1.0 - t) + b[None, :] * t
            if s > 0 and samples_per_segment > 1:
                seg = seg[1:]  # drop the duplicated junction vertex
            pts.append(seg)
    return SensingGrid(points=np.vstack(pts))


@dataclass(frozen=True)
class SamplingGrid:
    """Uniform rectangular grid of trial points with a fan of trial normals.

    Points live in the plane z = plane_z over region (xmin, xmax, ymin,
    ymax), ordered row-major with x varying fastest.  Normals are unit
    in-plane directions at angles pi*k/n_dir, k = 0..n_dir-1 (distinct as
    undirected directions; a trial dislocation is insensitive to the sign
    of its normal).  ``iotas`` selects the excitation forms: 1 for a
    displacement-jump dipole, 0 for a fluid monopole.
    """

    region: tuple[float, float, float, float]
    resolution: tuple[int, int]
    normals: np.ndarray
    iotas: tuple[int, ...]
    plane_z: float = 0.0

    def __post_init__(self) -> None:
        if not (self.region[0] <= self.region[1] and self.region[2] <= self.region[3]):
            raise DomainError(f"sampling region needs xmin <= xmax, ymin <= ymax: {self.region}")
        if self.resolution[0] < 1 or self.resolution[1] < 1:
            raise DomainError("sampling resolution must be >= 1 on each axis")
        if len(self.iotas) == 0:
            raise DomainError("excitation-type set iotas must be non-empty")
        if any(i not in (0, 1) for i in self.iotas):
            raise DomainError("iotas entries must be 0 or 1")
        nrm = np.asarray(self.normals, dtype=float)
        if nrm.ndim != 2 or nrm.shape[1] != 3 or nrm.shape[0] < 1:
            raise DomainError("normals must be (n_dir >= 1, 3)")
        if np.abs(np.linalg.norm(nrm, axis=1) - 1.0).max() > 1e-12:
            raise DomainError("trial normals must be unit length")
        for i in range(nrm.shape[0]):
            for j in range(i + 1, nrm.shape[0]):
                if np.allclose(nrm[i], nrm[j], atol=1e-12):
                    raise DomainError(f"trial normals {i} and {j} coincide")
        object.__setattr__(self, "normals", nrm)

    @property
    def point_count(self) -> int:
        return self.resolution[0] * self.resolution[1]

    @property
    def trial_count(self) -> int:
        """Number of trial triplets (point, normal, iota)."""
        return self.point_count * self.normals.shape[0] * len(self.iotas)

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        xmin, xmax, ymin, ymax = self.region
        nx, ny = self.resolution
        xs = np.array([(xmin + xmax) / 2.0]) if nx == 1 else np.linspace(xmin, xmax, nx)
        ys = np.array([(ymin + ymax) / 2.0]) if ny == 1 else np.linspace(ymin, ymax, ny)
        return xs, ys

    def points(self) -> np.ndarray:
        """(nx*ny, 3) sampling points, row-major with x fastest."""
        xs, ys = self.axes()
        X, Y = np.meshgrid(xs, ys)  # Y-major rows
        out = np.column_stack(
            [X.ravel(), Y.ravel(), np.full(X.size, self.plane_z)]
        )
        return out

    def candidates(self) -> list[tuple[np.ndarray, int]]:
        """Deterministic candidate order: iota ascending, then normal index."""
        return [
            (self.normals[k], i)
            for i in sorted(self.iotas)
            for k in range(self.normals.shape[0])
        ]


def build_sampling_grid(
    region, resolution, n_dir: int, iotas, plane_z: float = 0.0
) -> SamplingGrid:
    """Uniform sampling grid with n_dir in-plane normals at angles pi*k/n_dir.

    n_dir counts undirected directions: flipping a trial normal leaves
    the induced pattern unchanged, so only half the circle is spanned.
    """
    if n_dir < 1:
        raise DomainError("n_dir must be >= 1")
    angles = np.pi * np.arange(n_dir) / n_dir
    normals = np.column_stack(
        [np.cos(angles), np.sin(angles), np.zeros(n_dir)]
    )
    return SamplingGrid(
        region=tuple(float(v) for v in region),
        resolution=(int(resolution[0]), int(resolution[1])),
        normals=normals,
        iotas=tuple(int(i) for i in iotas),
        plane_z=plane_z,
    )


# channel sets: a channel couples one excitation type to its reciprocal
# data component (force e_i <-> u_i, fluid injection <-> pore pressure)
CHANNELS_FULL = ("fx", "fy", "fz", "fluid")
CHANNELS_IN_PLANE = ("fx", "fy", "fluid")
CHANNELS_FLUID = ("fluid",)
_CHANNEL_INDEX = {"fx": 0, "fy": 1, "fz": 2, "fluid": 3}

_CHANNEL_SETS = {
    "full": CHANNELS_FULL,
    "in-plane": CHANNELS_IN_PLANE,
    "fluid": CHANNELS_FLUID,
}


def channel_indices(channels: Sequence[str]) -> np.ndarray:
    try:
        return np.array([_CHANNEL_INDEX[c] for c in channels], dtype=int)
    except KeyError as exc:
        raise DomainError(f"unknown channel {exc.args[0]!r}") from None


def resolve_channels(spec) -> tuple[str, ...]:
    """Accept a named channel set or an explicit channel tuple."""
    if isinstance(spec, str):
        if spec not in _CHANNEL_SETS:
            raise DomainError(
                f"unknown channel set {spec!r}; expected one of {sorted(_CHANNEL_SETS)}"
            )
        return _CHANNEL_SETS[spec]
    channels = tuple(spec)
    channel_indices(channels)
    return channels


@dataclass(frozen=True)
class Scene:
    """Sensing grid, fracture patches, sampling grid and active channels.

    Every sensing point keeps a clearance of more than 1e-9 from every
    patch, so no source or observation point lies on a patch.
    """

    grid: SensingGrid
    patches: tuple[FracturePatch, ...]
    sampling: SamplingGrid
    channels: tuple[str, ...] = CHANNELS_IN_PLANE

    def __post_init__(self) -> None:
        object.__setattr__(self, "patches", tuple(self.patches))
        object.__setattr__(self, "channels", resolve_channels(self.channels))
        for pi, patch in enumerate(self.patches):
            dist = patch.distance_to(self.grid.points)
            if dist.min() <= 1e-9:
                raise GeometryError(
                    f"sensing point {int(dist.argmin())} lies on or too close "
                    f"to patch {pi} (clearance {dist.min():.3e})"
                )

    def distance_to_fractures(self, points) -> np.ndarray:
        """Distance from points (..., 3) to the nearest fracture patch."""
        pts = np.asarray(points, dtype=float)
        if not self.patches:
            return np.full(pts.shape[:-1], np.inf)
        return np.min(
            np.stack([p.distance_to(pts) for p in self.patches], axis=0), axis=0
        )
