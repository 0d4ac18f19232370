"""Synthetic multiphysics data generation for fracture scenes.

The scattering operator maps excitation densities on the sensing grid to
scattered displacement/pressure data on the same grid.  It is built as
the composition of three discrete operators:

    trace operator S      : sources on the grid -> incident traces
                            (t, q, p) at every collocation cell,
    interface transfer T  : incident traces -> jump densities
                            ([[u]], [[p]], -[[q]]) per cell,
    radiation operator R  : jump densities -> (u, p) data on the grid,
                            midpoint quadrature with cell areas.

_factors builds a scene's factors once: the collocation cells, S, and the
per-cell contact blocks (D, E) with the local transfer T = D^-1 E.  R is
S's trace kernel read transposed and weighted by the cell areas.  Both
closures, the closure gap and the check suite read that one set.  The
contact law is stated once (_contact_law): the transfer is D^-1 E, and
the interface response whose admissibility check_admissibility decides
is E^-1 D.  A source on a patch cannot occur, as Scene keeps every
sensing point off the patches.

Two interface closures are provided.  The local (Born-type) closure
zeroes the scattered traces in the contact conditions, making T block
diagonal and the whole operator an exact triple product R @ T @ S.  The
interacting closure keeps the scattered traces radiated by cells of
*other* patches (patch-exclusion collocation: couplings internal to one
patch, including the singular self-cell term, are excluded) and solves
the resulting dense system M a = E psi.  When the cells pair up under
the reflection about their mid-plane (_mirror_pairs), as those of
vertical patches centred on one plane do, S folds once into an even and
an odd half over one cell of each pair (_fold), reflected from S over
those cells alone when the sensing points lie on the plane too (the
network-forward trace kernel runs at 160 of 320 cells).  Each half
solves its own half-size block of M, one reciprocal fill, on its own
columns and radiates through its own R; a rounding-level half is not
filled.  An assembly notes in the run's ledger (poroscat.ledger) its
near-singular sensing points and, if interacting, the fill's kernel
pairs, the solve's seconds, residual and block sizes, and the closure
gap ||L - L_loc|| / ||L_loc|| to the local closure L_loc.

Matrix rows and columns are indexed point-major: index = point*C + c
where c runs over the scene's channels, pairing excitation type with its
reciprocal data component (force e_i with u_i, fluid injection with p).

The matrix file (save_matrix, load_matrix) and the indicator map file
(inversion.save_indicator_map, load_indicator_map) share one exchange
layout, written by _write_table.  _read_table reads it in one pass over
the file's bytes, in the written layout only, and gives both loaders one
accessor of the header values.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import astuple, dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from . import ledger
from .errors import (
    CompatibilityError,
    ConditioningError,
    DegenerateContactError,
    DomainError,
    NumericalError,
)
from .greens import _trace_matrix, _dislocation_trace_matrix
from .material import MaterialParams, WaveState
from .scene import (
    ContactParams,
    FracturePatch,
    HIGH_PERMEABILITY,
    Scene,
    channel_indices,
)

logger = logging.getLogger(__name__)

__all__ = [
    "ScatteringMatrix",
    "AdmissibilityReport",
    "assemble_lambda",
    "inject_noise",
    "check_admissibility",
    "interface_response_matrix",
    "save_matrix",
    "load_matrix",
]


# ---------------------------------------------------------------------------
# cell bookkeeping
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _Cells:
    centers: np.ndarray    # (nc, 3)
    areas: np.ndarray      # (nc,)
    normals: np.ndarray    # (nc, 3)
    patch_index: np.ndarray  # (nc,)

    @property
    def count(self) -> int:
        return self.centers.shape[0]


def _collect_cells(patches: Sequence[FracturePatch]) -> _Cells:
    # each list starts with an empty block, for a scene without patches
    centers, areas, normals = [np.zeros((0, 3))], [np.zeros(0)], [np.zeros((0, 3))]
    pidx = [np.zeros(0, dtype=int)]
    for i, patch in enumerate(patches):
        c, a = patch.cells()
        centers.append(c)
        areas.append(a)
        normals.append(np.tile(patch.normal, (c.shape[0], 1)))
        pidx.append(np.full(c.shape[0], i, dtype=int))
    return _Cells(
        centers=np.vstack(centers),
        areas=np.concatenate(areas),
        normals=np.vstack(normals),
        patch_index=np.concatenate(pidx),
    )


# ---------------------------------------------------------------------------
# incident traces (operator S) and radiation (operator conj(S)* with
# cell-area quadrature)
# ---------------------------------------------------------------------------
def _kernel_block(cells: _Cells, points, cidx, wave, params) -> np.ndarray:
    """(5*nc, C*N) trace kernel: unit sources of the channels cidx at the N
    points to the traces at the cells."""
    N, C, nc = points.shape[0], len(cidx), cells.count
    K = _trace_matrix(
        points[None, :, :], cells.centers[:, None, :], cells.normals[:, None, :],
        wave, params,
    )  # (nc, N, 5, 4)
    return K[..., cidx].transpose(0, 2, 1, 3).reshape(5 * nc, C * N)


def _radiation(kernel: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(C*N, 5*n) operator R of a (5*n, C*N) _kernel_block over n cells:
    entry [(p, c), cell] is the reciprocal evaluation of the trace kernel
    (source at point p, trace and normal at the cell), kernel[cell, (p, c)],
    times the cell's weight (its area; see _fold for a parity half's)."""
    return np.ascontiguousarray((np.repeat(weights, 5)[:, None] * kernel).T)


def _near_singular(patches, points) -> np.ndarray:
    """The flags of the sensing points closer to a patch than half its cell
    diagonal (near-singular), with a warning when there are any."""
    near = np.zeros(points.shape[0], dtype=bool)
    for patch in patches:
        n1, n2 = patch.subdivisions
        h1, h2 = patch.half_lengths
        diag = np.hypot(2.0 * h1 / n1, 2.0 * h2 / n2)
        near |= patch.distance_to(points) < 0.5 * diag
    if near.any():
        logger.warning(
            "%d observation point(s) within the near-singular zone", int(near.sum())
        )
    return near


# ---------------------------------------------------------------------------
# contact law and interface transfer (operator T)
# ---------------------------------------------------------------------------
def _contact_law(contact: ContactParams, omega: float, e1, e2, n):
    """The contact conditions D a = E psi of a patch with frame (e1, e2, n),
    as 5x5 matrices (D, E).

    D maps the jump unknowns a = ([[u]], [[p]], -[[q]]) to the closure
    left-hand side; E maps the trace vector (t, q, p) to the right-hand
    side, so that the local transfer is T = D^-1 E and the interface
    response is E^-1 D.  For the high-permeability model the flow
    condition is replaced by [[p]] = 0, and E has no flow row.
    """
    c = contact
    if c.beta_f == 0:
        raise DegenerateContactError("beta_f is zero")
    D = np.zeros((5, 5), dtype=np.complex128)
    E = np.zeros_like(D)
    D[0:3, 0:3] = c.stiffness_matrix(e1, e2, n)
    D[3, 4] = c.k_n * c.beta_f / (c.Pi * c.alpha_f)
    E[0:3, 0:3] = np.eye(3)
    E[0:3, 4] = c.alpha_f_tilde * n
    E[3, 0:3] = c.beta_f * n
    E[3, 4] = 1.0
    if c.model == HIGH_PERMEABILITY:
        D[4, 3] = 1.0  # [[p]] = 0
    else:
        if c.kappa_f == 0:
            raise DegenerateContactError("kappa_f is zero")
        D[4, 3] = c.kappa_f / (1j * omega * c.Pi)
        E[4, 3] = 1.0
    return D, E


def _contact_blocks(
    patches: Sequence[FracturePatch], patch_index: np.ndarray, omega: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell (D, E) of _contact_law, each (nc, 5, 5), gathered by patch."""
    D = np.zeros((len(patches), 5, 5), dtype=np.complex128)
    E = np.zeros_like(D)
    for i, patch in enumerate(patches):
        D[i], E[i] = _contact_law(patch.contact, omega, patch.e1, patch.e2, patch.normal)
    return D[patch_index], E[patch_index]


class _Interface(NamedTuple):
    """Contact law per collocation cell of a set of patches: the cells, the
    blocks (D, E) and the local transfer T = D^-1 E, each (nc, 5, 5)."""

    patches: tuple[FracturePatch, ...]
    cells: _Cells
    D: np.ndarray
    E: np.ndarray
    T: np.ndarray


def _interface(patches: Sequence[FracturePatch], omega: float) -> _Interface:
    cells = _collect_cells(patches)
    D, E = _contact_blocks(patches, cells.patch_index, omega)
    try:
        T = np.linalg.solve(D, E)
    except np.linalg.LinAlgError:
        raise DegenerateContactError("interface stiffness matrix K is singular") from None
    return _Interface(tuple(patches), cells, D, E, T)


def _local_transfer(patches, omega: float) -> np.ndarray:
    """Block-diagonal local transfer blocks, one 5x5 block per cell."""
    return _interface(patches, omega).T


def _blockwise(blocks: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Per-cell 5x5 blocks (nc, 5, 5) applied to a (5*nc, k) block."""
    cells = psi.reshape(blocks.shape[0], 5, psi.shape[1])
    return np.einsum("cij,cjk->cik", blocks, cells).reshape(psi.shape)


class _Coupling(NamedTuple):
    """An interacting closure whose patches interact, as _coupled finds it."""

    wave: WaveState
    params: MaterialParams
    pairs: tuple | None
    signs: np.ndarray | None


def _coupled(interface: _Interface, coupling, points=None, cidx=None) -> _Coupling | None:
    """The interacting closure coupling = (wave, params, cutoff) on an
    interface: None when its patches do not interact, else the wave, the
    material, the cells' _mirror_pairs and, when the sensing points given
    all lie on the mirror plane, the signs Q_src of S's columns (point,
    channel cidx) under the reflection, -1 on fz.  S at a cell's image is
    then Q S[c] Q_src and never evaluated, so one trace-kernel call probes
    it, as _mirror_pairs does M: at 16 (cell of U, point) pairs and their
    images, each image's kernel must match its pair's, reflected, to 1e-12,
    else signs is None.  The pairing and its probes are coupling seconds."""
    wave, params, cutoff = coupling
    if not _patches_interact(interface.patches, wave, cutoff):
        return None
    with ledger.stage("coupling"):
        pairs = _mirror_pairs(interface, wave, params)
        centers, normals = interface.cells.centers, interface.cells.normals
        z = centers[:, 2].min() + centers[:, 2].max()
        if pairs is None or points is None or not (
            np.abs(z - 2.0 * points[:, 2]).max() <= 1e-12 * np.ptp(centers, axis=0).max()
        ):
            return _Coupling(wave, params, pairs, None)
        (U, image), N = pairs, points.shape[0]
        pick = np.linspace(0, U.size * N - 1, min(U.size * N, 16)).astype(int)
        c, y = np.r_[U[pick // N], image[pick // N]], np.tile(points[pick % N], (2, 1))
        K = _trace_matrix(y, centers[c], normals[c], wave, params).reshape(2, -1, 20)
        err = np.linalg.norm(K[1] - K[0] * np.outer(_Q, _Q_SRC).ravel(), axis=1)
        ok = (err <= 1e-12 * np.linalg.norm(K[0], axis=1)).all()
    return _Coupling(wave, params, pairs, np.tile(_Q_SRC[cidx], N) if ok else None)


def _patches_interact(patches, wave, cutoff) -> bool:
    """Whether two or more patches lie within cutoff / min(Im k) of each
    other (always, for cutoff None or a lossless background)."""
    if len(patches) <= 1:
        return False
    if cutoff is None:
        return True
    min_im = wave.min_decay_rate()
    if min_im <= 0.0:
        return True
    reach = cutoff / min_im
    return any(
        q.distance_to(p.cells()[0]).min() <= reach
        for i, p in enumerate(patches)
        for q in patches[i + 1:]
    )


# cell pairs per dislocation-kernel call.  A call's temporaries peak at
# about 2.2 KB per pair (4.5 MiB per call, by tracemalloc), far below the
# 10 MB of the 320-cell network's even block; its full M fills in 78 ms
# with 2048 or 4096 pairs per call and in 89 ms with 512 (2 vCPU)
_PAIR_CHUNK = 2048

# the signs of the trace (t, q, p) and jump ([[u]], [[p]], -[[q]]) components
# under the reflection z -> 2 z0 - z at a horizontal normal, and of the four
# point sources (forces along x, y, z and fluid injection): only z flips
_Q = np.array([1.0, 1.0, -1.0, 1.0, 1.0])
_Q_SRC = np.array([1.0, 1.0, -1.0, 1.0])


def _interaction_matrix(
    interface: _Interface, wave, params, pairs=None, parities=(None,)
) -> list[np.ndarray]:
    """The coupled interface system's blocks over the cells U of pairs
    (_mirror_pairs), one per parity w of parities.

    For pairs None, U is every cell and the one block (w None) is M:
    block (c, d) is D_c for c = d, else -area_d E_c K(c, d) with K = B,
    B(c, d) the traces at c of the dislocation at d, for c and d on
    different patches.  Parity w = +-Q has K_w(c, d) = B(c, d) + B(c, d') w,
    D_c (1 + w) for a cell on the plane (c' = c), and its _unknowns.  As
    K_w(d, c) = K_w(c, d)^T (the Biot system's reciprocity and the
    reflection covariance), a pair is evaluated once, c on the earlier
    patch, for every parity: patch a's cells in U against the later ones
    and the paired ones' images, a few whole rows (about _PAIR_CHUNK
    pairs, counted as kernel_pairs) per kernel call.
    """
    cells, D, E = interface.cells, interface.D, interface.E
    U, image = pairs or (np.arange(cells.count),) * 2
    n, w, plane, diag = U.size, -cells.areas[U], image == U, np.arange(U.size)
    blocks = [np.zeros((n, 5, n, 5), dtype=np.complex128) for _ in parities]
    for A, q in zip(blocks, parities):  # D_c, times 1 + w for a cell on the plane
        A[diag, :, diag, :] = D[U] if q is None else D[U] * (1.0 + q * plane[:, None, None])
    # first cell in U of each patch, and n
    bounds = np.searchsorted(cells.patch_index[U], np.arange(len(interface.patches) + 1))
    for a0, a1 in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        width, paired = n - a1, ~plane[a1:]
        if width == 0:
            continue
        src = np.r_[U[a1:], image[a1:][paired]]  # the later cells, then the paired ones' images
        mate = np.where(paired, width - 1 + paired.cumsum(), np.arange(width))  # d' in src
        Et, step = E[U[a1:]].transpose(0, 2, 1), max(1, _PAIR_CHUNK // src.size)
        for r0 in range(a0, a1, step):
            r1 = min(r0 + step, a1)
            i, j = np.repeat(U[r0:r1], src.size), np.tile(src, r1 - r0)
            B = _dislocation_trace_matrix(
                cells.centers[j], cells.normals[j], cells.centers[i], cells.normals[i],
                wave, params,
            ).reshape(r1 - r0, src.size, 5, 5)
            ledger.count("kernel_pairs", i.size)
            for A, q in zip(blocks, parities):
                K = B[:, :width] if q is None else B[:, :width] + B[:, mate] * q
                # A[c, r, d, s] = -area_d (E_a K(c, d))[r, s]
                Kd = (K * w[None, a1:, None, None]).transpose(2, 0, 1, 3).reshape(5, -1)
                EK = (E[U[a0]] @ Kd).reshape(5, r1 - r0, width, 5)
                A[r0:r1, :, a1:, :] = EK.transpose(1, 0, 2, 3)
                # A[d, r, c, s] = -area_c (E_d K(c, d)^T)[r, s]
                Kc = (K * w[r0:r1, None, None, None]).transpose(1, 0, 2, 3)
                ek = Kc.reshape(width, 5 * (r1 - r0), 5) @ Et
                A[a1:, :, r0:r1, :] = ek.reshape(width, r1 - r0, 5, 5).transpose(0, 3, 1, 2)
    keeps = [_unknowns(pairs, q) for q in parities]
    return [A.reshape(5 * n, 5 * n)[keep][:, keep] for A, keep in zip(blocks, keeps)]


def _cond(A: np.ndarray) -> float:
    """2-norm condition number of A; inf for a non-finite A, whose SVD
    would fail."""
    return float(np.linalg.cond(A)) if np.all(np.isfinite(A)) else float("inf")


def _mirror_pairs(interface: _Interface, wave, params):
    """The cells U, one of each pair under the reflection z -> 2 z0 - z
    about the mid-point z0 of the cells' z-range, and their images U' (a
    cell on the plane is its own), or None when the cells do not pair up.

    Partners lie on one patch, with centres matched to within 1e-12 of
    the cells' extent, and the partner's D and E are Q D Q and Q E Q,
    Q = diag(_Q) (for E, as beta_f != 0, only at a horizontal normal).
    The kernels are reflection-covariant there, K(Py, Pz) = Q K(y, z) Q,
    so M commutes with the signed cell swap.  The reflected half of every
    block rests on that identity and is never evaluated, so one kernel
    call probes it: at 64 off-patch pairs spread over all and at their
    images, each image's kernel must match to 1e-12 of its pair's.
    """
    cells, D, E = interface.cells, interface.D, interface.E
    c = cells.centers.T.copy()  # (3, nc), contiguous for the (3, nc, nc) gaps
    lo, hi = c.min(axis=1), c.max(axis=1)
    image = c.copy()
    image[2] = lo[2] + hi[2] - c[2]
    gap = np.abs(image[:, :, None] - c[:, None, :]).max(axis=0)
    same = cells.patch_index[:, None] == cells.patch_index[None, :]
    close = (gap <= 1e-12 * (hi - lo).max()) & same
    if not (close.sum(axis=1) == 1).all():
        return None
    mirror = close.argmax(axis=1)
    flip = np.outer(_Q, _Q)
    if not (
        (mirror[mirror] == np.arange(cells.count)).all()
        and np.array_equal(D[mirror], D * flip)
        and np.array_equal(E[mirror], E * flip)
    ):
        return None
    i, j = np.nonzero(~same)
    pick = np.linspace(0, i.size - 1, min(i.size, 64)).astype(int)
    i, j = np.r_[i[pick], mirror[i[pick]]], np.r_[j[pick], mirror[j[pick]]]
    B = _dislocation_trace_matrix(
        cells.centers[j], cells.normals[j], cells.centers[i], cells.normals[i], wave, params
    ).reshape(2, -1, 25)
    err = np.linalg.norm(B[1] - B[0] * flip.ravel(), axis=1)
    U = np.flatnonzero(mirror >= np.arange(cells.count))
    return (U, mirror[U]) if (err <= 1e-12 * np.linalg.norm(B[0], axis=1)).all() else None


def _unknowns(pairs, w):
    """Index of parity w's unknowns among the five of each cell in U: all
    but those with w = -1 of a cell on the plane (all for w None)."""
    keep = None if w is None else ((pairs[1] != pairs[0])[:, None] | (w > 0)).ravel()
    return slice(None) if keep is None or keep.all() else keep


def _parities(E: np.ndarray, halves, k: int) -> tuple[np.ndarray, list]:
    """rhs_U = E S over the rows U (E = E_U, k columns) from the halves
    (w, cols, S_w, R_w) of _fold, and the part (w, cols, E S_w, R_w) of
    each half whose E S_w has norm above 1e-14 ||rhs_U||."""
    parts = [(w, cols, _blockwise(E, S), R) for w, cols, S, R in halves]
    eqs = np.zeros((5 * E.shape[0], k), dtype=np.complex128)
    for _, cols, rhs, _ in parts:
        eqs[:, cols] += rhs
    floor = 1e-14 * np.linalg.norm(eqs)
    return eqs, [part for part in parts if np.linalg.norm(part[2]) > floor]


def _coupled_solve(blocks, eqs: np.ndarray, parts, pairs=None) -> list[np.ndarray]:
    """Jumps x_w of the coupled interface system M a = rhs, one per part
    (w, cols, rhs_w, _) of _parities: block w (_interaction_matrix, over
    the cells U of pairs) solves rhs_w for its _unknowns on the columns
    cols, zero elsewhere.  The ledger gets ||M a - rhs_U|| / ||rhs_U||
    over the rows U, rhs_U = eqs (coupled_residual), and the block sizes
    (coupled_blocks).  A non-finite block or rhs (condition number inf), a
    singular block (its own) and a non-finite or large residual (the
    blocks' largest) raise ConditioningError.
    """
    if not (all(np.isfinite(A).all() for A in blocks) and np.isfinite(eqs).all()):
        raise ConditioningError("coupled interface system has non-finite entries")
    res, xs = -eqs, []
    for A, (w, cols, rhs, _) in zip(blocks, parts):
        keep, x = _unknowns(pairs, w), np.zeros_like(rhs)
        try:
            x[keep] = np.linalg.solve(A, rhs[keep])
        except np.linalg.LinAlgError as exc:
            raise ConditioningError(
                f"coupled interface system is singular: {exc}", condition_number=_cond(A)
            ) from None
        fit = np.zeros_like(rhs)  # after the LU, whose copy of A is the run's peak
        fit[keep] = A @ x[keep]
        res[:, cols] += fit
        xs.append(x)
    # rhs_U = 0 with a non-zero image half: the parts' scale
    scale = np.linalg.norm(eqs) or np.linalg.norm([np.linalg.norm(p[2]) for p in parts])
    res = float(np.linalg.norm(res) / scale) if scale > 0.0 else 0.0
    if not res <= 1e-8:  # NaN included
        cond = max(map(_cond, blocks), default=np.inf) if np.isfinite(res) else np.inf
        raise ConditioningError(f"coupled interface solve residual {res:.3e}", cond)
    ledger.note("coupled_residual", res)
    ledger.note("coupled_blocks", [A.shape[0] for A in blocks])
    return xs


# ---------------------------------------------------------------------------
# scattering operator
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScatteringMatrix:
    """Dense data operator with point-major (point, channel) indexing;
    its fields are those of the file format."""

    data: np.ndarray
    channels: tuple[str, ...]
    n_points: int
    omega: float
    kind: str = "clean"
    mode: str = "local"
    epsilon: float | None = None
    seed: int | None = None
    delta: float | None = None
    scene: str | None = None  # _scene_digest of its scene; None: not checked

    def __post_init__(self) -> None:
        n = self.n_points * len(self.channels)
        if self.data.shape != (n, n):
            raise CompatibilityError(
                f"matrix shape {self.data.shape} does not match "
                f"{self.n_points} points x {len(self.channels)} channels"
            )
        if self.kind not in ("clean", "noisy"):
            raise DomainError(f"kind must be clean|noisy, got {self.kind!r}")

    @property
    def size(self) -> int:
        return self.data.shape[0]


class _Factors(NamedTuple):
    """One scene's factors of L = R T S: the interface (cells, D, E and T),
    S (5*n, C*N) over every cell or, as _factors says, the cells U alone,
    and the _Coupling they were built for.  R is each parity half's (_fold)."""

    interface: _Interface
    S: np.ndarray
    coupled: _Coupling | None = None


def _factors(scene: Scene, wave, params, coupling=None) -> _Factors:
    """The factors of a scene, each built once.  For the interacting closure
    (coupling as in _coupled) whose S at a cell's image is Q S[c] Q_src
    (its signs set), S holds the cells U alone."""
    interface = _interface(scene.patches, wave.omega)
    cells, points, cidx = interface.cells, scene.grid.points, channel_indices(scene.channels)
    coupled = coupling and _coupled(interface, coupling, points, cidx)
    if coupled and coupled.signs is not None:
        U = coupled.pairs[0]
        cells = _Cells(cells.centers[U], cells.areas[U], cells.normals[U], cells.patch_index[U])
    return _Factors(interface, _kernel_block(cells, points, cidx, wave, params), coupled)


def _trace_operator(scene: Scene, wave, params) -> np.ndarray:
    """(5*nc, C*N) operator S: grid excitations to cell traces."""
    return _factors(scene, wave, params).S


def _radiation_operator(scene: Scene, wave, params) -> np.ndarray:
    """(C*N, 5*nc) operator R: cell jump densities to grid data."""
    factors = _factors(scene, wave, params)
    return _radiation(factors.S, factors.interface.cells.areas)


def _fold(factors: _Factors, coupled) -> list[tuple]:
    """The parity halves (w, cols, S_w, R_w) of a scene's traces, each held
    on its columns cols, those where it is not all zero (a slice when all;
    a zero half is left out).  An unpaired scene is the one half
    (None, cols, S, (W S)^T), W the cell areas.  A paired one has
    S_w = (S[U] + w S[U']) / 2 over the cells U, w = +-Q, where w S[U'] is
    +-S[U] Q_src for S over U alone (signs set: a half is S on the columns
    of its sign, zero on the rest) and +-Q S[U'] otherwise.  As
    a[c'] = w a[c], and a cell on the plane (c' = c) holds half its jump
    in x (its diagonal in block w is D_c (1 + w)), L = sum_w R_w x_w with
    R_w = (2 W_U S_w)^T.
    """
    S, areas, k = factors.S, factors.interface.cells.areas, factors.S.shape[1]
    halves = [(None, S, None)]
    if coupled and coupled.pairs:
        (U, image), signs = coupled.pairs, coupled.signs
        areas = 2.0 * areas[U]
        if signs is None:
            S4 = S.reshape(-1, 5, k)
            SU, QS = S4[U], _Q[:, None] * S4[image]
            halves = [(_Q, 0.5 * (SU + QS), None), (-_Q, 0.5 * (SU - QS), None)]
        else:
            halves = [(_Q, S, signs > 0), (-_Q, S, signs < 0)]
    folded = []
    for w, S_w, on in halves:
        S_w = S_w.reshape(-1, k)
        on = S_w.any(axis=0) if on is None else on
        if on.any():
            cols = slice(None) if on.all() else np.flatnonzero(on)
            S_w = S_w[:, cols]
            folded.append((w, cols, S_w, _radiation(S_w, areas)))
    return folded


def _radiate(k: int, halves, jumps) -> np.ndarray:
    """The (k, k) data sum_w R_w y_w of the halves (w, cols, _, R_w) of
    _fold, each on the rows and columns cols (a slice when all)."""
    data = np.zeros((k, k), dtype=np.complex128)
    for (_, cols, _, R), y in zip(halves, jumps):
        data[(cols, cols) if isinstance(cols, slice) else np.ix_(cols, cols)] += R @ y
    return data


def _scattering_data(factors: _Factors, coupling=None) -> np.ndarray:
    """L = R T S from a scene's factors: sum_w R_w y_w over the halves of
    _fold, with y_w = T_U S_w (halved on a cell on the plane) for the local
    closure.  For the interacting one (coupling as in _coupled; its
    _Coupling is the factors' or, for factors built without it, found
    here) y_w is _coupled_solve's x_w; the ledger gets the seconds of the
    parts and fill (coupling) and of the solve (solve), and the closure
    gap ||L - L_loc|| / ||L_loc|| to the local closure of the same halves
    (0 when the patches do not interact).
    """
    interface, coupled, k = factors.interface, factors.coupled, factors.S.shape[1]
    if coupling is not None and coupled is None:
        coupled = _coupled(interface, coupling)
    halves, pairs = _fold(factors, coupled), coupled and coupled.pairs
    U, T = slice(None), interface.T
    if pairs:
        U = pairs[0]
        T = T[U] / (1.0 + (pairs[1] == U))[:, None, None]
    data = local = _radiate(k, halves, [_blockwise(T, S) for _, _, S, _ in halves])
    if coupled:
        with ledger.stage("coupling"):
            eqs, parts = _parities(interface.E[U], halves, k)
            parities = [w for w, *_ in parts]
            blocks = _interaction_matrix(interface, coupled.wave, coupled.params, pairs, parities)
        with ledger.stage("solve"):
            jumps = _coupled_solve(blocks, eqs, parts, pairs)
        data = _radiate(k, parts, jumps)
    if not np.isfinite(data).all():
        raise NumericalError(
            "the scattering matrix has non-finite entries: the kernels left double "
            "range for this scene, material and frequency"
        )
    if coupling is not None:
        scale = np.linalg.norm(local)
        gap = float(np.linalg.norm(data - local) / scale) if scale > 0.0 else 0.0
        ledger.note("closure_gap", gap)
    return data


def _scene_digest(scene: Scene, params: MaterialParams) -> str:
    """The sha256 hex digest that binds a matrix to its scene: the sensing
    points' coordinates, the nine material constants and the channels."""
    digest = hashlib.sha256(np.ascontiguousarray(scene.grid.points, dtype="<f8").tobytes())
    digest.update(np.array(astuple(params), dtype="<f8").tobytes())
    digest.update(",".join(scene.channels).encode("ascii"))
    return digest.hexdigest()


def assemble_lambda(
    scene: Scene,
    wave: WaveState,
    params: MaterialParams,
    mode: str = "local",
    cutoff: float | None = None,
) -> ScatteringMatrix:
    """Assemble the discrete scattering operator of a scene.

    Column block j holds the scattered (u, p) data at every grid point
    for a unit excitation of channel j; the operator is the composition
    R T S of radiation, interface transfer and incident traces.  In
    interacting mode the patches couple when they lie within cutoff /
    min(Im k) of each other, or always for cutoff None.
    """
    if mode not in ("local", "interacting"):
        raise DomainError(f"mode must be local|interacting, got {mode!r}")
    if cutoff is not None and not cutoff >= 0.0:  # NaN included
        raise DomainError(f"cutoff must be >= 0, got {cutoff!r}")
    coupling = (wave, params, cutoff) if mode == "interacting" else None
    factors = _factors(scene, wave, params, coupling)
    near = _near_singular(scene.patches, scene.grid.points)
    ledger.note("near_singular_points", int(near.sum()))
    data = _scattering_data(factors, coupling)
    logger.info(
        "assembled %dx%d scattering matrix (%s mode, %d cells)",
        data.shape[0], data.shape[1], mode, factors.interface.cells.count,
    )
    return ScatteringMatrix(
        data=data,
        channels=scene.channels,
        n_points=scene.grid.count,
        omega=wave.omega,
        kind="clean",
        mode=mode,
        scene=_scene_digest(scene, params),
    )


def inject_noise(
    matrix: ScatteringMatrix,
    epsilon: float | None = None,
    target_delta: float | None = None,
    seed: int = 0,
) -> ScatteringMatrix:
    """Perturb the operator multiplicatively: L_noisy = (I + N) L.

    N has real and imaginary parts i.i.d. uniform on [-eps, eps], drawn
    row-major from a generator seeded with ``seed`` (real parts first).
    When target_delta is given, N is rescaled once so that the spectral
    norm ||N L||_2 hits the target (to rounding).  The achieved value,
    ||N L||_2 times that scale, is recorded as ``delta``.
    """
    if (epsilon is None) == (target_delta is None):
        raise DomainError("give exactly one of epsilon or target_delta")
    if epsilon is not None and epsilon < 0.0:
        raise DomainError(f"epsilon must be >= 0, got {epsilon}")
    if target_delta is not None and target_delta < 0.0:
        raise DomainError(f"target_delta must be >= 0, got {target_delta}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    n = matrix.size
    eps = 1.0 if epsilon is None else epsilon
    if eps == 0.0 or (target_delta is not None and target_delta == 0.0):
        return replace(
            matrix, kind="noisy", epsilon=0.0, seed=seed, delta=0.0,
            data=matrix.data.copy(),
        )
    rng = np.random.default_rng(seed)
    noise = rng.uniform(-eps, eps, (n, n)) + 1j * rng.uniform(-eps, eps, (n, n))
    NL = noise @ matrix.data
    delta = float(np.linalg.norm(NL, 2))
    if target_delta is not None:
        if delta == 0.0:
            raise DomainError(
                f"target_delta = {target_delta!r} is unreachable: the operator is zero"
            )
        scale = target_delta / delta
        NL *= scale
        eps *= scale
        delta *= scale
    return replace(
        matrix,
        data=matrix.data + NL,
        kind="noisy",
        epsilon=float(eps),
        seed=seed,
        delta=delta,
    )


# ---------------------------------------------------------------------------
# contact-law admissibility
# ---------------------------------------------------------------------------
def interface_response_matrix(contact: ContactParams, omega: float) -> np.ndarray:
    """5x5 matrix P = E^-1 D of the interface operator in the jump basis,
    with (D, E) of _contact_law in the frame (e1, e2, n) = (x, y, z).

    Maps phi = ([[u]] (3), [[p]], -[[q]]) to the total-trace triple
    (t + t_inc (3), <q> + q_inc, <p> + p_inc) implied by the contact
    conditions.  For the high-permeability model the [[p]] column and
    flow row vanish (the pressure jump is constrained to zero).
    """
    D, E = _contact_law(contact, omega, *np.eye(3))
    if abs(1.0 - contact.alpha_f_tilde * contact.beta_f) < 1e-14:
        raise DegenerateContactError("1 - alpha_f_tilde*beta_f vanishes")
    high = contact.model == HIGH_PERMEABILITY
    if high:
        E[4, 3] = 1.0  # this law has no flow row; P's is zeroed below
    P = np.linalg.solve(E, D)
    if high:
        P[3] = P[:, 3] = 0.0
    return P


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    worst_imag: float
    tolerance: float


def check_admissibility(contact: ContactParams, wave: WaveState) -> AdmissibilityReport:
    """Exact well-posedness check of the interface operator.

    With the duality pairing aligned componentwise with the jump basis,
    the supremum of Im <P phi, phi> over unit 5-vectors phi is the largest
    eigenvalue of the Hermitian part (P - P^H) / 2i.  The contact law is
    admissible when it is <= 0 (within 1e-12 of the matrix scale).
    """
    P = interface_response_matrix(contact, wave.omega)
    worst = float(np.linalg.eigvalsh((P - P.conj().T) / 2j)[-1])
    tol = 1e-12 * max(1.0, float(np.linalg.norm(P)))
    return AdmissibilityReport(admissible=worst <= tol, worst_imag=worst, tolerance=tol)


# ---------------------------------------------------------------------------
# exchange format
# ---------------------------------------------------------------------------
# The matrix and map files share one layout: a '# <tag>' line, one
# '# key = value' line per header field, then one line of comma-separated
# numbers per row (floats to 17 significant digits: a bit-exact round trip).
_FORMAT_TAG = "poroscat-matrix v1"


def _text(value) -> str:
    """A header value as written: none, a float to 17 digits, or the
    comma-joined texts of a tuple."""
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ",".join(_text(v) for v in value)
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _write_table(path, tag: str, header: dict, row_format: str, fields) -> None:
    """Write a file in the exchange layout: the header's values by _text,
    then row_format once per row of the flat sequence fields."""
    rows = len(fields) // row_format.count("%")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# {tag}\n")
        fh.writelines(f"# {key} = {_text(value)}\n" for key, value in header.items())
        fh.write((row_format * rows) % tuple(fields))


def save_matrix(matrix: ScatteringMatrix, path) -> None:
    """One 're,im' row per entry, row-major."""
    parts = np.asarray(matrix.data, dtype=np.complex128).ravel().view(np.float64).tolist()
    header = {
        "kind": matrix.kind, "mode": matrix.mode, "n_points": matrix.n_points,
        "channels": matrix.channels, "omega": matrix.omega, "epsilon": matrix.epsilon,
        "seed": matrix.seed, "delta": matrix.delta, "scene": matrix.scene,
    }
    _write_table(path, _FORMAT_TAG, header, "%.17g,%.17g\n", parts)


def _non_negative(cast):
    """cast, refusing negative and non-finite results with ValueError."""
    def checked(text: str):
        value = cast(text)
        if not 0 <= value < float("inf"):
            raise ValueError(text)
        return value
    return checked


# the bytes written numbers are made of, the letters of nan and inf
# included: deleting them from a body in the written layout leaves exactly
# width - 1 commas and a newline per row
_NUMBER_BYTES = b"0123456789.eE+-naninf"


def _rows(body: bytes, width: int) -> np.ndarray | None:
    """The (n, width) rows of a body in the written layout, else None."""
    seps = body.translate(None, _NUMBER_BYTES)
    n = len(seps) // width
    if seps != (b"," * (width - 1) + b"\n") * n:
        return None
    try:
        return np.array(body.replace(b",", b"\n").split(), dtype=np.float64).reshape(n, width)
    except ValueError:
        return None


def _read_table(path, tag: str, width: int, what: str, fault: str, ok):
    """(field, rows) of a file in the exchange layout, read once as bytes:
    the accessor of its header values and its body as an (n, width) array.

    The body is parsed in one pass, and only in the layout _write_table
    writes, its final newline optional.  ok(rows) masks the rows a caller
    accepts.  Any other body (CR LF line ends, blank or comment lines
    between rows, a row that does not parse or that ok refuses) raises
    CompatibilityError naming its first such line: 'unparsable <what>' or
    '<fault> <what>'.  field(key, cast=str, optional=False) reads header
    value key by cast, None for an optional key absent or 'none'; a missing
    key, or a value cast refuses with ValueError, raises CompatibilityError.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.isascii():
        raise CompatibilityError(f"{path}: not an ASCII text file")
    if not raw.endswith(b"\n"):
        raw += b"\n"
    first = f"# {tag}\n".encode("ascii")
    if not raw.startswith(first):
        raise CompatibilityError(f"{path}: not a {tag} file: {raw[:len(first)].decode()!r}")
    pos = len(first)
    while raw.startswith(b"#", pos):
        pos = raw.find(b"\n", pos) + 1
    body = raw[pos:]
    rows = _rows(body, width)
    if rows is None or not ok(rows).all():
        # the first line that is not a row ok accepts: the empty piece after
        # the final newline never parses, so the scan always names one
        for line in body.split(b"\n"):
            row = _rows(line + b"\n", width)
            if row is None or not ok(row)[0]:
                kind = "unparsable" if row is None else fault
                raise CompatibilityError(f"{path}: {kind} {what} {line.decode()!r}")
    pairs = (line[1:].partition("=") for line in raw[len(first):pos].decode().splitlines())
    header = {key.strip(): value.strip() for key, _, value in pairs}

    def field(key, cast=str, optional=False):
        if optional and header.get(key, "none") == "none":
            return None
        if key not in header:
            raise CompatibilityError(f"{path}: missing header field {key!r}")
        try:
            return cast(header[key])
        except ValueError:
            raise CompatibilityError(
                f"{path}: bad header value {key} = {header[key]!r}"
            ) from None

    return field, rows


def load_matrix(path) -> ScatteringMatrix:
    field, rows = _read_table(
        path, _FORMAT_TAG, 2, "matrix entry", "non-finite",
        lambda rows: np.isfinite(rows).all(axis=1),
    )
    values = rows.view(np.complex128).ravel()
    n_points = field("n_points", _non_negative(int))
    channels = tuple(field("channels").split(","))
    n = n_points * len(channels)
    if values.size != n * n:
        raise CompatibilityError(
            f"{path}: expected {n*n} entries, found {values.size}"
        )
    return ScatteringMatrix(
        data=values.reshape(n, n),
        channels=channels,
        n_points=n_points,
        omega=field("omega", _non_negative(float)),
        kind=field("kind"),
        mode=field("mode"),
        epsilon=field("epsilon", _non_negative(float), optional=True),
        seed=field("seed", int, optional=True),
        delta=field("delta", _non_negative(float), optional=True),
        scene=field("scene", optional=True),
    )
