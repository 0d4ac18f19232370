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

One builder each makes S and R for any points and channels, and one
transfer function applies T to a block of trace columns.  R is S's trace
kernel read transposed and weighted by the cell areas, so the R builder
takes the kernel block the S builder evaluated.  The per-source
functions (incident_traces, local_jump_solve, interacting_jump_solve,
radiate) are one-point, one-column uses of them, and assemble_lambda is
their whole-grid use, so both run the same guards: the S builder rejects
a source on a patch, the R builder flags points in a patch's
near-singular zone.

Two interface closures are provided.  The local (Born-type) closure
zeroes the scattered traces in the contact conditions, making T block
diagonal and the whole operator an exact triple product R @ T @ S.  The
interacting closure keeps the scattered traces radiated by cells of
*other* patches (patch-exclusion collocation: couplings internal to one
patch, including the singular self-cell term, are excluded) and solves
the resulting dense linear system.

Matrix rows and columns are indexed point-major: index = point*C + c
where c runs over the scene's channels, pairing excitation type with its
reciprocal data component (force e_i with u_i, fluid injection with p).
"""

from __future__ import annotations

import cmath
import io
import logging
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import (
    CompatibilityError,
    ConditioningError,
    DegenerateContactError,
    DomainError,
    NumericalError,
    SingularityError,
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
    "TraceState",
    "JumpState",
    "ScatteringMatrix",
    "RadiatedField",
    "AdmissibilityReport",
    "incident_traces",
    "local_jump_solve",
    "interacting_jump_solve",
    "radiate",
    "assemble_lambda",
    "inject_noise",
    "check_admissibility",
    "interface_response_matrix",
    "save_matrix",
    "load_matrix",
]

_SOURCE_NAMES = {"fx": 0, "fy": 1, "fz": 2, "fluid": 3}


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
    centers, areas, normals, pidx = [], [], [], []
    for i, patch in enumerate(patches):
        c, a = patch.cells()
        centers.append(c)
        areas.append(a)
        normals.append(np.tile(patch.normal, (c.shape[0], 1)))
        pidx.append(np.full(c.shape[0], i, dtype=int))
    if not centers:
        return _Cells(
            centers=np.zeros((0, 3)),
            areas=np.zeros(0),
            normals=np.zeros((0, 3)),
            patch_index=np.zeros(0, dtype=int),
        )
    return _Cells(
        centers=np.vstack(centers),
        areas=np.concatenate(areas),
        normals=np.vstack(normals),
        patch_index=np.concatenate(pidx),
    )


# ---------------------------------------------------------------------------
# incident traces (operator S)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TraceState:
    """Incident traces at every collocation cell for one point source."""

    traction: np.ndarray  # (nc, 3)
    flow: np.ndarray      # (nc,)
    pressure: np.ndarray  # (nc,)

    def as_vector(self) -> np.ndarray:
        """Cell-major 5-vector layout (t1, t2, t3, q, p) per cell."""
        out = np.empty(5 * self.traction.shape[0], dtype=np.complex128)
        out.reshape(-1, 5)[:, 0:3] = self.traction
        out.reshape(-1, 5)[:, 3] = self.flow
        out.reshape(-1, 5)[:, 4] = self.pressure
        return out

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "TraceState":
        m = np.asarray(vec).reshape(-1, 5)
        return cls(traction=m[:, 0:3], flow=m[:, 3], pressure=m[:, 4])


def _kernel_block(cells: _Cells, points, cidx, wave, params) -> np.ndarray:
    """(5*nc, C*N) trace kernel: unit sources of the channels cidx at the N
    points to the traces at the cells."""
    N, C, nc = points.shape[0], len(cidx), cells.count
    K = _trace_matrix(
        points[None, :, :], cells.centers[:, None, :], cells.normals[:, None, :],
        wave, params,
    )  # (nc, N, 5, 4)
    return K[..., cidx].transpose(0, 2, 1, 3).reshape(5 * nc, C * N)


def _trace_block(patches, points, cidx, wave, params) -> np.ndarray:
    """(5*nc, C*N) operator S: unit sources of the channels cidx at the N
    points to the cell traces.  A source on a patch is rejected."""
    for pi, patch in enumerate(patches):
        on = np.flatnonzero(patch.distance_to(points) < 1e-12)
        if on.size:
            raise SingularityError(f"source point {points[on[0]]} lies on patch {pi}")
    return _kernel_block(_collect_cells(patches), points, cidx, wave, params)


def _trace_operator(scene: Scene, wave, params) -> np.ndarray:
    """(5*nc, C*N) operator: grid excitations to cell traces."""
    cidx = channel_indices(scene.channels)
    return _trace_block(scene.patches, scene.grid.points, cidx, wave, params)


def incident_traces(
    y,
    source_type,
    patches: Sequence[FracturePatch],
    wave: WaveState,
    params: MaterialParams,
    amplitude: complex = 1.0,
) -> TraceState:
    """Traces of the incident field of a unit point source at y on all cells.

    source_type is one of "fx", "fy", "fz", "fluid" (or the index 0..3).
    The result is linear in amplitude (applied as a final scaling).
    """
    y = np.asarray(y, dtype=float).reshape(1, 3)
    if isinstance(source_type, str):
        src = _SOURCE_NAMES.get(source_type)
        if src is None:
            raise DomainError(f"unknown source type {source_type!r}")
    else:
        src = int(source_type)
        if not 0 <= src <= 3:
            raise DomainError(f"source type index must be 0..3, got {src}")
    col = _trace_block(patches, y, [src], wave, params)[:, 0]
    return TraceState.from_vector(amplitude * col)


# ---------------------------------------------------------------------------
# interface transfer (operator T)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class JumpState:
    """Jump densities per cell: [[u]] (3), [[p]], and -[[q]]."""

    u_jump: np.ndarray      # (nc, 3)
    p_jump: np.ndarray      # (nc,)
    neg_q_jump: np.ndarray  # (nc,)

    def as_vector(self) -> np.ndarray:
        out = np.empty(5 * self.u_jump.shape[0], dtype=np.complex128)
        m = out.reshape(-1, 5)
        m[:, 0:3] = self.u_jump
        m[:, 3] = self.p_jump
        m[:, 4] = self.neg_q_jump
        return out

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "JumpState":
        m = np.asarray(vec).reshape(-1, 5)
        return cls(u_jump=m[:, 0:3], p_jump=m[:, 3], neg_q_jump=m[:, 4])


def _contact_blocks(
    patches: Sequence[FracturePatch], patch_index: np.ndarray, omega: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell interface matrices (D, E), each (nc, 5, 5), gathered by patch.

    D maps the jump unknowns a = ([[u]], [[p]], -[[q]]) to the closure
    left-hand side; E maps the trace vector (t, q, p) to the right-hand
    side, so that the local transfer is T = D^-1 E.  For the
    high-permeability model the flow condition is replaced by [[p]] = 0.
    """
    D = np.zeros((len(patches), 5, 5), dtype=np.complex128)
    E = np.zeros_like(D)
    for i, patch in enumerate(patches):
        c, n = patch.contact, patch.normal
        K = c.stiffness_matrix(patch.e1, patch.e2, n)
        if c.k_n == 0:
            raise DegenerateContactError("k_n is zero")
        if c.beta_f == 0:
            raise DegenerateContactError("beta_f is zero")
        D[i, 0:3, 0:3] = K
        D[i, 3, 4] = c.k_n * c.beta_f / (c.Pi * c.alpha_f)
        E[i, 0:3, 0:3] = np.eye(3)
        E[i, 0:3, 4] = c.alpha_f_tilde * n
        E[i, 3, 0:3] = c.beta_f * n
        E[i, 3, 4] = 1.0
        if c.model == HIGH_PERMEABILITY:
            D[i, 4, 3] = 1.0  # [[p]] = 0
        else:
            if c.kappa_f == 0:
                raise DegenerateContactError("kappa_f is zero")
            D[i, 4, 3] = c.kappa_f / (1j * omega * c.Pi)
            E[i, 4, 3] = 1.0
    return D[patch_index], E[patch_index]


def _transfer(patches, psi: np.ndarray, omega: float, coupling=None) -> np.ndarray:
    """Interface transfer T: a (5*nc, k) trace block to its jump block.

    coupling is None for the local closure, or (wave, params, cutoff) for
    the interacting one, which reduces to the local closure when
    _patches_interact says the patches do not couple.
    """
    cells = _collect_cells(patches)
    nc = cells.count
    if psi.shape[0] != 5 * nc:
        raise CompatibilityError(
            f"trace block has {psi.shape[0] // 5} cells, patches have {nc}"
        )
    D, E = _contact_blocks(patches, cells.patch_index, omega)
    blocks = psi.reshape(nc, 5, psi.shape[1])
    if coupling is not None:
        wave, params, cutoff = coupling
        if _patches_interact(patches, wave, cutoff):
            rhs = np.einsum("cij,cjk->cik", E, blocks).reshape(psi.shape)
            return _coupled_solve(_interaction_matrix(cells, D, E, wave, params), rhs)
    try:
        T = np.linalg.solve(D, E)
    except np.linalg.LinAlgError:
        raise DegenerateContactError("interface stiffness matrix K is singular") from None
    return np.einsum("cij,cjk->cik", T, blocks).reshape(psi.shape)


def _local_transfer(patches, omega: float) -> np.ndarray:
    """Block-diagonal local transfer blocks, one 5x5 block per cell: the
    local closure applied to unit traces."""
    nc = sum(p.cell_count for p in patches)
    return _transfer(patches, np.tile(np.eye(5), (nc, 1)), omega).reshape(nc, 5, 5)


def local_jump_solve(
    traces: TraceState, patches: Sequence[FracturePatch], wave: WaveState
) -> JumpState:
    """Born-type local closure: scattered traces are zeroed cell by cell.

        [[u]]  = K^-1 (t + alpha_f_tilde p n)
        [[p]]  = (i omega Pi / kappa_f) q     (0 for high permeability)
        -[[q]] = (Pi alpha_f / (k_n beta_f)) (p + beta_f t.n)
    """
    a = _transfer(patches, traces.as_vector()[:, None], wave.omega)
    return JumpState.from_vector(a[:, 0])


def interacting_jump_solve(
    traces: TraceState,
    patches: Sequence[FracturePatch],
    wave: WaveState,
    params: MaterialParams,
    cutoff: float | None = 50.0,
) -> JumpState:
    """Coupled closure with inter-patch scattered traces retained.

    Each cell's contact conditions see the traces radiated by the cells
    of every *other* patch (patch-exclusion collocation).  Reduces to the
    local closure for a single patch, or when all patch pairs are farther
    apart than cutoff / min(Im k) (set cutoff=None to force the solve).
    """
    coupling = (wave, params, cutoff)
    a = _transfer(patches, traces.as_vector()[:, None], wave.omega, coupling)
    return JumpState.from_vector(a[:, 0])


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


# off-patch cell pairs per dislocation-kernel call.  At 432 bytes per pair
# the largest kernel temporary stays under numpy's 256 KiB threshold for
# computing expressions in place on temporaries, which rounds complex
# products differently; M then matches a cell-by-cell build to the last
# bits, and the kernel's memory stays well below that of the LU.
_PAIR_CHUNK = 512


def _interaction_matrix(cells: _Cells, D, E, wave, params) -> np.ndarray:
    """Dense (5*nc, 5*nc) matrix of the coupled interface system.

    Block (i, i) is D of cell i.  Block (i, j) of an off-patch pair is
    -area_j E_i B_ij, B_ij the traces at cell i of the dislocation at
    cell j; pairs on one patch, the self-cell included, are excluded.
    """
    nc = cells.count
    M = np.zeros((nc, 5, nc, 5), dtype=np.complex128)
    diag = np.arange(nc)
    M[diag, :, diag, :] = D
    rows, cols = np.nonzero(cells.patch_index[:, None] != cells.patch_index[None, :])
    for s in range(0, rows.size, _PAIR_CHUNK):
        i, j = rows[s:s + _PAIR_CHUNK], cols[s:s + _PAIR_CHUNK]
        B = _dislocation_trace_matrix(
            cells.centers[j], cells.normals[j], cells.centers[i], cells.normals[i],
            wave, params,
        )  # (pairs, 5, 5)
        M[i, :, j, :] = -np.einsum("prk,pks->prs", E[i], B) * cells.areas[j, None, None]
    return M.reshape(5 * nc, 5 * nc)


def _coupled_solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """LU solve of the coupled interface system (1- or 2-d rhs), residual-checked."""
    try:
        lu, piv = scipy.linalg.lu_factor(M)
        a = scipy.linalg.lu_solve((lu, piv), rhs)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise ConditioningError(
            f"coupled interface system is singular: {exc}",
            condition_number=float(np.linalg.cond(M)),
        ) from None
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm > 0.0:
        res = np.linalg.norm(M @ a - rhs) / rhs_norm
        if not np.isfinite(res) or res > 1e-8:
            raise ConditioningError(
                f"coupled interface solve residual {res:.3e}",
                condition_number=float(np.linalg.cond(M)),
            )
    return a


# ---------------------------------------------------------------------------
# radiation (operator conj(S)* with cell-area quadrature)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RadiatedField:
    """Scattered (u, p) values per observation point with proximity flags."""

    values: np.ndarray         # (npts, 4) complex
    near_singular: np.ndarray  # (npts,) bool


def _radiation_block(patches, points, kernel: np.ndarray):
    """(C*N, 5*nc) operator R: cell jump densities to the data of some
    channels at the N points, with the points' near-singular flags.

    ``kernel`` is the (5*nc, C*N) _kernel_block of the same points and
    channels: entry [(p, c), cell] of R is the reciprocal evaluation of
    the trace kernel (source at point p, trace and normal at the cell),
    kernel[cell, (p, c)], times the cell area.  Points closer to a patch
    than half its cell diagonal are flagged near-singular.
    """
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
    areas = np.repeat(_collect_cells(patches).areas, 5)
    return np.ascontiguousarray((areas[:, None] * kernel).T), near


def _radiation_operator(scene: Scene, wave, params) -> np.ndarray:
    """(C*N, 5*nc) operator: cell jump densities to grid data."""
    return _radiation_block(
        scene.patches, scene.grid.points, _trace_operator(scene, wave, params)
    )[0]


def radiate(
    jumps: JumpState,
    patches: Sequence[FracturePatch],
    points,
    wave: WaveState,
    params: MaterialParams,
) -> RadiatedField:
    """Scattered field at observation points from per-cell jump densities.

    Midpoint quadrature: field = sum_cells area * kernel(cell, point) @ a.
    Points closer to a patch than half the local cell diagonal are
    flagged near-singular in the returned metadata.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    kernel = _kernel_block(_collect_cells(patches), points, [0, 1, 2, 3], wave, params)
    R, near = _radiation_block(patches, points, kernel)
    a = jumps.as_vector()
    if a.size != R.shape[1]:
        raise CompatibilityError(
            f"jump state has {a.size // 5} cells, patches have {R.shape[1] // 5}"
        )
    return RadiatedField(values=(R @ a).reshape(-1, 4), near_singular=near)


# ---------------------------------------------------------------------------
# scattering operator
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScatteringMatrix:
    """Dense data operator with point-major (point, channel) indexing."""

    data: np.ndarray
    channels: tuple[str, ...]
    n_points: int
    omega: float
    kind: str = "clean"
    mode: str = "local"
    epsilon: float | None = None
    seed: int | None = None
    delta: float | None = None

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

    def index_of(self, point: int, channel: str) -> int:
        if not 0 <= point < self.n_points:
            raise DomainError(f"point index {point} out of range")
        try:
            c = self.channels.index(channel)
        except ValueError:
            raise DomainError(f"channel {channel!r} not in {self.channels}") from None
        return point * len(self.channels) + c

    def point_channel(self, index: int) -> tuple[int, str]:
        if not 0 <= index < self.size:
            raise DomainError(f"matrix index {index} out of range")
        c = len(self.channels)
        return index // c, self.channels[index % c]


def _require_active_channels(scene: Scene) -> None:
    cidx = channel_indices(scene.channels)
    mask = scene.grid.active[:, cidx]
    if not mask.all():
        raise CompatibilityError(
            "sensing grid excitation mask is not uniform over the scene channels"
        )


def assemble_lambda(
    scene: Scene,
    wave: WaveState,
    params: MaterialParams,
    mode: str = "local",
    cutoff: float | None = 50.0,
) -> ScatteringMatrix:
    """Assemble the discrete scattering operator of a scene.

    Column block j holds the scattered (u, p) data at every grid point
    for a unit excitation of channel j; the operator is the composition
    radiate . jump_solve . incident_traces.
    """
    if mode not in ("local", "interacting"):
        raise DomainError(f"mode must be local|interacting, got {mode!r}")
    _require_active_channels(scene)
    S = _trace_operator(scene, wave, params)
    R, _ = _radiation_block(scene.patches, scene.grid.points, S)
    coupling = (wave, params, cutoff) if mode == "interacting" else None
    data = R @ _transfer(scene.patches, S, wave.omega, coupling)
    if not np.isfinite(data).all():
        raise NumericalError(
            "the scattering matrix has non-finite entries: the kernels left double "
            "range for this scene, material and frequency"
        )
    logger.info(
        "assembled %dx%d scattering matrix (%s mode, %d cells)",
        data.shape[0], data.shape[1], mode, S.shape[0] // 5,
    )
    return ScatteringMatrix(
        data=data,
        channels=scene.channels,
        n_points=scene.grid.count,
        omega=wave.omega,
        kind="clean",
        mode=mode,
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
    norm ||N L||_2 hits the target (to rounding).  The achieved value is
    recorded as ``delta``.
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
    if target_delta is not None:
        norm = np.linalg.norm(NL, 2)
        if norm == 0.0:
            raise DomainError(
                f"target_delta = {target_delta!r} is unreachable: the operator is zero"
            )
        scale = target_delta / norm
        noise *= scale
        NL *= scale
        eps *= scale
    delta = float(np.linalg.norm(NL, 2))
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
def interface_response_matrix(
    contact: ContactParams,
    omega: float,
    frame: tuple | None = None,
) -> np.ndarray:
    """5x5 matrix of the interface operator in the jump basis.

    Maps phi = ([[u]] (3), [[p]], -[[q]]) to the total-trace triple
    (t + t_inc (3), <q> + q_inc, <p> + p_inc) implied by the contact
    conditions.  For the high-permeability model the [[p]] column and
    flow row vanish (the pressure jump is constrained to zero).
    """
    if frame is None:
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        n = np.array([0.0, 0.0, 1.0])
    else:
        e1, e2, n = (np.asarray(v, dtype=float) for v in frame)
    if contact.beta_f == 0:
        raise DegenerateContactError("beta_f is zero")
    K = contact.stiffness_matrix(e1, e2, n)
    at = contact.alpha_f_tilde
    bf = contact.beta_f
    cq = at * contact.k_n * bf / (contact.Pi * contact.alpha_f)
    denom = 1.0 - at * bf
    if abs(denom) < 1e-14:
        raise DegenerateContactError("1 - alpha_f_tilde*beta_f vanishes")

    P = np.zeros((5, 5), dtype=np.complex128)
    for col in range(5):
        phi = np.zeros(5, dtype=np.complex128)
        phi[col] = 1.0
        a_u, a_p, a_q = phi[0:3], phi[3], phi[4]
        tn = (n @ (K @ a_u) - cq * a_q) / denom
        tau = K @ a_u - cq * a_q * n + at * bf * tn * n
        row_p = contact.k_n * bf / (contact.Pi * contact.alpha_f) * a_q - bf * tn
        if contact.model == HIGH_PERMEABILITY:
            row_q = 0.0
        else:
            if contact.kappa_f == 0:
                raise DegenerateContactError("kappa_f is zero")
            row_q = contact.kappa_f / (1j * omega * contact.Pi) * a_p
        P[0:3, col] = tau
        P[3, col] = row_q
        P[4, col] = row_p
    if contact.model == HIGH_PERMEABILITY:
        P[:, 3] = 0.0
    return P


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    worst_imag: float
    tolerance: float
    trials: int
    seed: int


def check_admissibility(
    contact: ContactParams,
    wave: WaveState,
    trials: int = 10000,
    seed: int = 0,
) -> AdmissibilityReport:
    """Sampled well-posedness check of the interface operator.

    Draws random unit 5-vectors phi and evaluates Im <P phi, phi> with
    the duality pairing aligned componentwise with the jump basis; the
    contact law is admissible when the supremum is <= 0 (within 1e-12 of
    the matrix scale).
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    P = interface_response_matrix(contact, wave.omega)
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=(trials, 5)) + 1j * rng.normal(size=(trials, 5))
    phi /= np.linalg.norm(phi, axis=1, keepdims=True)
    vals = np.imag(np.einsum("ts,ts->t", phi @ P.T, phi.conj()))
    worst = float(vals.max())
    tol = 1e-12 * max(1.0, float(np.linalg.norm(P)))
    return AdmissibilityReport(
        admissible=worst <= tol,
        worst_imag=worst,
        tolerance=tol,
        trials=trials,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# exchange format
# ---------------------------------------------------------------------------
_FORMAT_TAG = "poroscat-matrix v1"


def _fmt(x: float) -> str:
    return format(x, ".17g")


def serialize_matrix(matrix: ScatteringMatrix) -> str:
    """Text form: '#'-prefixed header, then one 're,im' line per entry
    (row-major, 17 significant digits; bit-exact round trip)."""
    buf = io.StringIO()
    buf.write(f"# {_FORMAT_TAG}\n")
    buf.write(f"# kind = {matrix.kind}\n")
    buf.write(f"# mode = {matrix.mode}\n")
    buf.write(f"# n_points = {matrix.n_points}\n")
    buf.write(f"# channels = {','.join(matrix.channels)}\n")
    buf.write(f"# omega = {_fmt(matrix.omega)}\n")
    buf.write(f"# epsilon = {'none' if matrix.epsilon is None else _fmt(matrix.epsilon)}\n")
    buf.write(f"# seed = {'none' if matrix.seed is None else matrix.seed}\n")
    buf.write(f"# delta = {'none' if matrix.delta is None else _fmt(matrix.delta)}\n")
    flat = matrix.data.ravel()
    for v in flat:
        buf.write(f"{_fmt(v.real)},{_fmt(v.imag)}\n")
    return buf.getvalue()


def save_matrix(matrix: ScatteringMatrix, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(serialize_matrix(matrix))


def _non_negative(cast):
    """cast, refusing negative and non-finite results with ValueError."""
    def checked(text: str):
        value = cast(text)
        if not 0 <= value < float("inf"):
            raise ValueError(text)
        return value
    return checked


def load_matrix(path) -> ScatteringMatrix:
    header: dict[str, str] = {}
    values: list[complex] = []
    try:
        with open(path, "r", encoding="ascii") as fh:
            first = fh.readline().strip()
            if first != f"# {_FORMAT_TAG}":
                raise CompatibilityError(f"{path}: not a {_FORMAT_TAG} file")
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    key, _, val = line[1:].partition("=")
                    header[key.strip()] = val.strip()
                    continue
                re_s, _, im_s = line.partition(",")
                try:
                    value = complex(float(re_s), float(im_s))
                except ValueError:
                    raise CompatibilityError(
                        f"{path}: unparsable matrix entry {line!r}"
                    ) from None
                if not cmath.isfinite(value):
                    raise CompatibilityError(f"{path}: non-finite matrix entry {line!r}")
                values.append(value)
    except UnicodeDecodeError:
        raise CompatibilityError(f"{path}: not an ASCII text file") from None

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

    n_points = field("n_points", _non_negative(int))
    channels = tuple(field("channels").split(","))
    n = n_points * len(channels)
    if len(values) != n * n:
        raise CompatibilityError(
            f"{path}: expected {n*n} entries, found {len(values)}"
        )
    return ScatteringMatrix(
        data=np.array(values, dtype=np.complex128).reshape(n, n),
        channels=channels,
        n_points=n_points,
        omega=field("omega", _non_negative(float)),
        kind=field("kind"),
        mode=field("mode"),
        epsilon=field("epsilon", _non_negative(float), optional=True),
        seed=field("seed", int, optional=True),
        delta=field("delta", _non_negative(float), optional=True),
    )
