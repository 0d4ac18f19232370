"""Trial patterns, regularized solvers and the imaging indicator maps.

Imaging probes every sampling point x0 with a family of trial signatures
Phi(x0, n, iota): the near-field pattern a vanishing dislocation at x0
would produce on the sensing grid.  For iota = 1 the trial density is a
displacement-jump dipole along the trial normal n; for iota = 0 it is a
unit fluid monopole (a -[[q]] point density), which is independent of n.

Two regularized solutions of the scattering equation L g = Phi back the
two indicators:

* Tikhonov / discrepancy-principle (the sampling indicator 1/||g||):
  g minimizes ||L g - Phi||^2 + eta ||g||^2, with eta chosen so that
  ||L g - Phi|| = delta ||g||, found by a monotone root search.
* The penalized variant built on the positive self-adjoint combination
  L# = |Re L| + |Im L| (Hermitian |.| via eigendecomposition), whose
  minimizer solves (L^H L + alpha (L# + delta I)) g = L^H Phi with
  alpha = eta / (||L|| + delta).  Its indicator is
  1/sqrt(g^H L# g + delta ||g||^2).

All right-hand sides share one SVD of L, and the penalized variant one
joint diagonalization of its normal-equation pencil (GlsmPencil), which
serves every right-hand side and every alpha.  A map evaluates its
sampling points in blocks, one block after another; the per-point
indicators are the same evaluator on a one-point block.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg
from scipy.optimize import brentq

from .errors import CompatibilityError, ConditioningError, DomainError, NumericalError
from .forward import ScatteringMatrix
from .greens import _trace_matrix
from .material import MaterialParams, WaveState
from .scene import SamplingGrid, Scene, channel_indices

logger = logging.getLogger(__name__)

_BLOCK = 64  # sampling points per trial_pattern_block call in indicator_map

__all__ = [
    "TrialPattern",
    "IndicatorMap",
    "PointIndicator",
    "MorozovResult",
    "SvdOperator",
    "trial_pattern",
    "trial_pattern_block",
    "lambda_sharp",
    "sqrt_psd",
    "clamp_psd",
    "tikhonov_solve",
    "morozov_eta",
    "glsm_solve",
    "lsm_indicator_at",
    "glsm_indicator_at",
    "indicator_map",
    "save_indicator_map",
    "load_indicator_map",
]


# ---------------------------------------------------------------------------
# trial patterns
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TrialPattern:
    """Near-field signature of a trial dislocation at one sampling point."""

    point: np.ndarray
    normal: np.ndarray
    iota: int
    vector: np.ndarray  # length = n_points * n_channels, point-major


def _jump_amplitude(normal: np.ndarray, iota: int) -> np.ndarray:
    b = np.zeros(5, dtype=np.complex128)
    if iota == 1:
        b[0:3] = normal
    elif iota == 0:
        b[4] = 1.0  # unit -[[q]] monopole
    else:
        raise DomainError(f"iota must be 0 or 1, got {iota!r}")
    return b


def trial_pattern(
    x0,
    normal,
    iota: int,
    grid_points,
    wave: WaveState,
    params: MaterialParams,
    channels: Sequence[str],
) -> TrialPattern:
    """Near-field pattern of a vanishing trial dislocation at x0.

    iota = 1: displacement-jump dipole along ``normal``; iota = 0: unit
    fluid monopole (independent of the normal).  Coincidence of x0 with a
    grid point raises SingularityError.
    """
    x0 = np.asarray(x0, dtype=float).reshape(3)
    normal = np.asarray(normal, dtype=float).reshape(3)
    block = trial_pattern_block(
        x0[None, :], [(normal, iota)], grid_points, wave, params, channels
    )
    return TrialPattern(point=x0, normal=normal, iota=int(iota), vector=block[:, 0])


def trial_pattern_block(
    points,
    candidates: Sequence[tuple[np.ndarray, int]],
    grid_points,
    wave: WaveState,
    params: MaterialParams,
    channels: Sequence[str],
) -> np.ndarray:
    """Patterns for a block of sampling points and all candidates at once.

    Returns (n_rows, n_points_block * n_candidates) with candidate index
    fastest; fluid-monopole candidates share one kernel evaluation.
    """
    pts = np.asarray(points, dtype=float)
    gpts = np.asarray(grid_points, dtype=float)
    cidx = channel_indices(channels)
    nb, N, C = pts.shape[0], gpts.shape[0], len(cidx)
    ncand = len(candidates)
    out = np.empty((N * C, nb * ncand), dtype=np.complex128)

    fluid_col: dict[int, np.ndarray] = {}
    for ci, (normal, iota) in enumerate(candidates):
        if iota == 0 and 0 in fluid_col:
            cols = fluid_col[0]
        else:
            K = _trace_matrix(
                gpts[None, :, :],
                pts[:, None, :],
                np.broadcast_to(np.asarray(normal, float), (nb, 1, 3)),
                wave,
                params,
            )  # (nb, N, 5, 4)
            b = _jump_amplitude(np.asarray(normal, float), iota)
            cols = np.einsum("pnrc,r->pnc", K[..., cidx], b).reshape(nb, N * C).T
            if iota == 0:
                fluid_col[0] = cols
        out[:, ci::ncand] = cols
    return out


# ---------------------------------------------------------------------------
# operator combinations and regularized solvers
# ---------------------------------------------------------------------------
def _as_array(matrix) -> np.ndarray:
    if isinstance(matrix, ScatteringMatrix):
        return matrix.data
    return np.asarray(matrix, dtype=np.complex128)


def lambda_sharp(matrix) -> np.ndarray:
    """Positive self-adjoint combination |(L + L*)/2| + |(L - L*)/(2i)|.

    |.| of a Hermitian matrix is V |D| V^H via eigendecomposition; the
    result is Hermitian positive semidefinite up to rounding.
    """
    L = _as_array(matrix)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise DomainError(f"lambda_sharp needs a square matrix, got {L.shape}")
    H1 = 0.5 * (L + L.conj().T)
    H2 = (L - L.conj().T) / 2j
    out = np.zeros_like(L)
    for H in (H1, H2):
        try:
            vals, vecs = np.linalg.eigh(H)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"eigendecomposition failed ({exc}); cond(L) = {np.linalg.cond(L):.3e}"
            ) from None
        out += (vecs * np.abs(vals)) @ vecs.conj().T
    return 0.5 * (out + out.conj().T)


def _psd_function(matrix, fn, clamp_rel: float) -> np.ndarray:
    """V fn(D) V^H over the eigenpairs of the Hermitian part, eigenvalues
    below clamp_rel * ||matrix||_2 (small negatives from roundoff too) set
    to zero."""
    H = _as_array(matrix)
    vals, vecs = np.linalg.eigh(0.5 * (H + H.conj().T))
    scale = float(np.abs(vals).max(initial=0.0))
    vals = np.where(vals < clamp_rel * scale, 0.0, vals)
    return (vecs * fn(vals)) @ vecs.conj().T


def clamp_psd(matrix, clamp_rel: float = 1e-14) -> np.ndarray:
    """Project a nearly-PSD Hermitian matrix onto the PSD cone."""
    return _psd_function(matrix, lambda vals: vals, clamp_rel)


def sqrt_psd(matrix, clamp_rel: float = 1e-14) -> np.ndarray:
    """Hermitian square root with negative-eigenvalue clamping."""
    return _psd_function(matrix, np.sqrt, clamp_rel)


class SvdOperator:
    """Thin SVD of the data operator, reused across many right-hand sides."""

    def __init__(self, matrix):
        L = _as_array(matrix)
        if L.ndim != 2:
            raise DomainError("operator must be a matrix")
        self.matrix = L
        self.U, self.s, self.Vh = np.linalg.svd(L, full_matrices=False)

    @property
    def norm2(self) -> float:
        return float(self.s[0]) if self.s.size else 0.0

    def project(self, rhs: np.ndarray) -> np.ndarray:
        """Coefficients beta = U^H rhs."""
        return self.U.conj().T @ rhs


def _operator(matrix) -> SvdOperator:
    return matrix if isinstance(matrix, SvdOperator) else SvdOperator(matrix)


def tikhonov_solve(matrix, rhs, eta: float) -> np.ndarray:
    """Unique minimizer of ||L g - rhs||^2 + eta ||g||^2 via the SVD.

    g = sum_i s_i/(s_i^2 + eta) (u_i . rhs) v_i; accepts a matrix, a
    ScatteringMatrix or a precomputed SvdOperator, and 1- or 2-d rhs.
    """
    if not eta > 0.0:
        raise DomainError(f"eta must be strictly positive, got {eta!r}")
    op = _operator(matrix)
    beta = op.project(np.asarray(rhs, dtype=np.complex128))
    filt = (op.s / (op.s**2 + eta))[:, None] if beta.ndim == 2 else op.s / (op.s**2 + eta)
    return op.Vh.conj().T @ (filt * beta)


class MorozovResult(NamedTuple):
    eta: float
    bracketed: bool


def _discrepancy_gap(op: SvdOperator, beta_sq, floor_sq, delta, eta):
    """||L g - rhs||^2 - delta^2 ||g||^2 at the Tikhonov solution g(eta)."""
    s2 = op.s**2
    num = (eta**2 - delta**2 * s2) / (s2 + eta) ** 2
    return float(num @ beta_sq + floor_sq)


def _projection(op: SvdOperator, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|U^H rhs|^2 and ||rhs - U U^H rhs||^2 (the part of rhs outside the
    column space), per column of rhs."""
    beta_sq = np.abs(op.project(rhs)) ** 2
    full = np.sum(np.abs(rhs) ** 2, axis=0)
    return beta_sq, np.maximum(full - np.sum(beta_sq, axis=0), 0.0)


def _morozov_root(op: SvdOperator, beta_sq, floor_sq, delta, bracket) -> MorozovResult:
    """Discrepancy weight of one column from its projection (nonzero L).

    The gap is strictly increasing in eta, so a bracketed root is found
    by a guarded Brent search on log(eta).  Without a sign change the
    nearer bracket endpoint is returned with bracketed=False.
    """
    if not delta > 0.0:
        raise DomainError(f"delta must be strictly positive, got {delta!r}")
    lo, hi = (1e-14 * op.norm2**2, 1e8 * op.norm2**2) if bracket is None else bracket
    if not (0.0 < lo < hi):
        raise DomainError(f"bracket endpoints must be positive and ordered, got {bracket!r}")
    f = lambda x: _discrepancy_gap(op, beta_sq, floor_sq, delta, math.exp(x))
    if f(math.log(lo)) >= 0.0:
        return MorozovResult(eta=lo, bracketed=False)
    if f(math.log(hi)) <= 0.0:
        return MorozovResult(eta=hi, bracketed=False)
    x = brentq(f, math.log(lo), math.log(hi), xtol=5e-15, maxiter=200)
    return MorozovResult(eta=float(math.exp(x)), bracketed=True)


def morozov_eta(matrix, rhs, delta: float, bracket=None) -> MorozovResult:
    """Discrepancy-principle weight: ||L g - rhs|| = delta ||g||.

    A zero operator gives eta = inf with bracketed=False.
    """
    rhs = np.asarray(rhs, dtype=np.complex128)
    if rhs.size == 0 or not np.any(rhs):
        raise DomainError("right-hand side is empty or identically zero")
    op = _operator(matrix)
    if op.norm2 == 0.0:
        return MorozovResult(eta=float("inf"), bracketed=False)
    return _morozov_root(op, *_projection(op, rhs), delta, bracket)


def glsm_solve(matrix, sharp, rhs, alpha: float, delta: float) -> np.ndarray:
    """Minimizer of the penalized functional, from its normal equations.

        (L^H L + alpha (L#_psd + delta I)) g = L^H rhs

    where L#_psd is the PSD-clamped penalty operator (the Gram matrix of
    its Hermitian square root).  Solved by a Cholesky factorization.
    """
    if not alpha > 0.0:
        raise DomainError(f"alpha must be strictly positive, got {alpha!r}")
    if delta < 0.0:
        raise DomainError(f"delta must be non-negative, got {delta!r}")
    L = _as_array(matrix)
    Hs = clamp_psd(sharp)
    A = L.conj().T @ L + alpha * (Hs + delta * np.eye(L.shape[1]))
    b = L.conj().T @ np.asarray(rhs, dtype=np.complex128)
    try:
        cho = scipy.linalg.cho_factor(A)
        return scipy.linalg.cho_solve(cho, b)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise ConditioningError(
            f"penalized normal equations not positive definite: {exc}",
            condition_number=float(np.linalg.cond(A)),
        ) from None


def alpha_from_eta(eta: float, lam_norm: float, delta: float) -> float:
    """Penalty weight rule: alpha = eta / (||L||_2 + delta)."""
    return eta / (lam_norm + delta)


class GlsmPencil:
    """Joint diagonalization of the penalized normal-equation pencil.

    With V^H (L#_psd + delta I) V = I and V^H (L^H L) V = diag(d), the
    minimizer for any penalty weight alpha is

        g = V ((V^H L^H rhs) / (d + alpha)),

    so one O(n^3) decomposition serves every right-hand side and every
    alpha (the per-candidate discrepancy rule changes only the filter).
    """

    def __init__(self, matrix, sharp, delta: float):
        L = _as_array(matrix)
        self.sharp = clamp_psd(sharp)
        self.delta = float(delta)
        if self.delta < 0.0:
            raise DomainError("delta must be non-negative")
        LH = L.conj().T
        B = self.sharp + self.delta * np.eye(L.shape[1])
        try:
            d, V = scipy.linalg.eigh(LH @ L, B)
        except scipy.linalg.LinAlgError as exc:
            raise NumericalError(
                f"penalty pencil decomposition failed: {exc}"
            ) from None
        self.d = np.maximum(d, 0.0)
        self.V = V
        self.W = V.conj().T @ LH

    def solve(self, rhs: np.ndarray, alpha: float) -> np.ndarray:
        if not alpha > 0.0:
            raise DomainError(f"alpha must be strictly positive, got {alpha!r}")
        z = self.W @ rhs
        filt = (self.d + alpha)[:, None] if z.ndim == 2 else self.d + alpha
        return self.V @ (z / filt)

    def indicator(self, g: np.ndarray) -> float:
        """1/sqrt(g^H L# g + delta ||g||^2); NaN for a vanishing energy."""
        energy = float(
            np.real(g.conj() @ (self.sharp @ g))
            + self.delta * np.linalg.norm(g) ** 2
        )
        return 1.0 / math.sqrt(energy) if energy > 0.0 else float("nan")


# ---------------------------------------------------------------------------
# block evaluator and per-point indicators
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PointIndicator:
    value: float
    g_norm: float
    normal_index: int
    iota: int
    degenerate: bool = False


def _off_sensors(points: np.ndarray, grid_points: np.ndarray) -> np.ndarray:
    """Mask of the points that coincide with no sensing point; the trial
    kernels are singular at r = 0, as in greens._geometry."""
    w = grid_points[None, :, :] - points[:, None, :]
    return np.all(np.sum(w * w, axis=-1) > 0.0, axis=1)


def _eval_block(
    points,
    cands: Sequence[tuple[np.ndarray, int]],
    op: SvdOperator,
    delta: float,
    grid_points,
    wave: WaveState,
    params: MaterialParams,
    channels: Sequence[str],
    bracket=None,
    pencil: GlsmPencil | None = None,
    fixed_alpha: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indicator values of a block of sampling points.

    Without a pencil: 1/||g||, g the Tikhonov solution at the discrepancy
    weight.  With one: the penalized indicator, alpha ``fixed_alpha`` if
    given, else from each candidate's discrepancy weight.  Each point
    takes the candidate of least ||g|| (ties go to the first).  Returns
    (value, ||g||, candidate index) per point; NaN, 0 and -1 where no
    candidate is usable or the point coincides with a sensing point.
    """
    pts = np.asarray(points, dtype=float)
    gpts = np.asarray(grid_points, dtype=float)
    nb, ncand = pts.shape[0], len(cands)
    vals = np.full(nb, np.nan)
    g_norms = np.zeros(nb)
    argmin = np.full(nb, -1, dtype=int)
    live = np.flatnonzero(_off_sensors(pts, gpts))
    if live.size == 0 or op.norm2 == 0.0:
        return vals, g_norms, argmin
    Phi = trial_pattern_block(pts[live], cands, gpts, wave, params, channels)
    if fixed_alpha is None:
        beta_sq, floors = _projection(op, Phi)
    else:
        G = pencil.solve(Phi, fixed_alpha)
        fixed_norms = np.linalg.norm(G, axis=0)
        energies = (
            np.real(np.einsum("ij,ij->j", G.conj(), pencil.sharp @ G))
            + pencil.delta * fixed_norms**2
        )
        fixed_vals = 1.0 / np.sqrt(np.where(energies > 0.0, energies, np.nan))
    for b, p in enumerate(live):
        best = None
        for ci in range(ncand):
            col = b * ncand + ci
            g = None
            if fixed_alpha is not None:
                gn = float(fixed_norms[col])
            else:
                eta = _morozov_root(op, beta_sq[:, col], floors[col], delta, bracket).eta
                if pencil is None:
                    gn = math.sqrt(float(((op.s / (op.s**2 + eta)) ** 2) @ beta_sq[:, col]))
                else:
                    g = pencil.solve(Phi[:, col], alpha_from_eta(eta, op.norm2, delta))
                    gn = float(np.linalg.norm(g))
            if 0.0 < gn < math.inf and (best is None or gn < best[0]):
                best = (gn, ci, col, g)
        if best is None:
            continue
        gn, ci, col, g = best
        g_norms[p], argmin[p] = gn, ci
        if pencil is None:
            vals[p] = 1.0 / gn
        elif g is None:
            vals[p] = fixed_vals[col]
        else:
            vals[p] = pencil.indicator(g)
    return vals, g_norms, argmin


def _candidate_list(candidates) -> list[tuple[np.ndarray, int]]:
    out = []
    for normal, iota in candidates:
        out.append((np.asarray(normal, dtype=float).reshape(3), int(iota)))
    if not out:
        raise DomainError("candidate list is empty")
    return out


def _indicator_at(x0, candidates, op, *setting) -> PointIndicator:
    """_eval_block on the one-point block x0, as a PointIndicator."""
    cands = _candidate_list(candidates)
    (value,), (gn,), (ci,) = _eval_block(
        np.asarray(x0, dtype=float).reshape(1, 3), cands, op, *setting
    )
    found = bool(np.isfinite(value))
    return PointIndicator(
        value=float(value), g_norm=float(gn),
        normal_index=int(ci) % _normals_count(cands) if found else -1,
        iota=cands[ci][1] if found else -1, degenerate=not found,
    )


def lsm_indicator_at(
    x0,
    candidates,
    matrix,
    delta: float,
    grid_points,
    wave: WaveState,
    params: MaterialParams,
    channels: Sequence[str],
    bracket=None,
) -> PointIndicator:
    """Sampling indicator 1/||g|| at one point, minimized over candidates.

    For each trial (n, iota): eta from the discrepancy principle, g from
    the Tikhonov solve; the candidate of minimal ||g|| wins (ties go to
    the first in order).
    """
    return _indicator_at(
        x0, candidates, _operator(matrix), delta, grid_points, wave, params, channels,
        bracket,
    )


def _normals_count(cands) -> int:
    # candidates are enumerated iota-major with the same normal fan per iota
    iotas = {i for _, i in cands}
    return max(1, len(cands) // max(1, len(iotas)))


def glsm_indicator_at(
    x0,
    candidates,
    matrix,
    sharp,
    delta: float,
    grid_points,
    wave: WaveState,
    params: MaterialParams,
    channels: Sequence[str],
    bracket=None,
    fixed_alpha: float | None = None,
) -> PointIndicator:
    """Penalized indicator at one point, argmin over candidates by ||g||.

    The indicator of the winning solution is
    1/sqrt(g^H L# g + delta ||g||^2).
    """
    op = _operator(matrix)
    return _indicator_at(
        x0, candidates, op, delta, grid_points, wave, params, channels, bracket,
        GlsmPencil(op.matrix, sharp, delta), fixed_alpha,
    )


# ---------------------------------------------------------------------------
# indicator maps
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class IndicatorMap:
    """Per-sampling-point indicator values with argmin metadata."""

    method: str
    omega: float
    delta: float
    grid: SamplingGrid
    raw: np.ndarray           # (npts,), NaN where degenerate
    argmin_normal: np.ndarray  # (npts,) int, -1 where no candidate won
    argmin_iota: np.ndarray    # (npts,) int, -1 where no candidate won

    @property
    def raw_max(self) -> float:
        finite = self.raw[np.isfinite(self.raw)]
        return float(finite.max()) if finite.size else float("nan")

    @property
    def normalized(self) -> np.ndarray:
        """raw / raw_max; all NaN unless raw_max > 0."""
        raw_max = self.raw_max
        if not raw_max > 0.0:
            return np.full(self.raw.shape, np.nan)
        return np.where(np.isfinite(self.raw), self.raw / raw_max, np.nan)

    @property
    def degenerate_count(self) -> int:
        return int((~np.isfinite(self.raw)).sum())

    @property
    def degenerate(self) -> bool:
        return self.degenerate_count > 0


def _derive_delta(matrix, delta: float | None, op: SvdOperator) -> float:
    if delta is not None:
        if delta <= 0.0:
            raise DomainError("delta must be positive")
        return float(delta)
    if isinstance(matrix, ScatteringMatrix) and matrix.delta and matrix.delta > 0.0:
        return float(matrix.delta)
    # noiseless data: floor the discrepancy level at a fixed fraction of
    # the operator scale so the principle stays well defined
    return 1e-6 * op.norm2 if op.norm2 > 0.0 else 1.0


def indicator_map(
    scene: Scene,
    matrix,
    method: str,
    wave: WaveState,
    params: MaterialParams,
    delta: float | None = None,
    alpha_policy: str = "per-candidate",
    fixed_alpha: float | None = None,
    bracket=None,
) -> IndicatorMap:
    """Evaluate an indicator over the scene's sampling grid.

    Blocks of sampling points are evaluated one after another, all
    sharing one SVD of the data operator and, for the penalized method,
    one GlsmPencil.  Under alpha_policy="fixed" every candidate uses one
    alpha: fixed_alpha, or else the one from the median Morozov weight of
    the candidates at the grid center, or at the sampling point nearest it
    that is not a sensing point (a documented approximation of the
    per-candidate rule).  Per-point failures, sampling points that
    coincide with sensing points included, are recorded as NaN values,
    never aborts.
    """
    if method not in ("lsm", "glsm"):
        raise DomainError(f"method must be lsm|glsm, got {method!r}")
    if alpha_policy not in ("per-candidate", "fixed"):
        raise DomainError(f"alpha_policy must be per-candidate|fixed, got {alpha_policy!r}")
    if isinstance(matrix, ScatteringMatrix) and (
        matrix.n_points != scene.grid.count or matrix.channels != scene.channels
    ):
        raise CompatibilityError(
            f"matrix ({matrix.n_points} points, channels {matrix.channels}) does not "
            f"match the scene ({scene.grid.count} points, channels {scene.channels})"
        )
    op = _operator(matrix)
    delta = _derive_delta(matrix, delta, op)
    pts = scene.sampling.points()
    cands = scene.sampling.candidates()
    gpts, channels = scene.grid.points, scene.channels

    pencil = None
    if method == "glsm":
        if wave.gamma.imag > 1e-6 * abs(wave.gamma):
            warnings.warn(
                "penalized (glsm) imaging with significantly complex coupling "
                "gamma: the operator is not self-adjoint and the penalty lacks "
                "a range characterization; proceeding anyway",
                RuntimeWarning,
                stacklevel=2,
            )
        pencil = GlsmPencil(op.matrix, lambda_sharp(op.matrix), delta)
    if pencil is None or alpha_policy == "per-candidate":
        fixed_alpha = None
    elif fixed_alpha is None:
        # the sampling point nearest the grid center that is not a sensing point
        order = np.argsort(np.linalg.norm(pts - pts[len(pts) // 2], axis=1), kind="stable")
        k = next((k for k in order if _off_sensors(pts[k:k + 1], gpts)[0]), None)
        if op.norm2 == 0.0 or k is None:
            raise NumericalError("could not derive a fixed alpha near the grid center")
        center = trial_pattern_block(pts[k:k + 1], cands, gpts, wave, params, channels)
        etas = [morozov_eta(op, phi, delta, bracket).eta for phi in center.T]
        fixed_alpha = alpha_from_eta(float(np.median(etas)), op.norm2, delta)
        logger.info("fixed alpha policy: alpha = %.6e", fixed_alpha)

    blocks = [
        _eval_block(
            pts[s:s + _BLOCK], cands, op, delta, gpts, wave, params, channels,
            bracket, pencil, fixed_alpha,
        )
        for s in range(0, len(pts), _BLOCK)
    ]
    raw = np.concatenate([vals for vals, _, _ in blocks])
    argmin = np.concatenate([arg for _, _, arg in blocks])
    iotas = np.array([iota for _, iota in cands])
    found = argmin >= 0
    arg_n = np.where(found, argmin % scene.sampling.normals.shape[0], -1)
    arg_i = np.where(found, iotas[argmin], -1)

    imap = IndicatorMap(
        method=method,
        omega=wave.omega,
        delta=delta,
        grid=scene.sampling,
        raw=raw,
        argmin_normal=arg_n,
        argmin_iota=arg_i,
    )
    if imap.degenerate:
        logger.warning("indicator map has %d degenerate point(s)", imap.degenerate_count)
    return imap


# ---------------------------------------------------------------------------
# map I/O
# ---------------------------------------------------------------------------
_MAP_TAG = "poroscat-map v1"


def _fmt(x: float) -> str:
    return format(x, ".17g")


def save_indicator_map(imap: IndicatorMap, path) -> None:
    """CSV form: '#' header (method, omega, delta, grid spec), then rows
    x,y,raw,normalized,normal_index,iota in row-major point order."""
    g = imap.grid
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# {_MAP_TAG}\n")
        fh.write(f"# method = {imap.method}\n")
        fh.write(f"# omega = {_fmt(imap.omega)}\n")
        fh.write(f"# delta = {_fmt(imap.delta)}\n")
        fh.write(f"# region = {','.join(_fmt(v) for v in g.region)}\n")
        fh.write(f"# resolution = {g.resolution[0]},{g.resolution[1]}\n")
        fh.write(f"# n_dir = {g.normals.shape[0]}\n")
        fh.write(f"# iotas = {','.join(str(i) for i in g.iotas)}\n")
        fh.write(f"# plane_z = {_fmt(g.plane_z)}\n")
        pts = g.points()
        normalized = imap.normalized
        for i in range(pts.shape[0]):
            fh.write(
                f"{_fmt(pts[i,0])},{_fmt(pts[i,1])},{_fmt(imap.raw[i])},"
                f"{_fmt(normalized[i])},{imap.argmin_normal[i]},{imap.argmin_iota[i]}\n"
            )


def load_indicator_map(path) -> IndicatorMap:
    from .scene import build_sampling_grid

    header: dict[str, str] = {}
    rows: list[tuple] = []
    with open(path, "r", encoding="ascii") as fh:
        first = fh.readline().strip()
        if first != f"# {_MAP_TAG}":
            raise CompatibilityError(f"{path}: not a {_MAP_TAG} file")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                header[key.strip()] = val.strip()
            else:
                parts = line.split(",")
                rows.append((float(parts[2]), int(parts[4]), int(parts[5])))
    region = tuple(float(v) for v in header["region"].split(","))
    resolution = tuple(int(v) for v in header["resolution"].split(","))
    grid = build_sampling_grid(
        region,
        resolution,
        int(header["n_dir"]),
        tuple(int(i) for i in header["iotas"].split(",")),
        plane_z=float(header.get("plane_z", "0")),
    )
    return IndicatorMap(
        method=header["method"],
        omega=float(header["omega"]),
        delta=float(header["delta"]),
        grid=grid,
        raw=np.array([r[0] for r in rows]),
        argmin_normal=np.array([r[1] for r in rows], dtype=int),
        argmin_iota=np.array([r[2] for r in rows], dtype=int),
    )
