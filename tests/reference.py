"""Definitions only the tests use.

Checks of the paper's identities that no pipeline stage runs (the Jacobian
and coefficient ranks, the diagonalizability classifier, the doubled
operator's plane identities), small conveniences (the benchmark's jobs,
exact base points, the exactness of a point, the largest principal angle
of one pair, one matrix's clustered spectrum) and the per-matrix paths the
stacked ones replaced (the Jacobi solver, the plane check over a grid,
Procrustes alignment, curve extrapolation one curve at a time, the chart
sampler's point-by-point scan) and the
Bareiss determinant the Laplace minors replaced, kept frozen as their
bit-for-bit references.
"""

from __future__ import annotations

import importlib.util
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from eigenbouquet.algebra import (
    Polynomial,
    Scalar,
    VarUniverse,
    divexact,
    eval_matrix_rational,
    gcd_multivariate,
    scalar_matrix_rank,
)
from eigenbouquet.bouquet import QuadForm, QuadSystem
from eigenbouquet.frames import (
    EXTRAPOLATION_RADII,
    GRAM_TOL,
    QUAD_VANISH_TOL,
    _residuals,
    _spectra_at,
    _transversal_directions,
    family_matrix,
)
from eigenbouquet.oracle import (
    DEFAULT_CLUSTER_TOL,
    JACOBI_OFF_TOL,
    JACOBI_SWEEP_CAP,
    Cluster,
    ExtrapolationError,
    JacobiNonConvergence,
    SpectralSample,
    cluster_stack,
    eigh_jacobi,
    nearest_subspace,
    orthonormalize,
    principal_angles,
    procrustes_align,
)
from eigenbouquet.realnormal import (
    KERNEL_TOL,
    ArcpDecomposition,
    ArcpPlane,
    ArcpReport,
    DecompositionError,
    SplitFamily,
    _eigenvalue_match_error,
    doubled_matrix,
)
from eigenbouquet.realnormal import _apply_j as apply_j
from eigenbouquet.resolve import SAMPLE_COUNT, ChartNode


def bareiss_det(matrix: list[list[Polynomial]]) -> Polynomial:
    """Determinant of a square polynomial matrix by fraction-free elimination."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    universe = matrix[0][0].universe
    if n == 1:
        return matrix[0][0]
    m = [row[:] for row in matrix]
    sign = 1
    prev = Polynomial.constant(universe, 1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot_row = next((r for r in range(k + 1, n) if not m[r][k].is_zero()), None)
            if pivot_row is None:
                return Polynomial.zero(universe)
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot = m[k][k]
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                num = pivot * m[r][c] - m[r][k] * m[k][c]
                m[r][c] = divexact(num, prev)
            m[r][k] = Polynomial.zero(universe)
        prev = pivot
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def submatrix(matrix, rows, cols):
    return [[matrix[r][c] for c in cols] for r in rows]


def bench_jobs():
    """Every job of the benchmark's workloads, from ``bench/jobs.py`` loaded
    by path."""
    path = Path(__file__).resolve().parent.parent / "bench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("bench_jobs_reference", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return [job for workload in module.WORKLOADS.values() for job in workload]


def base_point(node: ChartNode, point: dict) -> dict:
    """Exact base point of a chart point."""
    return {name: poly.eval_scalar(point) for name, poly in node.to_base.items()}


def all_exact(values) -> bool:
    """True when every value is an exact int, Fraction or Scalar."""
    return all(isinstance(v, (int, Fraction, Scalar)) for v in values)


def subspace_angle(basis_a: np.ndarray, basis_b: np.ndarray) -> float:
    """Largest canonical angle: 0 iff the spans agree."""
    return max(principal_angles(basis_a, basis_b))


@dataclass(slots=True)
class ClusteredSample:
    """One matrix's ascending spectrum, eigenvectors and clusters."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    clusters: list[Cluster]

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(c.multiplicity for c in self.clusters)


def spectral_sample(matrix, tol: float = DEFAULT_CLUSTER_TOL) -> ClusteredSample:
    """Eigenvalues, vectors and clusters of one matrix: a stack of one."""
    sample = eigh_jacobi(matrix)
    clusters = cluster_stack(sample.eigenvalues[None], sample.vectors[None], tol)[0]
    return ClusteredSample(sample.eigenvalues, sample.vectors, clusters)


# -- ranks of the quadratic system ----------------------------------------


def as_polynomial(quad: QuadForm) -> Polynomial:
    """The quadratic as one polynomial in parameters and fiber variables."""
    u = quad.universe
    total = Polynomial.zero(u)
    nparams = len(u.params)
    for (a, b), p in quad.coeffs.items():
        exps = [0] * u.nvars
        exps[nparams + a] += 1
        exps[nparams + b] += 1
        total = total + p * Polynomial(u, {tuple(exps): Fraction(1)})
    return total


def rank_at(system: QuadSystem, point: dict) -> int:
    """Exact rank of the coefficient matrix at a rational point."""
    return scalar_matrix_rank(eval_matrix_rational(system.coeff_matrix, point))


def expected_quadratic_dim(multiplicities) -> int:
    """Dimension of the quadratic part of the bouquet ideal: sum e_i e_j, i<j."""
    e = tuple(multiplicities)
    if not e or any(k < 1 for k in e):
        raise ValueError("multiplicities must be positive integers")
    total = 0
    for a in range(len(e)):
        for b in range(a + 1, len(e)):
            total += e[a] * e[b]
    return total


def jacobian_rank_at(system: QuadSystem, point: dict, fiber, tol: float = 1e-7) -> int:
    """Rank of [dQ_row/dV_k] at (point, fiber).

    Exact over Q when both the point and the fiber vector are rational;
    otherwise numeric with singular values thresholded at tol * (1 + max).
    """
    fibers = system.fiber_universe.fibers
    at = {**point, **dict(zip(fibers, fiber))}
    polys = [as_polynomial(q) for q in system.quads]
    rows = [[p.derivative(f) for f in fibers] for p in polys]
    if all_exact(point.values()) and all_exact(fiber):
        return scalar_matrix_rank(eval_matrix_rational(rows, at))
    jac = np.array([[d.eval_complex(at).real for d in row] for row in rows])
    if not jac.size:
        return 0
    normal = jac.T @ jac
    sample = eigh_jacobi(normal)
    sv = np.sqrt(np.clip(sample.eigenvalues, 0.0, None))
    cut = tol * (1.0 + (float(sv.max()) if sv.size else 0.0))
    return int(np.sum(sv > cut))


def diagonalizability(matrix: list[list], fld: str = "rational") -> str:
    """Classify a constant matrix: "diagonalizable", "not" or "scalar".

    Decided exactly: a matrix is diagonalizable over C iff the squarefree
    part of its characteristic polynomial annihilates it. The quadratic
    ideal of its eigenspace union is then generated in degree two iff this
    holds, with the scalar case (null ideal) split out first.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    diag = matrix[0][0]
    is_scalar = all(
        matrix[r][c] == (diag if r == c else 0) for r in range(n) for c in range(n)
    )
    if is_scalar:
        return "scalar"
    universe = VarUniverse(("T__",))
    t = Polynomial.variable(universe, "T__")
    grid = [
        [
            (t if r == c else Polynomial.zero(universe))
            - Polynomial.constant(universe, matrix[r][c])
            for c in range(n)
        ]
        for r in range(n)
    ]
    char = bareiss_det(grid)
    squarefree = divexact(char, gcd_multivariate(char, char.derivative("T__")))
    # evaluate the squarefree part at the matrix with exact arithmetic
    coeffs: dict = {}
    for e, c in squarefree.terms.items():
        coeffs[e[0]] = c
    deg = max(coeffs)
    acc = [[Fraction(1) if r == c else Fraction(0) for c in range(n)] for r in range(n)]
    total = [[Fraction(0) for _ in range(n)] for _ in range(n)]
    for k in range(deg + 1):
        c = coeffs.get(k)
        if c:
            for r in range(n):
                for s in range(n):
                    total[r][s] = total[r][s] + c * acc[r][s]
        if k < deg:
            acc = [
                [
                    sum((acc[r][m] * matrix[m][s] for m in range(n)), Fraction(0))
                    for s in range(n)
                ]
                for r in range(n)
            ]
    vanishes = all(not total[r][s] for r in range(n) for s in range(n))
    return "diagonalizable" if vanishes else "not"


# -- the doubled operator's plane identities -------------------------------


@dataclass
class PlaneCheckRecord:
    orthogonality: float
    plane_invariance: float
    mirror_eigenvector: float
    j_image_eigenvector: float
    j_preserves_eigenspace: float

    def passes(self, tol: float = 1e-8) -> bool:
        return (
            self.orthogonality <= tol
            and self.plane_invariance <= tol
            and self.mirror_eigenvector <= tol
            and self.j_image_eigenvector <= tol
            and self.j_preserves_eigenspace <= tol
        )


def plane_invariant_checks(
    split: SplitFamily, point: dict, b_value: float, fvec: np.ndarray, cluster_tol: float = 1e-6
) -> PlaneCheckRecord:
    """Residuals of the four doubled-operator plane identities at an eigenpair."""
    if abs(b_value) <= KERNEL_TOL:
        raise ValueError("checks require a nonzero eigenvalue")
    n = split.n
    b_mat = family_matrix(split.skew, point)
    b2 = doubled_matrix(b_mat)
    scale = 1.0 + float(np.linalg.norm(b2))
    f = np.asarray(fvec, dtype=float)
    u, v = f[:n], f[n:]
    # (i) halves orthogonal, plane invariant under B: Bu = b v and Bv = -b u
    orth = abs(float(u @ v)) / max(1e-30, float(np.linalg.norm(u) * np.linalg.norm(v)))
    inv = max(
        float(np.linalg.norm(b_mat @ u - b_value * v)),
        float(np.linalg.norm(b_mat @ v + b_value * u)),
    ) / scale
    # (ii) the swapped pair is an eigenvector for -b
    swapped = np.concatenate([v, u])
    mirror = float(np.linalg.norm(b2 @ swapped + b_value * swapped)) / scale
    # (iii) J f is again an eigenvector for b
    jf = apply_j(f)
    j_eig = float(np.linalg.norm(b2 @ jf - b_value * jf)) / scale
    # (iv) J maps the eigenspace onto itself
    sample = spectral_sample(b2, tol=cluster_tol)
    best = None
    for cluster in sample.clusters:
        if abs(cluster.value - b_value) <= cluster_tol * scale:
            basis = cluster.basis
            j_basis = orthonormalize(np.column_stack([apply_j(basis[:, k]) for k in range(basis.shape[1])]))
            residual = float(
                np.linalg.norm(j_basis - basis @ (basis.T @ j_basis))
            )
            best = residual if best is None else min(best, residual)
    if best is None:
        raise ValueError(f"{b_value} is not an eigenvalue of the doubled operator here")
    return PlaneCheckRecord(orth, inv, mirror, j_eig, best)


# -- the per-matrix Jacobi solver ------------------------------------------


def eigh_jacobi_per_matrix(matrix) -> SpectralSample:
    """Cyclic Jacobi sweeps on one real symmetric matrix, as the package ran
    them before its solver took stacks: the frozen reference it must match
    bit for bit.

    Rotates until the off-diagonal Frobenius mass falls below
    1e-13 * ||M||_F, with a hard cap of 60 sweeps; non-convergence raises
    instead of returning silently degraded output.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    scale = float(np.linalg.norm(a))
    if scale > 0 and float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    a = 0.5 * (a + a.T)
    vecs = np.eye(n)
    if n > 1 and scale > 0:
        target = JACOBI_OFF_TOL * scale
        for _ in range(JACOBI_SWEEP_CAP):
            # off-diagonal Frobenius mass, computed without cancellation
            off = float(np.linalg.norm(a - np.diag(np.diag(a))))
            if off <= target:
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    apq = a[p, q]
                    if abs(apq) <= target / (n * n):
                        continue
                    tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                    c = 1.0 / math.hypot(1.0, t)
                    s = t * c
                    rot_p = c * a[:, p] - s * a[:, q]
                    rot_q = s * a[:, p] + c * a[:, q]
                    a[:, p], a[:, q] = rot_p, rot_q
                    rot_p = c * a[p, :] - s * a[q, :]
                    rot_q = s * a[p, :] + c * a[q, :]
                    a[p, :], a[q, :] = rot_p, rot_q
                    rot_p = c * vecs[:, p] - s * vecs[:, q]
                    rot_q = s * vecs[:, p] + c * vecs[:, q]
                    vecs[:, p], vecs[:, q] = rot_p, rot_q
        else:
            raise JacobiNonConvergence(f"no convergence after {JACOBI_SWEEP_CAP} sweeps")
    values = np.diag(a).copy()
    order = np.argsort(values, kind="stable")
    values = values[order]
    vecs = vecs[:, order]
    return SpectralSample(values, vecs)


# -- the per-point plane check ----------------------------------------------


def arcp_extract_per_point(l_mat: np.ndarray, cluster_tol: float = 1e-6) -> ArcpDecomposition:
    """Plane extraction of one real normal L, as the package ran it before
    the plane check took stacks: the frozen reference of ``arcp_extract``."""
    n = l_mat.shape[0]
    a_mat, b_mat = (l_mat + l_mat.T) / 2, (l_mat - l_mat.T) / 2
    b2 = doubled_matrix(b_mat)
    scale = 1.0 + float(np.linalg.norm(l_mat))
    sample = spectral_sample(b2, tol=cluster_tol)
    bscale = 1.0 + float(np.linalg.norm(b2))
    planes: list[ArcpPlane] = []
    for cluster in sample.clusters:
        if cluster.value <= KERNEL_TOL * bscale:
            continue  # negative eigenvalues mirror positive; kernel handled below
        a2 = np.block([[a_mat, np.zeros((n, n))], [np.zeros((n, n)), a_mat]])
        restricted = cluster.basis.T @ a2 @ cluster.basis
        joint = spectral_sample(restricted, tol=cluster_tol)
        for sub in joint.clusters:
            space = cluster.basis @ sub.basis
            planes.extend(_peel_planes(space, sub.value, cluster.value, l_mat, scale))
    kernel = _kernel_of_skew(b_mat, cluster_tol)
    real_spaces: list[Cluster] = []
    if kernel.shape[1]:
        refine = spectral_sample(kernel.T @ a_mat @ kernel, tol=cluster_tol)
        real_spaces = [Cluster(c.value, c.multiplicity, kernel @ c.basis) for c in refine.clusters]
    decomposition = ArcpDecomposition(
        planes=sorted(planes, key=lambda p: (p.a, p.b)),
        real_spaces=sorted(real_spaces, key=lambda s: s.value),
        gram_residual=0.0,
        eigenvalues=[],
    )
    assembled = decomposition.assembled()
    if assembled.shape[1] != n:
        raise DecompositionError(f"decomposition spans {assembled.shape[1]} of {n} dimensions")
    gram = assembled.T @ assembled
    decomposition.gram_residual = float(np.max(np.abs(gram - np.eye(n))))
    for s in decomposition.real_spaces:
        decomposition.eigenvalues.append((s.value, 0.0, s.multiplicity))
    for p in decomposition.planes:
        decomposition.eigenvalues.append((p.a, p.b, 2))
    return decomposition


def _peel_planes(space: np.ndarray, a_value: float, b_value: float, l_mat, scale):
    planes = []
    work = space
    n = space.shape[0] // 2
    while work.shape[1] >= 2:
        f = work[:, 0]
        jf = apply_j(f)
        u = f[:n]
        v = f[n:]
        nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
        if nu < 1e-12 or nv < 1e-12:
            raise DecompositionError("degenerate doubled eigenvector (zero half)")
        u = u / nu
        v = v / nv
        lu = l_mat @ u
        lv = l_mat @ v
        sim = max(
            float(np.linalg.norm(lu - (a_value * u + b_value * v))),
            float(np.linalg.norm(lv - (a_value * v - b_value * u))),
        )
        plane_basis = orthonormalize(np.column_stack([u, v]))
        image = np.column_stack([l_mat @ plane_basis[:, 0], l_mat @ plane_basis[:, 1]])
        inv = float(np.linalg.norm(image - plane_basis @ (plane_basis.T @ image)))
        planes.append(ArcpPlane(a_value, b_value, u, v, sim / scale, inv / scale))
        drop = orthonormalize(np.column_stack([f, jf]))
        work = orthonormalize(work - drop @ (drop.T @ work))
    if work.shape[1]:
        raise DecompositionError("odd dimension left while peeling planes")
    return planes


def _kernel_of_skew(b_mat: np.ndarray, cluster_tol: float) -> np.ndarray:
    bbt = b_mat @ b_mat.T
    sample = spectral_sample(bbt, tol=cluster_tol)
    scale = 1.0 + float(np.linalg.norm(bbt))
    cols = [c.basis for c in sample.clusters if abs(c.value) <= KERNEL_TOL * scale]
    if not cols:
        return np.zeros((b_mat.shape[0], 0))
    return np.hstack(cols)


def normal_spectrum_per_point(sym_part: np.ndarray, skew_part: np.ndarray, tol: float):
    """One matrix's (a, b >= 0, mult) by nested symmetric solves, as before
    ``normal_spectrum`` took stacks."""
    a_sample = spectral_sample(sym_part, tol=tol)
    out = []
    bbt = skew_part @ skew_part.T
    floor = 1e-13 * (1.0 + float(np.linalg.norm(bbt)))
    for cluster in a_sample.clusters:
        sub = spectral_sample(cluster.basis.T @ bbt @ cluster.basis, tol=tol)
        for sc in sub.clusters:
            b = 0.0 if sc.value <= floor else math.sqrt(sc.value)
            out.append((cluster.value, b, sc.multiplicity))
    return out


def arcp_over_grid_per_point(
    split: SplitFamily,
    chart_path: tuple[str, ...],
    base_points: list[dict],
    cluster_tol: float,
    residual_tol: float,
) -> ArcpReport:
    """The plane check one grid point at a time: the frozen reference of
    ``arcp_over_grid``."""
    worst_sim = worst_gram = worst_eig = 0.0
    plane_count = 0
    for base in base_points:
        l_mat = family_matrix(split.original, base)
        try:
            dec = arcp_extract_per_point(l_mat, cluster_tol)
        except DecompositionError as err:
            raise DecompositionError(f"{err} at {base}") from err
        worst_gram = max(worst_gram, dec.gram_residual)
        plane_count += len(dec.planes)
        for plane in dec.planes:
            worst_sim = max(worst_sim, plane.similitude_residual, plane.invariance_residual)
        halves = (l_mat + l_mat.T) / 2, (l_mat - l_mat.T) / 2
        oracle = normal_spectrum_per_point(*halves, cluster_tol)
        worst_eig = max(worst_eig, _eigenvalue_match_error(dec.eigenvalues, oracle))
    failing = not (
        worst_sim <= residual_tol and worst_gram <= GRAM_TOL and worst_eig <= residual_tol
    )
    return ArcpReport(chart_path, plane_count, worst_sim, worst_gram, worst_eig, failing)


# -- per-pair Procrustes alignment -------------------------------------------


def procrustes_align_per_pair(basis: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rotate one basis to best match its reference frame, as before
    ``procrustes_align`` took stacks; raises on orthogonal subspaces."""
    cross = basis.T @ reference
    if cross.shape == (1, 1):
        return basis * math.copysign(1.0, float(cross[0, 0]) or 1.0)
    right = eigh_jacobi(cross.T @ cross)
    cols = []
    for k in range(cross.shape[1]):
        u = cross @ right.vectors[:, k]
        norm = float(np.linalg.norm(u))
        if norm < 1e-12:
            raise ExtrapolationError("degenerate alignment (orthogonal subspaces)")
        cols.append(u / norm)
    return basis @ (np.column_stack(cols) @ right.vectors.T)


# -- curve extrapolation one curve at a time ----------------------------------


def richardson_limit_per_curve(values: list[np.ndarray], order: int = 2) -> tuple[np.ndarray, float]:
    """Richardson extrapolation to 0 for samples at radii r, r/2, r/4, ...

    Returns the extrapolated value and the norm of the last correction.
    """
    table = [np.asarray(v, dtype=float) for v in values]
    if len(table) < order + 2:
        raise ExtrapolationError("not enough radii for the requested order")
    for level in range(1, order + 1):
        factor = 2.0 ** level
        table = [(factor * table[k + 1] - table[k]) / (factor - 1.0) for k in range(len(table) - 1)]
    return table[-1], float(np.linalg.norm(table[-1] - table[-2]))


def extrapolate_along_curve_per_curve(samples: list[ClusteredSample]) -> list[tuple]:
    """Limit of matched cluster bases along one shrinking-radius curve, as
    before ``extrapolate_along_curve`` took all curves of a heading together.

    Input samples are ordered from the largest radius to the smallest.
    Components are matched between consecutive radii by principal angles,
    aligned by orthogonal Procrustes, extrapolated entrywise (Richardson,
    order 2) and re-orthonormalized. Returns one (eigenvalue_limit,
    multiplicity, basis, correction) per component of the smallest-radius
    sample.
    """
    if len(samples) < 4:
        raise ExtrapolationError("need at least 4 radii")
    mults = samples[0].multiplicities
    for s in samples[1:]:
        if s.multiplicities != mults:
            raise ExtrapolationError("cluster structure changes along the curve")
    results = []
    for idx, dim in enumerate(mults):
        chains: list[np.ndarray] = [samples[0].clusters[idx].basis]
        valchain: list[float] = [samples[0].clusters[idx].value]
        for s in samples[1:]:
            best_k, best_angle, runner_up = nearest_subspace(chains[-1], s.clusters)
            if runner_up is not None and runner_up < best_angle + 1e-3:
                raise ExtrapolationError("ambiguous component matching along curve")
            aligned, degenerate = procrustes_align(s.clusters[best_k].basis, chains[-1])
            if degenerate:
                raise ExtrapolationError("degenerate alignment (orthogonal subspaces)")
            chains.append(aligned)
            valchain.append(s.clusters[best_k].value)
        limit, corr = richardson_limit_per_curve(chains)
        value, _ = richardson_limit_per_curve([np.array([v]) for v in valchain])
        basis = orthonormalize(limit)
        if basis.shape[1] != dim:
            raise ExtrapolationError("extrapolated basis lost rank")
        results.append((float(value[0]), dim, basis, corr))
    return results


def curve_limits_per_curve(section, start, owners, delta, matrices, quads, cluster_tol) -> list:
    """Per curve from a start point along delta, its limit bouquet or its
    ExtrapolationError, one curve at a time after one batch of Jacobi solves:
    the heading loop body of ``frames._extrapolate_bouquets`` before it
    stacked the chains, clusters, Rayleigh values and residuals."""
    names = section.chart.universe.params
    radii, steps = EXTRAPOLATION_RADII, len(EXTRAPOLATION_RADII)
    curves = start[:, None, :] + np.array(radii)[:, None] * delta
    on_curves = [dict(zip(names, row)) for row in curves.reshape(-1, len(names)).tolist()]
    _, _, _, off, spectra = _spectra_at(
        section,
        on_curves,
        lambda i: f"radius {radii[i % steps]} on the curve of grid index {owners[i // steps]}",
    )
    member = dict(zip(off.tolist(), range(len(off))))
    out: list = []
    for j in range(len(start)):
        at = [member.get(j * steps + r) for r in range(steps)]
        try:
            if None in at:
                raise ExtrapolationError("curve runs inside the discriminant image")
            values, vectors = spectra.eigenvalues[at], spectra.vectors[at]
            clusters = cluster_stack(values, vectors, cluster_tol)
            limits = extrapolate_along_curve_per_curve(list(map(ClusteredSample, values, vectors, clusters)))
        except ExtrapolationError as err:
            out.append(err)
            continue
        matrix = matrices[owners[j]]
        # eigenvalue at the point itself: Rayleigh value on the limit basis
        rayleigh = [
            Cluster(float(np.mean(np.diag(b.T @ matrix @ b))), m, b) for _, m, b, _ in limits
        ]
        found = sorted(rayleigh, key=lambda s: (s.value, s.multiplicity))
        worst = _residuals([found], quads[owners[j], None], section.system.monomials)[1][0]
        if worst > QUAD_VANISH_TOL:
            found = ExtrapolationError(
                f"recovered quadratics do not vanish on the extrapolated bouquet "
                f"(residual {worst:.3e})"
            )
        out.append(found)
    return out


def extrapolate_bouquets_per_curve(section, points, exc, matrices, quads, cluster_tol, direction):
    """``frames._extrapolate_bouquets`` over ``curve_limits_per_curve``: the
    frozen reference of the batched curve step."""
    names = section.chart.universe.params
    start = np.array([[float(points[i][name]) for name in names] for i in exc])
    found: dict[int, list[Cluster]] = {}
    errors: dict[int, Exception] = {}
    pending = list(range(len(exc)))
    for delta in [direction] if direction is not None else _transversal_directions(len(names)):
        limits = curve_limits_per_curve(
            section, start[pending], exc[pending], delta, matrices, quads, cluster_tol
        )
        for q, got in zip(pending, limits):
            if isinstance(got, ExtrapolationError):
                errors[q] = got
            else:
                found[q] = got
        pending = [q for q in pending if q not in found]
        if not pending:
            return [found[q] for q in range(len(exc))]
    q = pending[0]
    raise ExtrapolationError(
        f"extrapolation failed at {points[exc[q]]!r} in every direction: {errors[q]}"
    )


# -- the point-by-point chart sampler ----------------------------------------


def sample_points(universe: VarUniverse, seed: int, count: int = SAMPLE_COUNT):
    """The seeded pool as Fractions, built as before it was held on integers."""
    names = universe.params
    u = len(names)
    pts: list[dict[str, Fraction]] = [{n: Fraction(0) for n in names}]
    for k in range(u):
        for s in (1, -1):
            pt = {n: Fraction(0) for n in names}
            pt[names[k]] = Fraction(s)
            pts.append(pt)
    rng = random.Random(seed)
    while len(pts) < count:
        pt = {}
        zero_mask = rng.random() < 0.35
        for n in names:
            if zero_mask and rng.random() < 0.5:
                pt[n] = Fraction(0)
            else:
                pt[n] = Fraction(rng.randint(-12, 12), rng.randint(1, 8))
        pts.append(pt)
    return pts[:count]


def common_zeros_per_point(gens: list[Polynomial], universe: VarUniverse, seed: int):
    """Pool points, in pool order, at which every generator vanishes: one
    exact evaluation per point and generator, as before ``_common_zeros``
    filtered the pool on integer columns."""
    for pt in sample_points(universe, seed):
        if all(not g.eval_scalar(pt) for g in gens):
            yield pt
