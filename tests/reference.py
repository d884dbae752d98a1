"""Definitions only the tests use.

Checks of the paper's identities that no pipeline stage runs (the
quadratics as polynomials, the Jacobian and coefficient ranks, the diagonalizability classifier, the doubled
operator's plane identities, the limit bouquet's uniqueness across
transversal headings, with the nearest-subspace matching it compares by), small conveniences (the benchmark's jobs,
exact base points, the exactness of a point, the largest principal angle
of one pair, one matrix's clustered spectrum, hand-built clusters as the
arrays cluster_frames gives) and the per-matrix paths the stacked ones
replaced (the Jacobi solver, the plane check over a grid, the
single-matrix Gram-Schmidt that drops short columns, Procrustes alignment
of one pair or a stack, curve extrapolation one curve at a time, one
bouquet object per grid point with one Cluster per eigenspace, the grid
walk's level-by-level Procrustes stacks, label angles and LAPACK
cross-check from per-point clusters, the chart sampler's point-by-point
scan), the polynomial text parser's character-loop lexer, the Bareiss
determinant the Laplace minors replaced, the two quadratic-system builders
(over Q, and over Q(i) by a hand-written real and imaginary split) the one
builder replaced, the polynomial class before packed monomials
(``PolynomialReference``: exponent tuples mapped to Fraction objects) and
the exact chart layer on it without its shortcuts (the gcd, exact division
and cofactor-tracking Buchberger run), kept frozen as their bit-for-bit
references. The package clusters
into arrays only; the per-point references keep their own Cluster, one
object per eigenspace, as the package had it.
"""

from __future__ import annotations

import importlib.util
import math
import random
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from pathlib import Path

import numpy as np

from eigenbouquet.algebra import (
    MembershipResult,
    NotDivisible,
    Polynomial,
    Scalar,
    UniverseMismatch,
    VarUniverse,
    as_scalar,
    divexact,
    eval_matrix_rational,
    gcd_multivariate,
    scalar_matrix_rank,
)
from eigenbouquet.algebra.groebner import DEFAULT_DEGREE_CAP, DEFAULT_STEP_BUDGET
from eigenbouquet.algebra.parser import ParseError, UnknownVariable
from eigenbouquet.bouquet import QuadSystem, _real_doubled_universe, quad_monomials, quad_pairs
from eigenbouquet.family import MatrixFamily, SplitFamily, check_structure
from eigenbouquet.frames import (
    EXTRAPOLATION_RADII,
    GRAM_TOL,
    QUAD_VANISH_TOL,
    GridBouquet,
    PluckerSection,
    _curve_limits,
    _residuals,
    _spectra_at,
    _transversal_directions,
    family_matrix,
)
from eigenbouquet.oracle import (
    DEFAULT_CLUSTER_TOL,
    JACOBI_OFF_TOL,
    JACOBI_SWEEP_CAP,
    ExtrapolationError,
    JacobiNonConvergence,
    SpectralSample,
    _dots,
    eigh_jacobi,
    extrapolate_along_curve,
    gap_groups,
    nearest_of,
    orthonormalize,
    polar_factor,
    principal_angles,
)
from eigenbouquet.realnormal import (
    KERNEL_TOL,
    ArcpDecomposition,
    ArcpPlane,
    ArcpReport,
    DecompositionError,
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
    """Largest canonical angle of one pair of bases: 0 iff the spans agree."""
    return float(principal_angles(basis_a[None], basis_b[None]).max())


@dataclass(slots=True)
class Cluster:
    """One eigenspace of one matrix, as the package held it per point."""

    value: float
    multiplicity: int
    basis: np.ndarray  # shape (n, multiplicity), orthonormal columns


def frame_stack(bouquets: list[list[Cluster]]) -> np.ndarray:
    """The (P, n, n) stack of assembled frames: each point's cluster bases
    side by side, in cluster order."""
    return np.stack([np.hstack([s.basis for s in subs]) for subs in bouquets])


def clustered(samples) -> tuple:
    """cluster_frames' (frames, values, slots) of hand-built samples, each a
    list of (value, basis) pairs: the bases side by side, each one slot."""
    frames = np.stack([np.hstack([basis for _, basis in sample]) for sample in samples])
    values = np.array([[value for value, basis in sample for _ in range(basis.shape[1])] for sample in samples])
    slots = [
        (np.array([i]), start, start + basis.shape[1])
        for i, sample in enumerate(samples)
        for start, (_, basis) in zip(accumulate((b.shape[1] for _, b in sample), initial=0), sample)
    ]
    return frames, values, slots


def limits_along(curves) -> list:
    """extrapolate_along_curve on curves of hand-built samples (see
    ``clustered``), each with as many samples, in one stack per matrix size:
    per curve its limits as (multiplicity, basis) per component, in slot
    order (ascending sample eigenvalue), or its error."""
    out: list = [None] * len(curves)
    sizes: dict[int, list[int]] = {}
    for j, curve in enumerate(curves):
        sizes.setdefault(curve[0][0][1].shape[0], []).append(j)
    for js in sizes.values():
        samples = [sample for j in js for sample in curves[j]]
        rows = np.arange(len(samples)).reshape(len(js), -1)
        for j, frame, got in zip(js, *extrapolate_along_curve(clustered(samples), rows)):
            if isinstance(got, ExtrapolationError):
                out[j] = got
            else:
                out[j] = [(m, frame[:, a : a + m]) for a, m in zip(accumulate(got, initial=0), got)]
    return out


def pairs(clusters: list[Cluster]) -> list[tuple]:
    """(value, basis) of each cluster."""
    return [(c.value, c.basis) for c in clusters]


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
    sample = eigh_jacobi(np.asarray(matrix)[None])
    clusters = cluster_stack_per_point(sample.eigenvalues, sample.vectors, tol)[0]
    return ClusteredSample(sample.eigenvalues[0], sample.vectors[0], clusters)


# -- ranks of the quadratic system ----------------------------------------


def quadratics(system: QuadSystem) -> list[Polynomial]:
    """Each coefficient-matrix row as one polynomial in parameters and fibers."""
    u = system.fiber_universe
    nparams = len(u.params)
    monomials = []
    for a, b in system.monomials:
        exps = [0] * u.nvars
        exps[nparams + a] += 1
        exps[nparams + b] += 1
        monomials.append(Polynomial(u, {tuple(exps): Fraction(1)}))
    return [sum((p * m for p, m in zip(row, monomials)), Polynomial.zero(u)) for row in system.coeff_matrix]


def wedge_quadratics_reference(family: MatrixFamily) -> QuadSystem:
    """The two-builder quadratic system: (Mv)_i v_j - (Mv)_j v_i expanded
    entry by entry, over Q directly and over Q(i) by a hand-written real and
    imaginary split."""
    if not family.verified:
        check_structure(family)
    n = family.n
    universe = family.universe
    if family.fld == "gaussian":
        return _wedge_quadratics_gaussian_reference(family)
    labels: list[tuple] = []
    matrix: list[list[Polynomial]] = []
    zero = Polynomial.zero(universe)
    for i, j in quad_pairs(n):
        coeffs: dict[tuple[int, int], Polynomial] = {}

        def add(a, b, poly):
            key = (a, b) if a <= b else (b, a)
            coeffs[key] = coeffs.get(key, zero) + poly

        # (Mv)_i v_j = sum_k M[i][k] v_k v_j ; minus the (i <-> j) swap
        for k in range(n):
            add(k, j, family.entries[i][k])
            add(k, i, -family.entries[j][k])
        coeffs = {key: p for key, p in coeffs.items() if not p.is_zero()}
        labels.append((i, j))
        matrix.append([coeffs.get(m, zero) for m in quad_monomials(n)])
    return QuadSystem(family, universe, labels, matrix)


def _wedge_quadratics_gaussian_reference(family: MatrixFamily) -> QuadSystem:
    """Real/imaginary split over doubled real fiber coordinates."""
    n = family.n
    target = _real_doubled_universe(family.universe)
    nn = 2 * n
    zero = Polynomial.zero(target)

    def part(poly: Polynomial, which: str) -> Polynomial:
        terms = {}
        for e, c in poly.terms.items():
            v = c.real if which == "re" else c.imag
            if v:
                terms[e] = v
        return Polynomial(family.universe, terms).in_universe(target)

    re_m = [[part(family.entries[r][c], "re") for c in range(n)] for r in range(n)]
    im_m = [[part(family.entries[r][c], "im") for c in range(n)] for r in range(n)]

    labels: list[tuple] = []
    matrix: list[list[Polynomial]] = []
    monos = quad_monomials(nn)
    for i, j in quad_pairs(n):
        re_coeffs: dict[tuple[int, int], Polynomial] = {}
        im_coeffs: dict[tuple[int, int], Polynomial] = {}

        def add(store, a, b, poly):
            if poly.is_zero():
                return
            key = (a, b) if a <= b else (b, a)
            store[key] = store.get(key, zero) + poly

        # fiber v = x + i y with x_k at index k and y_k at index n + k.
        # (Mv)_i v_j - (Mv)_j v_i, split into real and imaginary parts:
        for k in range(n):
            for (this, other, sign) in ((k, j, 1), (k, i, -1)):
                row = i if sign > 0 else j
                add(re_coeffs, this, other, re_m[row][this].scale(sign))
                add(re_coeffs, n + this, n + other, re_m[row][this].scale(-sign))
                add(re_coeffs, n + this, other, im_m[row][this].scale(-sign))
                add(re_coeffs, this, n + other, im_m[row][this].scale(-sign))
                add(im_coeffs, this, n + other, re_m[row][this].scale(sign))
                add(im_coeffs, n + this, other, re_m[row][this].scale(sign))
                add(im_coeffs, this, other, im_m[row][this].scale(sign))
                add(im_coeffs, n + this, n + other, im_m[row][this].scale(-sign))
        for which, coeffs in (("re", re_coeffs), ("im", im_coeffs)):
            coeffs = {key: p for key, p in coeffs.items() if not p.is_zero()}
            labels.append((which, i, j))
            matrix.append([coeffs.get(m, zero) for m in monos])
    return QuadSystem(family, target, labels, matrix)


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
    rows = [[p.derivative(f) for f in fibers] for p in quadratics(system)]
    if all_exact(point.values()) and all_exact(fiber):
        return scalar_matrix_rank(eval_matrix_rational(rows, at))
    jac = np.array([[d.eval_complex(at).real for d in row] for row in rows])
    if not jac.size:
        return 0
    normal = jac.T @ jac
    sv = np.sqrt(np.clip(eigh_jacobi(normal[None]).eigenvalues[0], 0.0, None))
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
    b_mat = family_matrix(split.skew, point, 1)[0]
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
            j_basis = orthonormalize_columns(np.column_stack([apply_j(basis[:, k]) for k in range(basis.shape[1])]))
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
    planes = sorted(planes, key=lambda p: (p.a, p.b))
    real_spaces = sorted(real_spaces, key=lambda s: s.value)
    cols = [s.basis for s in real_spaces] + [np.column_stack([p.u, p.v]) for p in planes]
    assembled = np.hstack(cols) if cols else np.zeros((0, 0))
    if assembled.shape[1] != n:
        raise DecompositionError(f"decomposition spans {assembled.shape[1]} of {n} dimensions")
    gram = assembled.T @ assembled
    eigenvalues = [(s.value, 0.0, s.multiplicity) for s in real_spaces] + [(p.a, p.b, 2) for p in planes]
    return ArcpDecomposition(planes, assembled, float(np.max(np.abs(gram - np.eye(n)))), eigenvalues)


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
        plane_basis = orthonormalize_columns(np.column_stack([u, v]))
        image = np.column_stack([l_mat @ plane_basis[:, 0], l_mat @ plane_basis[:, 1]])
        inv = float(np.linalg.norm(image - plane_basis @ (plane_basis.T @ image)))
        planes.append(ArcpPlane(a_value, b_value, u, v, sim / scale, inv / scale))
        drop = orthonormalize_columns(np.column_stack([f, jf]))
        work = orthonormalize_columns(work - drop @ (drop.T @ work))
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
        l_mat = family_matrix(split.original, base, 1)[0]
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
    right = eigh_jacobi((cross.T @ cross)[None]).vectors[0]
    cols = []
    for k in range(cross.shape[1]):
        u = cross @ right[:, k]
        norm = float(np.linalg.norm(u))
        if norm < 1e-12:
            raise ExtrapolationError("degenerate alignment (orthogonal subspaces)")
        cols.append(u / norm)
    return basis @ (np.column_stack(cols) @ right.T)


def procrustes_align(basis: np.ndarray, reference: np.ndarray):
    """Rotate each basis (orthonormal columns) of a stack to best match its
    reference frame: the aligned stack and which members are degenerate
    (orthogonal subspaces), each of which keeps its basis. One pair gives one
    basis and one flag. The package's own kernel until it aligned with
    ``polar_factor`` directly."""
    bases, refs = (np.array(m, dtype=float, ndmin=3) for m in (basis, reference))
    turn, degenerate = polar_factor(np.swapaxes(bases, 1, 2) @ refs)
    aligned = bases * turn if turn.shape[1:] == (1, 1) else bases @ turn
    aligned[degenerate] = bases[degenerate]
    return (aligned[0], bool(degenerate[0])) if np.ndim(basis) == 2 else (aligned, degenerate)


def orthonormalize_columns(columns: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt (two passes) on one (n, m) matrix, a column left
    1e-12 or shorter dropped: the single-matrix path ``orthonormalize`` had
    before it took stacks only, which zero such a column instead."""
    stack = np.array(columns, dtype=float, ndmin=3)
    kept: list[np.ndarray] = []
    for k in range(stack.shape[2]):
        v = stack[:, :, k].copy()
        for u in kept + kept:
            v = v - _dots(u, v)[:, None] * u
        norm = np.sqrt(_dots(v, v))[:, None]
        if not norm[0, 0] <= 1e-12:
            kept.append(v / norm)
    return np.stack(kept, axis=2)[0] if kept else np.zeros((stack.shape[1], 0))


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


def nearest_subspace_per_cluster(basis: np.ndarray, candidates: list[Cluster], skip=()):
    """The candidate of basis's dimension, outside skip, spanning the subspace
    nearest to basis's by largest angle, as ``nearest_of`` gives it:
    ``nearest_subspace`` while it took Cluster lists."""
    ks = [k for k, c in enumerate(candidates) if k not in skip and c.multiplicity == basis.shape[1]]
    if not ks:
        return None, None, None
    angles = principal_angles(np.stack([candidates[k].basis for k in ks]), basis[None])
    return nearest_of(zip(ks, angles.max(axis=1).tolist()))


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
            best_k, best_angle, runner_up = nearest_subspace_per_cluster(chains[-1], s.clusters)
            if runner_up is not None and runner_up < best_angle + 1e-3:
                raise ExtrapolationError("ambiguous component matching along curve")
            aligned, degenerate = procrustes_align(s.clusters[best_k].basis, chains[-1])
            if degenerate:
                raise ExtrapolationError("degenerate alignment (orthogonal subspaces)")
            chains.append(aligned)
            valchain.append(s.clusters[best_k].value)
        limit, corr = richardson_limit_per_curve(chains)
        value, _ = richardson_limit_per_curve([np.array([v]) for v in valchain])
        basis = orthonormalize_columns(limit)
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
            clusters = cluster_stack_per_point(values, vectors, cluster_tol)
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
        worst = _residuals(frame_stack([found]), quads[owners[j], None], section.system.monomials)[1][0]
        if worst > QUAD_VANISH_TOL:
            found = ExtrapolationError(
                f"recovered quadratics do not vanish on the extrapolated bouquet "
                f"(residual {worst:.3e})"
            )
        out.append(found)
    return out


def extrapolate_bouquets_per_curve(section, points, exc, matrices, quads, cluster_tol):
    """``frames._extrapolate_bouquets`` over ``curve_limits_per_curve``: the
    frozen reference of the batched curve step."""
    names = section.chart.universe.params
    start = np.array([[float(points[i][name]) for name in names] for i in exc])
    found: dict[int, list[Cluster]] = {}
    errors: dict[int, Exception] = {}
    pending = list(range(len(exc)))
    for delta in _transversal_directions(len(names)):
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


# -- the limit bouquet's uniqueness across headings ----------------------------


def nearest_subspace(basis: np.ndarray, frame: np.ndarray, pattern: tuple, skip=()):
    """The subspace of frame (its columns in pattern's slots) of basis's
    dimension, outside skip, spanning the subspace nearest to basis's by
    largest angle, as ``nearest_of`` gives it."""
    starts = list(accumulate(pattern, initial=0))
    ks = [k for k, m in enumerate(pattern) if k not in skip and m == basis.shape[1]]
    if not ks:
        return None, None, None
    angles = principal_angles(np.stack([frame[:, starts[k] : starts[k + 1]] for k in ks]), basis[None])
    return nearest_of(zip(ks, angles.max(axis=1).tolist()))


def limit_uniqueness_check(
    section: PluckerSection, point: dict, cluster_tol: float = DEFAULT_CLUSTER_TOL
) -> float:
    """Max principal angle between the limit bouquets at a chart point along
    the first three transversal headings, the first of which the frame pass
    tries first: one exact batch at the point, one curve batch per heading."""
    names = section.chart.universe.params
    quads = section.recover_quadratics([point])
    _, _, matrices, _, _ = _spectra_at(section, [point], lambda i: repr(point))
    start, owners = np.array([[float(point[name]) for name in names]]), np.zeros(1, dtype=int)
    headings = islice(_transversal_directions(len(names)), 3)
    limits = [_curve_limits(section, start, owners, d, matrices, quads, cluster_tol) for d in headings]
    for _, _, (got,) in limits:
        if isinstance(got, ExtrapolationError):
            raise got
    (first, _, (pattern,)), *others = limits
    worst = 0.0
    for frame, _, (other,) in others:
        used: set[int] = set()
        for a, b in zip(accumulate(pattern, initial=0), accumulate(pattern)):
            k, angle, _ = nearest_subspace(first[0][:, a:b], frame[0], other, used)
            if k is None:
                raise ExtrapolationError("bouquet structures differ across curves")
            used.add(k)
            worst = max(worst, angle)
    return worst


# -- one bouquet object per grid point ---------------------------------------


def cluster_stack_per_point(values: np.ndarray, vectors: np.ndarray, tol: float, frames=None) -> list:
    """Greedy gap clustering of each member's ascending spectrum: a gap above
    tol * (1 + max|lambda|) starts a cluster, whose basis is its
    orthonormalized eigenvectors. Members with the same gaps go together.
    A (count, n, n) array frames, when given, receives each member's cluster
    bases side by side. The clustering before it wrote the grid's arrays."""
    out: list[list[Cluster]] = [[] for _ in range(len(values))]
    for members, bounds in gap_groups(values, tol):
        for start, stop in zip(bounds, bounds[1:]):
            bases = orthonormalize(vectors[members, :, start:stop])
            if frames is not None:
                frames[members, :, start:stop] = bases
            # np.mean: the sum, then one division by the count
            means = np.add.reduce(values[members, start:stop], axis=1) / (stop - start)
            whole = bases.any(axis=1).all(axis=1).tolist()
            for i, basis, value, full in zip(members, bases, means.tolist(), whole):
                basis = basis if full else basis[:, basis.any(axis=0)]  # as one matrix drops it
                out[i].append(Cluster(value, stop - start, basis))
    return out


@dataclass(slots=True)
class BouquetAtPoint:
    point: tuple
    base_point: dict  # base parameter name -> float value
    subspaces: list[Cluster]  # off the discriminant the clusters, on it the limits
    exceptional: bool
    quad_residual: float  # worst |q(v)| over recovered quadratics and basis vectors
    gram_residual: float  # deviation of the assembled frame from orthonormality
    matrix: np.ndarray  # the family matrix at the base point
    frame: np.ndarray  # the subspaces' bases side by side: a view into the grid's frame stack

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(s.multiplicity for s in self.subspaces)


def extract_bouquets_per_point(section, points: list[dict], cluster_tol: float = 1e-6) -> list:
    """One BouquetAtPoint per chart point, with its Clusters and base-point
    dict: ``frames.extract_bouquets`` before it returned one GridBouquet,
    its limits from the per-curve reference of the curve step."""
    quads = section.recover_quadratics(points)
    base, on_disc, matrices, off, spectra = _spectra_at(section, points, "grid index {}".format)
    subspaces: list = [None] * len(points)
    n = matrices.shape[-1]
    solved = np.zeros((len(off), n, n))  # off the discriminant, the frames come with the clusters
    clustered = cluster_stack_per_point(spectra.eigenvalues, spectra.vectors, cluster_tol, solved)
    for i, clusters in zip(off, clustered):
        subspaces[i] = clusters  # ascending values already
    frames = np.zeros((len(points), n, n))
    frames[off] = solved
    exc = np.flatnonzero(on_disc)
    if exc.size:
        limits = extrapolate_bouquets_per_curve(section, points, exc, matrices, quads, cluster_tol)
        for i, found in zip(exc, limits):
            subspaces[i] = found
        frames[exc] = frame_stack(limits)
    gram, quad = _residuals(frames, quads, section.system.monomials)
    names = section.chart.universe.params
    columns = {k: v.tolist() for k, v in base.items()}
    return [
        BouquetAtPoint(tuple(point[n] for n in names), {k: c[i] for k, c in columns.items()},
                       subspaces[i], bool(on_disc[i]), float(quad[i]), float(gram[i]), matrices[i], frames[i])
        for i, point in enumerate(points)
    ]


def as_grid(bouquets: list[BouquetAtPoint]) -> GridBouquet:
    """The GridBouquet holding what per-point bouquets hold: each column's
    value is its subspace's."""
    return GridBouquet(
        {k: np.array([b.base_point[k] for b in bouquets]) for k in bouquets[0].base_point},
        np.array([b.exceptional for b in bouquets]),
        np.stack([b.matrix for b in bouquets]),
        np.stack([b.frame for b in bouquets]),
        np.array([[s.value for s in b.subspaces for _ in range(s.multiplicity)] for b in bouquets]),
        [b.multiplicities for b in bouquets],
        np.array([b.quad_residual for b in bouquets]),
        np.array([b.gram_residual for b in bouquets]),
    )


# -- labels, the walk and the frame oracle from per-point clusters ------------


def neighbor_index(idx: int, counts) -> int:
    """Previous grid point along the innermost axis with a positive index."""
    multi = np.unravel_index(idx, counts)
    for axis in range(len(counts) - 1, -1, -1):
        if multi[axis] > 0:
            return idx - math.prod(counts[axis + 1 :])
    raise ValueError("no neighbor for the first grid point")


def largest_angles(bases_a: list[np.ndarray], bases_b: list[np.ndarray]) -> np.ndarray:
    """Largest principal angle between bases_a[k] and bases_b[k], 0 iff the
    spans agree, for every k: one stacked principal_angles call per shape."""
    out = np.zeros(len(bases_a))
    groups: dict[tuple, array] = {}  # indices in int arrays: no object per pair
    for k, (a, b) in enumerate(zip(bases_a, bases_b)):
        groups.setdefault(a.shape + b.shape, array("q")).append(k)
    for ks in groups.values():
        stacks = [np.stack([bases[k] for k in ks]) for bases in (bases_a, bases_b)]
        out[np.asarray(ks)] = principal_angles(*stacks).max(axis=1)
    return out


def label_angles_per_pair(bouquets, previous) -> np.ndarray:
    """angles[idx, i, j]: largest principal angle between subspace j at grid
    point idx and subspace i of its dimension at its predecessor, else NaN;
    every pair's Cluster bases stacked by shape."""
    width = max(len(b.subspaces) for b in bouquets)
    angles = np.full((len(bouquets), width, width), np.nan)
    slots, cands, refs = array("q"), [], []
    for idx in range(1, len(bouquets)):
        for i, ref in enumerate(bouquets[previous[idx]].subspaces):
            for j, cand in enumerate(bouquets[idx].subspaces):
                if cand.multiplicity == ref.multiplicity:
                    slots.append((idx * width + i) * width + j)
                    cands.append(cand.basis)
                    refs.append(ref.basis)
    angles.flat[np.asarray(slots)] = largest_angles(cands, refs)
    return angles


def oracle_angle_per_cluster(bouquets, components, cluster_tol: float) -> float:
    """Worst angle between a labeled frame and the nearest LAPACK eigenspace
    of its dimension off the discriminant, one Cluster per eigenspace."""
    off = [idx for idx, b in enumerate(bouquets) if not b.exceptional]
    if not off:
        return 0.0
    values, vectors = np.linalg.eigh(np.stack([bouquets[idx].matrix for idx in off]))
    references = cluster_stack_per_point(values, vectors, cluster_tol)
    worst = 0.0
    for comp in components:
        owners, refs = array("q"), []
        for k, clusters in enumerate(references):
            for ref in clusters:
                if ref.multiplicity == comp.dim:
                    owners.append(k)
                    refs.append(ref.basis)
        nearest = np.full(len(off), np.inf)
        frames = [comp.frames[off[k]] for k in owners]
        np.minimum.at(nearest, np.asarray(owners), largest_angles(refs, frames))
        worst = max([worst, *nearest[np.isfinite(nearest)].tolist()])
    return worst


def walk_level_by_level(bouquets, counts):
    """Labels, frames and flags of the grid walk with one Procrustes stack per
    component and level of the neighbour tree, each level aligned to its
    predecessors' aligned frames: (labels, frames per component, flags)."""
    previous = [None] + [neighbor_index(idx, counts) for idx in range(1, len(bouquets))]
    angles = label_angles_per_pair(bouquets, previous)
    flags: list[tuple] = []  # (grid index, component, kind, message)
    first = bouquets[0].subspaces
    anchor = sorted(
        range(len(first)),
        key=lambda k: (first[k].multiplicity, first[k].value, tuple(np.round(first[k].basis[:, 0], 9))),
    )
    dims = [first[k].multiplicity for k in anchor]
    labels = [anchor]
    depth, levels = [0], {}
    for idx in range(1, len(bouquets)):
        prev = previous[idx]
        depth.append(depth[prev] + 1)
        levels.setdefault(depth[idx], []).append(idx)
        taken: list[int] = []
        for c in range(len(dims)):
            k, angle, runner_up = nearest_of(
                (j, angle) for j, angle in enumerate(angles[idx, labels[prev][c]].tolist())
                if not math.isnan(angle) and j not in taken
            )
            if k is None:
                raise ValueError(f"no component of dimension {dims[c]} at grid index {idx}")
            if runner_up is not None and runner_up - angle < 1e-6:
                flags.append((idx, c, 0, f"ambiguous labeling at grid index {idx}"))
            taken.append(k)
        labels.append(taken)
    frames = []
    for c in range(len(dims)):
        basis = first[anchor[c]].basis.copy()
        for k in range(basis.shape[1]):  # the anchor's column signs
            nz = np.nonzero(np.abs(basis[:, k]) > 1e-8)[0]
            if nz.size and basis[nz[0], k] < 0:
                basis[:, k] = -basis[:, k]
        aligned = [basis] + [None] * (len(bouquets) - 1)
        for at in levels.values():
            bases = np.stack([bouquets[idx].subspaces[labels[idx][c]].basis for idx in at])
            got, degenerate = procrustes_align(bases, np.stack([aligned[previous[idx]] for idx in at]))
            for idx, frame, bad in zip(at, got, degenerate.tolist()):
                aligned[idx] = frame
                if bad:
                    flags.append((idx, c, 1, f"frame alignment degenerate at grid index {idx}"))
        frames.append(np.stack(aligned))
    return labels, frames, [message for *_, message in sorted(flags)]


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


# -- the polynomial text parser before one compiled token pattern -----------
# Copied as it was: a character loop tokenizes the whole text, then the
# recursive descent reads the tokens through peek, next, accept and expect.


class _LexerReference:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        self._scan()
        self.k = 0

    def _scan(self):
        text = self.text
        n = len(text)
        i = 0
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if c.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.tokens.append(("num", text[i:j], i))
                i = j
            elif c.isalpha() or c == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[i:j], i))
                i = j
            elif c in "+-*^/()":
                self.tokens.append((c, c, i))
                i += 1
            else:
                raise ParseError(f"unexpected character {c!r}", i)
        self.tokens.append(("end", "", n))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.k]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def accept(self, kind: str):
        if self.tokens[self.k][0] == kind:
            return self.next()
        return None

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok


class _ParserReference:
    def __init__(self, text: str, universe: VarUniverse):
        self.lex = _LexerReference(text)
        self.universe = universe

    def parse(self) -> Polynomial:
        p = self.expr()
        tok = self.lex.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return p

    def expr(self) -> Polynomial:
        negate = False
        if self.lex.accept("-"):
            negate = True
        else:
            self.lex.accept("+")
        total = self.term()
        if negate:
            total = -total
        while True:
            if self.lex.accept("+"):
                total = total + self.term()
            elif self.lex.accept("-"):
                total = total - self.term()
            else:
                return total

    def term(self) -> Polynomial:
        total = self.factor()
        while self.lex.accept("*"):
            total = total * self.factor()
        return total

    def factor(self) -> Polynomial:
        base = self.base()
        if self.lex.accept("^"):
            tok = self.lex.expect("num")
            base = base ** int(tok[1])
        return base

    def base(self) -> Polynomial:
        kind, text, pos = self.lex.peek()
        if kind == "num":
            self.lex.next()
            value = Fraction(int(text))
            if self.lex.accept("/"):
                den = self.lex.expect("num")
                if int(den[1]) == 0:
                    raise ParseError("zero denominator", den[2])
                value = Fraction(int(text), int(den[1]))
            return Polynomial.constant(self.universe, value)
        if kind == "ident":
            self.lex.next()
            if text == "i":
                return Polynomial.constant(self.universe, Scalar(0, 1))
            try:
                return Polynomial.variable(self.universe, text)
            except KeyError:
                raise UnknownVariable(text, pos) from None
        if kind == "(":
            self.lex.next()
            inner = self.expr()
            self.lex.expect(")")
            return inner
        raise ParseError(f"expected a value, found {text!r}" if text else "unexpected end of input", pos)


def parse_polynomial_reference(text: str, universe: VarUniverse) -> Polynomial:
    return _ParserReference(text, universe).parse()


# -- the polynomial class before packed monomials ---------------------------
# Copied as it was: exponent tuples mapped to Fraction (or Scalar) objects, one
# per term. The package's Polynomial holds integer numerators on packed
# monomials; its terms view and every kernel must agree with this class term
# for term, dict order and coefficient types included.


def grlex_key(exps: tuple[int, ...]):
    return (sum(exps), exps)


def _power(x, p: int):
    """x**p as CPython raises complex (x, 0) to an int power: by squaring."""
    result = None
    while p:
        if p & 1:
            result = x if result is None else result * x
        p >>= 1
        x = x * x if p else x
    return result


class PolynomialReference:
    __slots__ = ("universe", "terms")

    def __init__(self, universe: VarUniverse, terms: dict):
        self.universe = universe
        self.terms = {e: c for e, c in terms.items() if c}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, universe: VarUniverse) -> "PolynomialReference":
        return cls(universe, {})

    @classmethod
    def constant(cls, universe: VarUniverse, value) -> "PolynomialReference":
        c = as_scalar(value)
        if not c:
            return cls.zero(universe)
        return cls(universe, {(0,) * universe.nvars: c})

    @classmethod
    def variable(cls, universe: VarUniverse, name: str) -> "PolynomialReference":
        idx = universe.index(name)
        exps = tuple(1 if k == idx else 0 for k in range(universe.nvars))
        return cls(universe, {exps: Fraction(1)})

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction | Scalar:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolynomialReference):
            return NotImplemented
        return self.universe == other.universe and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.universe, frozenset(self.terms.items())))

    # -- ring arithmetic ----------------------------------------------

    def _check(self, other: "PolynomialReference"):
        if self.universe != other.universe:
            raise UniverseMismatch("polynomials live in different universes")

    def __add__(self, other: "PolynomialReference") -> "PolynomialReference":
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            terms[e] = c if s is None else s + c
        return PolynomialReference(self.universe, terms)

    def __sub__(self, other: "PolynomialReference") -> "PolynomialReference":
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            terms[e] = -c if s is None else s - c
        return PolynomialReference(self.universe, terms)

    def __neg__(self) -> "PolynomialReference":
        return PolynomialReference(self.universe, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "PolynomialReference") -> "PolynomialReference":
        self._check(other)
        if not self.terms or not other.terms:
            return PolynomialReference.zero(self.universe)
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                c = ca * cb
                s = out.get(e)
                out[e] = c if s is None else s + c
        return PolynomialReference(self.universe, out)

    def scale(self, value) -> "PolynomialReference":
        c = as_scalar(value)
        if not c:
            return PolynomialReference.zero(self.universe)
        return PolynomialReference(self.universe, {e: k * c for e, k in self.terms.items()})

    def __pow__(self, k: int) -> "PolynomialReference":
        if k < 0:
            raise ValueError("negative polynomial power")
        result = PolynomialReference.constant(self.universe, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- structure ----------------------------------------------------

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        idx = self.universe.index(name)
        return max(e[idx] for e in self.terms)

    def coeffs_in(self, idx: int) -> dict[int, "PolynomialReference"]:
        """View as a polynomial in variable idx: degree -> its coefficient,
        a polynomial free of that variable (only nonzero ones)."""
        out: dict[int, dict] = {}
        for e, c in self.terms.items():
            out.setdefault(e[idx], {})[e[:idx] + (0,) + e[idx + 1 :]] = c
        return {d: PolynomialReference(self.universe, t) for d, t in out.items()}

    def support_vars(self) -> set[str]:
        names = self.universe.names
        out: set[str] = set()
        for e in self.terms:
            for k, p in enumerate(e):
                if p:
                    out.add(names[k])
        return out

    def leading(self) -> tuple[tuple[int, ...], Fraction | Scalar]:
        """Leading (exponents, coefficient) under graded lex."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction | Scalar]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def sort_key(self):
        """A deterministic total-order key on canonical forms."""
        return tuple(
            (e, str(c.real), str(c.imag)) for e, c in self.sorted_terms()
        )

    def derivative(self, name: str) -> "PolynomialReference":
        idx = self.universe.index(name)
        out: dict = {}
        for e, c in self.terms.items():
            p = e[idx]
            if not p:
                continue
            ne = e[:idx] + (p - 1,) + e[idx + 1 :]
            nc = c * p
            s = out.get(ne)
            out[ne] = nc if s is None else s + nc
        return PolynomialReference(self.universe, out)

    # -- substitution and evaluation ----------------------------------

    def in_universe(self, target: VarUniverse) -> "PolynomialReference":
        """Transport by variable name into a universe containing our support."""
        if target == self.universe:
            return self
        names = self.universe.names
        idx_map = {}
        for k, name in enumerate(names):
            if any(e[k] for e in self.terms):
                idx_map[k] = target.index(name)
        out: dict = {}
        for e, c in self.terms.items():
            ne = [0] * target.nvars
            for k, p in enumerate(e):
                if p:
                    ne[idx_map[k]] = p
            key = tuple(ne)
            s = out.get(key)
            out[key] = c if s is None else s + c
        return PolynomialReference(target, out)

    def substitute(self, mapping: dict[str, "PolynomialReference"], target: VarUniverse | None = None) -> "PolynomialReference":
        """Exact composition; unmapped variables carry over by name."""
        for name in mapping:
            self.universe.index(name)
        if target is None:
            if mapping:
                target = next(iter(mapping.values())).universe
            else:
                target = self.universe
        images: dict[int, PolynomialReference] = {}
        for k, name in enumerate(self.universe.names):
            if name in mapping:
                img = mapping[name]
                if img.universe != target:
                    img = img.in_universe(target)
                images[k] = img
        one = PolynomialReference.constant(target, 1)
        pow_cache: dict[int, list[PolynomialReference]] = {}

        def img_power(k: int, p: int) -> PolynomialReference:
            cache = pow_cache.setdefault(k, [one, images[k]])
            while len(cache) <= p:
                cache.append(cache[-1] * images[k])
            return cache[p]

        # one accumulator, dropping a sum that cancels: the term order is that
        # of adding the substituted terms one by one
        out: dict = {}
        for e, c in self.terms.items():
            passthrough = [0] * target.nvars
            part = one
            for k, p in enumerate(e):
                if not p:
                    continue
                if k in images:
                    f = img_power(k, p)
                    part = f if part is one else part * f
                else:
                    passthrough[target.index(self.universe.names[k])] = p
            for pe, pc in part.terms.items():
                key = tuple(x + y for x, y in zip(passthrough, pe))
                v = out.get(key, 0) + c * pc
                if v:
                    out[key] = v
                else:
                    del out[key]
        return PolynomialReference(target, out)

    def eval_scalar(self, assignment: dict[str, Fraction | Scalar | int]) -> Fraction | Scalar:
        """Exact evaluation; every variable in the support must be assigned."""
        vals: dict[int, Fraction | Scalar] = {}
        for name, v in assignment.items():
            vals[self.universe.index(name)] = as_scalar(v)
        total = Fraction(0)
        for e, c in self.terms.items():
            acc = c
            for k, p in enumerate(e):
                if not p:
                    continue
                if k not in vals:
                    raise KeyError(f"unassigned variable {self.universe.names[k]!r}")
                base = vals[k]
                for _ in range(p):
                    acc = acc * base
            total = total + acc
        return total

    def eval_complex(self, assignment: dict):
        """Float evaluation at real values, numbers or float arrays of one
        shape (then elementwise, into a complex array). Each point rounds as
        Python's complex arithmetic on (v, 0) alone would round it."""
        import numpy as np  # here: imported with the package, it adds 0.6 MB to peak RSS
        names = self.universe.names
        re = im = 0.0
        for e, c in self.terms.items():
            part_re, part_im = float(c.real), float(c.imag)
            for k, p in enumerate(e):
                if p:
                    v = assignment[names[k]]
                    f = _power(v if isinstance(v, np.ndarray) else float(v), p)
                    part_re, part_im = part_re * f, part_im * f
            re, im = re + part_re, im + part_im
        out = np.empty(np.broadcast_shapes(*(np.shape(v) for v in assignment.values())), complex)
        out.real, out.imag = re, im
        return out if out.shape else complex(out)

    def eval_integer(self, numerators: dict, den: int, count: int):
        """Exact values at count rational points x = numerators[x] / den,
        numerators mapping each variable to an object array of ints: returns
        an object array of ints (Scalars over Q(i)) and its denominator."""
        import numpy as np
        names = self.universe.names
        degree = max(self.total_degree(), 0)
        lcd = math.lcm(*(part.denominator for c in self.terms.values() for part in (c.real, c.imag)))
        total = 0
        for e, c in self.terms.items():
            term = c * lcd * den ** (degree - sum(e))
            term = term if term.imag else int(term)
            for k, p in enumerate(e):
                if p:
                    term = term * numerators[names[k]] ** p
            total = total + term
        return np.broadcast_to(np.asarray(total, dtype=object), (count,)), lcd * den ** degree

    # -- printing -----------------------------------------------------

    def _monomial_str(self, e: tuple[int, ...]) -> str:
        names = self.universe.names
        parts = []
        for k, p in enumerate(e):
            if p == 1:
                parts.append(names[k])
            elif p > 1:
                parts.append(f"{names[k]}^{p}")
        return "*".join(parts)

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for e, c in self.sorted_terms():
            mono = self._monomial_str(e)
            if not c.imag:
                neg = c < 0
                mag = abs(c)
                if mono:
                    body = mono if mag == 1 else f"{mag}*{mono}"
                else:
                    body = str(mag)
            elif not c.real:
                neg = c.imag < 0
                mag = abs(c.imag)
                itxt = "i" if mag == 1 else f"{mag}*i"
                body = f"{itxt}*{mono}" if mono else itxt
            else:
                neg = False
                body = f"{c}*{mono}" if mono else str(c)
            if not pieces:
                pieces.append(f"-{body}" if neg else body)
            else:
                pieces.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"PolynomialReference({self.to_string()!r})"




def monic_reference(p: PolynomialReference) -> PolynomialReference:
    """Scale so the graded-lex leading coefficient is 1."""
    if p.is_zero():
        return p
    _, lc = p.leading()
    return p.scale(1 / lc)


def primitive_normalize_reference(p: PolynomialReference) -> PolynomialReference:
    """Integer-primitive representative with positive leading coefficient.

    For real-coefficient polynomials: clear denominators, divide by the
    integer content and make the graded-lex leading coefficient positive.
    Falls back to monic for genuinely complex coefficients.
    """
    if p.is_zero():
        return p
    if any(c.imag for c in p.terms.values()):
        return monic_reference(p)
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // math.gcd(den, c.denominator)
    num = 0
    for c in p.terms.values():
        num = math.gcd(num, abs(c.numerator * (den // c.denominator)))
    factor = Fraction(den, num)
    _, lc = p.leading()
    if lc < 0:
        factor = -factor
    return p.scale(factor)


def as_reference(p):
    """The PolynomialReference with p's terms (p itself if it is one)."""
    if isinstance(p, PolynomialReference):
        return p
    return PolynomialReference(p.universe, dict(p.terms))


# -- the exact chart layer before its monomial and cofactor shortcuts --------
# Copied as they were: the gcd recursing through every content, division by
# the general leading-term loop, and Buchberger carrying a dense cofactor list
# on every polynomial it touches, all on PolynomialReference.


def divexact_reference(f: PolynomialReference, g: PolynomialReference) -> PolynomialReference:
    """Exact quotient f/g; raises NotDivisible if the division has a remainder."""
    f, g = as_reference(f), as_reference(g)
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return f
    f._check(g)
    universe = f.universe
    ge, gc = g.leading()
    quotient: dict = {}
    rem = f
    last = None
    while rem.terms:
        re_, rc = rem.leading()
        if re_ == last:
            # an inexact coefficient division left the leading term in place
            raise NotDivisible("leading term does not cancel")
        last = re_
        qe = tuple(a - b for a, b in zip(re_, ge))
        if any(x < 0 for x in qe):
            raise NotDivisible("leading monomial not divisible")
        qc = rc / gc
        quotient[qe] = qc
        rem = rem - PolynomialReference(universe, {qe: qc}) * g
    return PolynomialReference(universe, quotient)


def _ref_coeffs_in(p: PolynomialReference, idx: int) -> dict[int, PolynomialReference]:
    """View p as a polynomial in variable idx with polynomial coefficients."""
    out: dict[int, dict] = {}
    for e, c in p.terms.items():
        d = e[idx]
        ne = e[:idx] + (0,) + e[idx + 1 :]
        bucket = out.setdefault(d, {})
        s = bucket.get(ne)
        bucket[ne] = c if s is None else s + c
    return {d: PolynomialReference(p.universe, t) for d, t in out.items() if any(t.values())}


def _ref_from_coeffs(coeffs: dict[int, PolynomialReference], idx: int, universe) -> PolynomialReference:
    total = PolynomialReference.zero(universe)
    for d, c in coeffs.items():
        if c.is_zero():
            continue
        shift = {}
        for e, k in c.terms.items():
            shift[e[:idx] + (e[idx] + d,) + e[idx + 1 :]] = k
        total = total + PolynomialReference(universe, shift)
    return total


def _ref_deg(coeffs: dict[int, PolynomialReference]) -> int:
    return max(coeffs) if coeffs else -1


def _ref_content_in(p: PolynomialReference, idx: int) -> PolynomialReference:
    coeffs = _ref_coeffs_in(p, idx)
    content = PolynomialReference.zero(p.universe)
    for c in coeffs.values():
        content = gcd_multivariate_reference(content, c)
    return content


def _ref_pseudo_rem(a: dict, b: dict, universe) -> dict:
    """Pseudo-remainder of a by b, both univariate views in the same variable."""
    da, db = _ref_deg(a), _ref_deg(b)
    lb = b[db]
    r = dict(a)
    e = da - db + 1
    while r and _ref_deg(r) >= db:
        dr = _ref_deg(r)
        lr = r[dr]
        new: dict[int, PolynomialReference] = {}
        for d, c in r.items():
            new[d] = c * lb
        for d, c in b.items():
            shifted = d + dr - db
            t = lr * c
            s = new.get(shifted)
            new[shifted] = -t if s is None else s - t
        r = {d: c for d, c in new.items() if not c.is_zero()}
        e -= 1
    for _ in range(e):
        r = {d: c * lb for d, c in r.items()}
    return r


def gcd_multivariate_reference(a: PolynomialReference, b: PolynomialReference) -> PolynomialReference:
    """Monic gcd dividing both arguments with exact quotients.

    gcd(p, 0) is the normalized p; constants are units of the coefficient
    field, so any nonzero constant input forces gcd 1.
    """
    a, b = as_reference(a), as_reference(b)
    if a.is_zero():
        return monic_reference(b)
    if b.is_zero():
        return monic_reference(a)
    a._check(b)
    universe = a.universe
    sup = a.support_vars() | b.support_vars()
    if not sup:
        return PolynomialReference.constant(universe, 1)
    # recurse on the last occurring variable in universe order
    idx = max(universe.index(name) for name in sup)
    ca = _ref_content_in(a, idx)
    cb = _ref_content_in(b, idx)
    content = gcd_multivariate_reference(ca, cb)
    if a.degree_in(universe.names[idx]) == 0 or b.degree_in(universe.names[idx]) == 0:
        return monic_reference(content)
    pa = _ref_coeffs_in(divexact_reference(a, ca), idx)
    pb = _ref_coeffs_in(divexact_reference(b, cb), idx)
    if _ref_deg(pa) < _ref_deg(pb):
        pa, pb = pb, pa
    one = PolynomialReference.constant(universe, 1)
    g = one
    h = one
    while True:
        delta = _ref_deg(pa) - _ref_deg(pb)
        r = _ref_pseudo_rem(pa, pb, universe)
        if not r:
            result = _ref_from_coeffs(pb, idx, universe)
            result = divexact_reference(result, _ref_content_in(result, idx))
            break
        if _ref_deg(r) == 0:
            result = one
            break
        pa = pb
        denom = g * h ** delta
        pb = {d: divexact_reference(c, denom) for d, c in r.items()}
        g = pa[_ref_deg(pa)]
        if delta == 0:
            pass
        elif delta == 1:
            h = g
        else:
            h = divexact_reference(g ** delta, h ** (delta - 1))
    return monic_reference(content * result)


class _RefTracked:
    __slots__ = ("poly", "cofactors")

    def __init__(self, poly: PolynomialReference, cofactors: list[PolynomialReference]):
        self.poly = poly
        self.cofactors = cofactors


def _ref_mono(universe, exps, coeff) -> PolynomialReference:
    return PolynomialReference(universe, {exps: coeff})


def _ref_divides_mono(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _ref_reduce(f: _RefTracked, basis: list[_RefTracked], budget: list[int]) -> _RefTracked:
    """Full multivariate division of f by the basis, cofactors maintained."""
    universe = f.poly.universe
    rem = PolynomialReference.zero(universe)
    work = f.poly
    cof = [c for c in f.cofactors]
    while work.terms:
        budget[0] -= 1
        if budget[0] < 0:
            raise _RefBudget()
        le, lc = work.leading()
        hit = None
        for g in basis:
            ge, _ = g.poly.leading()
            if _ref_divides_mono(ge, le):
                hit = g
                break
        if hit is None:
            t = _ref_mono(universe, le, lc)
            rem = rem + t
            work = work - t
            continue
        ge, gc = hit.poly.leading()
        factor = _ref_mono(universe, tuple(x - y for x, y in zip(le, ge)), lc / gc)
        work = work - factor * hit.poly
        for k in range(len(cof)):
            ck = hit.cofactors[k]
            if not ck.is_zero():
                cof[k] = cof[k] - factor * ck
    return _RefTracked(rem, cof)


class _RefBudget(Exception):
    pass


def ideal_contains_one_reference(
    gens: list[PolynomialReference],
    step_budget: int = DEFAULT_STEP_BUDGET,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> MembershipResult:
    """Certified test of 1-membership for an ideal over Q or Q(i).

    "yes" certifies the generators have empty complex (hence real) common
    zero set. "no" is a definite negative for 1-membership; a real common
    zero may or may not exist and is probed elsewhere by sampling.
    """
    gens = [as_reference(g) for g in gens]
    if not gens:
        raise ValueError("empty generator list")
    universe = gens[0].universe
    one = PolynomialReference.constant(universe, 1)

    def certify(tracked: _RefTracked) -> MembershipResult:
        c = tracked.poly.constant_value()
        inv = 1 / c
        cert = [p.scale(inv) for p in tracked.cofactors]
        return MembershipResult("yes", cert, [one])

    tracked: list[_RefTracked] = []
    for k, g in enumerate(gens):
        cof = [PolynomialReference.zero(universe) for _ in gens]
        cof[k] = one
        if g.is_zero():
            continue
        item = _RefTracked(g, cof)
        if g.is_constant():
            return certify(item)
        tracked.append(item)
    if not tracked:
        return MembershipResult("no", None, [])

    budget = [step_budget]
    basis: list[_RefTracked] = []
    for item in tracked:
        try:
            red = _ref_reduce(item, basis, budget)
        except _RefBudget:
            return MembershipResult("inconclusive", None, [])
        if red.poly.is_zero():
            continue
        if red.poly.is_constant():
            return certify(red)
        basis.append(red)

    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    reductions = 0
    try:
        while pairs:
            # normal strategy: smallest lcm of leading monomials first
            def lcm_of(pair):
                a, _ = basis[pair[0]].poly.leading()
                b, _ = basis[pair[1]].poly.leading()
                return tuple(max(x, y) for x, y in zip(a, b))

            pair = min(pairs, key=lambda pr: (grlex_key(lcm_of(pr)), pr))
            pairs.discard(pair)
            i, j = pair
            fi, fj = basis[i], basis[j]
            ei, ci = fi.poly.leading()
            ej, cj = fj.poly.leading()
            lcm = tuple(max(x, y) for x, y in zip(ei, ej))
            if all(x + y == z for x, y, z in zip(ei, ej, lcm)):
                continue  # coprime leading monomials: s-poly reduces to zero
            if sum(lcm) > degree_cap:
                return MembershipResult("inconclusive", None, [])
            mi = _ref_mono(universe, tuple(x - y for x, y in zip(lcm, ei)), 1 / ci)
            mj = _ref_mono(universe, tuple(x - y for x, y in zip(lcm, ej)), 1 / cj)
            spoly = mi * fi.poly - mj * fj.poly
            cof = [mi * a - mj * b for a, b in zip(fi.cofactors, fj.cofactors)]
            reductions += 1
            red = _ref_reduce(_RefTracked(spoly, cof), basis, budget)
            if red.poly.is_zero():
                continue
            if red.poly.is_constant():
                res = certify(red)
                res.reductions = reductions
                return res
            if red.poly.total_degree() > degree_cap:
                return MembershipResult("inconclusive", None, [])
            basis.append(red)
            new_idx = len(basis) - 1
            pairs.update((k, new_idx) for k in range(new_idx))
    except _RefBudget:
        return MembershipResult("inconclusive", None, [])

    reduced = _ref_reduced_basis(basis, budget)
    if reduced is None:
        return MembershipResult("inconclusive", None, [])
    if len(reduced) == 1 and reduced[0].is_constant():
        # unreachable in practice (constants certify earlier), kept for safety
        return MembershipResult("yes", None, [one])
    return MembershipResult("no", None, reduced, reductions)


def _ref_reduced_basis(basis: list[_RefTracked], budget: list[int]) -> list[PolynomialReference] | None:
    # minimalize: drop polynomials whose leading monomial another one divides
    polys = [b.poly for b in basis]
    keep: list[PolynomialReference] = []
    for k, p in enumerate(polys):
        le, _ = p.leading()
        others = polys[:k] + polys[k + 1 :]
        if any(_ref_divides_mono(q.leading()[0], le) for q in others if not q.is_zero()):
            polys[k] = PolynomialReference.zero(p.universe)
        else:
            keep.append(p)
    # inter-reduce and make monic
    out: list[PolynomialReference] = []
    for k, p in enumerate(keep):
        rest = [ _RefTracked(q, []) for idx, q in enumerate(keep) if idx != k]
        try:
            red = _ref_reduce(_RefTracked(p, []), rest, budget)
        except _RefBudget:
            return None
        if red.poly.is_zero():
            continue
        _, lc = red.poly.leading()
        out.append(red.poly.scale(1 / lc))
    out.sort(key=lambda q: grlex_key(q.leading()[0]))
    return out


def laplace_minors_reference(matrix, rows, col_sets) -> dict[tuple[int, ...], PolynomialReference]:
    """``laplace_minors`` on the matrix's entries as PolynomialReference."""
    matrix = [[as_reference(p) for p in row] for row in matrix]
    needed = [set(col_sets)]
    for r in reversed(rows[1:]):
        needed.append({
            cols[:j] + cols[j + 1 :] for cols in needed[-1] for j, c in enumerate(cols) if matrix[r][c]
        })
    first, zero = matrix[rows[0]], PolynomialReference.zero(matrix[rows[0]][0].universe)
    level = {cols: first[cols[0]] for cols in needed.pop() if first[cols[0]]}
    for k, r in enumerate(rows[1:], start=1):
        below, level, row = level, {}, matrix[r]
        for cols in needed.pop():
            minor = zero
            for j, c in enumerate(cols):
                sub = below.get(cols[:j] + cols[j + 1 :])
                if sub is not None and row[c]:
                    minor = minor - row[c] * sub if (k + j) % 2 else minor + row[c] * sub
            if minor:
                level[cols] = minor
    return level


def exact_terms(p: Polynomial) -> list:
    """A polynomial's terms in dict order, each with its coefficient's type."""
    return [(e, type(c), c) for e, c in p.terms.items()]


def membership_terms(res: MembershipResult) -> tuple:
    """Everything a membership result says, with exact_terms polynomials."""
    cert = None if res.certificate is None else [exact_terms(c) for c in res.certificate]
    return res.status, [exact_terms(b) for b in res.basis], res.reductions, cert
