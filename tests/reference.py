"""Definitions only the tests use.

Checks of the paper's identities that no pipeline stage runs (the Jacobian
and coefficient ranks, the diagonalizability classifier, the doubled
operator's plane identities), small conveniences (exact base points, the
largest principal angle of one pair) and the per-matrix Jacobi solver the
stacked one replaced, kept frozen as its bit-for-bit reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from eigenbouquet.algebra import (
    Polynomial,
    VarUniverse,
    all_exact,
    bareiss_det,
    divexact,
    eval_matrix_rational,
    gcd_multivariate,
    scalar_matrix_rank,
)
from eigenbouquet.bouquet import QuadForm, QuadSystem
from eigenbouquet.frames import family_matrix
from eigenbouquet.oracle import (
    JACOBI_OFF_TOL,
    JACOBI_SWEEP_CAP,
    JacobiNonConvergence,
    SpectralSample,
    eigh_jacobi,
    orthonormalize,
    principal_angles,
    spectral_sample,
)
from eigenbouquet.realnormal import KERNEL_TOL, SplitFamily, doubled_matrix
from eigenbouquet.realnormal import _apply_j as apply_j
from eigenbouquet.resolve import ChartNode


def base_point(node: ChartNode, point: dict) -> dict:
    """Exact base point of a chart point."""
    return {name: poly.eval_scalar(point) for name, poly in node.to_base.items()}


def subspace_angle(basis_a: np.ndarray, basis_b: np.ndarray) -> float:
    """Largest canonical angle: 0 iff the spans agree."""
    return max(principal_angles(basis_a, basis_b))


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
