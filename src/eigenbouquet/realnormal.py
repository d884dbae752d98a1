"""Real normal non-symmetric families via symmetric machinery.

A real normal family splits as L = A + B with A symmetric and B skew, and
the two halves commute. The doubled symmetric operator

    B2(u + v) = (-B v) + (B u),   i.e. the block matrix [[0, -B], [B, 0]],

encodes B's invariant planes in its eigenstructure: a unit eigenvector
u + v for an eigenvalue b != 0 has orthogonal equal-norm halves spanning a
plane on which L acts as the similitude [[a, -b], [b, a]], with a the
eigenvalue of A there. Kernel directions of B carry the real eigenspaces,
refined by A.

Per point, everything is derived from one float evaluation of L: the halves
A = (L + L^T)/2 and B = (L - L^T)/2 and the doubled matrix of B.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import Polynomial, VarUniverse
from .family import MatrixFamily, check_structure
from .frames import GRAM_TOL, family_matrix
from .oracle import Cluster, normal_spectrum, orthonormalize, spectral_sample

KERNEL_TOL = 1e-9


class DecompositionError(ArithmeticError):
    """The invariant planes and real eigenspaces do not fill the space."""


@dataclass
class SplitFamily:
    original: MatrixFamily
    sym: MatrixFamily  # (L + L^T) / 2
    skew: MatrixFamily  # (L - L^T) / 2
    doubled: MatrixFamily  # symmetric 2n x 2n block matrix [[0, -B], [B, 0]]

    @property
    def n(self) -> int:
        return self.original.n


def doubled_matrix(b: np.ndarray) -> np.ndarray:
    """The float block matrix [[0, -B], [B, 0]] of a float skew half B."""
    zero = np.zeros_like(b)
    # zero - b keeps zero entries +0.0, as evaluating the doubled family does
    return np.block([[zero, zero - b], [b, zero]])


def _doubled_fiber_names(universe: VarUniverse) -> tuple[str, ...]:
    fibers = universe.fibers
    return tuple(f"{f}a" for f in fibers) + tuple(f"{f}b" for f in fibers)


def split_and_double(family: MatrixFamily) -> SplitFamily:
    """Exact halves A, B and the symmetric doubling of B."""
    if family.structure != "normal" or family.fld != "rational":
        raise ValueError("splitting applies to real normal families")
    if not family.verified:
        check_structure(family)
    n = family.n
    universe = family.universe
    half = Fraction(1, 2)
    sym_entries = [
        [(family.entries[r][c] + family.entries[c][r]).scale(half) for c in range(n)]
        for r in range(n)
    ]
    skew_entries = [
        [(family.entries[r][c] - family.entries[c][r]).scale(half) for c in range(n)]
        for r in range(n)
    ]
    doubled_universe = VarUniverse(
        universe.params, _doubled_fiber_names(universe), universe.exceptional
    )
    zero = Polynomial.zero(doubled_universe)
    doubled_entries = [[zero for _ in range(2 * n)] for _ in range(2 * n)]
    for r in range(n):
        for c in range(n):
            doubled_entries[r][n + c] = (-skew_entries[r][c]).in_universe(doubled_universe)
            doubled_entries[n + r][c] = skew_entries[r][c].in_universe(doubled_universe)
    sym = check_structure(MatrixFamily(n, universe, sym_entries, "symmetric"))
    skew = check_structure(MatrixFamily(n, universe, skew_entries, "skew"))
    doubled = check_structure(
        MatrixFamily(2 * n, doubled_universe, doubled_entries, "symmetric")
    )
    return SplitFamily(family, sym, skew, doubled)


# -- per-point decomposition -------------------------------------------


@dataclass
class ArcpPlane:
    a: float
    b: float
    u: np.ndarray
    v: np.ndarray
    similitude_residual: float
    invariance_residual: float


@dataclass
class ArcpDecomposition:
    planes: list[ArcpPlane]
    real_spaces: list[Cluster]
    gram_residual: float
    eigenvalues: list[tuple[float, float, int]]  # (a, b, real multiplicity)

    def assembled(self) -> np.ndarray:
        cols = [s.basis for s in self.real_spaces]
        cols += [np.column_stack([p.u, p.v]) for p in self.planes]
        return np.hstack(cols) if cols else np.zeros((0, 0))


def _apply_j(f: np.ndarray) -> np.ndarray:
    n = f.shape[0] // 2
    return np.concatenate([-f[n:], f[:n]])


def _halves(l_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return (l_mat + l_mat.T) / 2, (l_mat - l_mat.T) / 2


def arcp_extract(l_mat: np.ndarray, cluster_tol: float = 1e-6) -> ArcpDecomposition:
    """Greedy descending extraction of invariant planes of a real normal L.

    Positive eigenvalue clusters of the doubled operator are refined by the
    restriction of A (the halves commute), then peeled two dimensions at a
    time: each peeled eigenvector u + v contributes the plane span(u, v) and
    its J-image is removed with it. Kernel directions of B carry the real
    eigenspaces, split by A.
    """
    n = l_mat.shape[0]
    a_mat, b_mat = _halves(l_mat)
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
            planes.extend(
                _peel_planes(space, sub.value, cluster.value, l_mat, scale)
            )
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
        raise DecompositionError(
            f"decomposition spans {assembled.shape[1]} of {n} dimensions"
        )
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
    nfull = space.shape[0]
    n = nfull // 2
    while work.shape[1] >= 2:
        f = work[:, 0]
        jf = _apply_j(f)
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
        proj = plane_basis @ (plane_basis.T @ np.column_stack([l_mat @ plane_basis[:, 0], l_mat @ plane_basis[:, 1]]))
        inv = float(
            np.linalg.norm(
                np.column_stack([l_mat @ plane_basis[:, 0], l_mat @ plane_basis[:, 1]]) - proj
            )
        )
        planes.append(
            ArcpPlane(a_value, b_value, u, v, sim / scale, inv / scale)
        )
        drop = orthonormalize(np.column_stack([f, jf]))
        remaining = work - drop @ (drop.T @ work)
        work = orthonormalize(remaining)
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


def complexified_eigenvalues(l_mat: np.ndarray, cluster_tol: float = 1e-6):
    """Independent oracle route: spectrum of L via nested symmetric solves."""
    return normal_spectrum(*_halves(l_mat), cluster_tol)


# -- the plane check over a chart grid ----------------------------------


@dataclass
class ArcpReport:
    chart_path: tuple[str, ...]
    planes_sampled: int
    worst_similitude_residual: float
    worst_gram_residual: float
    worst_eigenvalue_match: float
    failing: bool


def arcp_over_grid(
    split: SplitFamily,
    chart_path: tuple[str, ...],
    base_points: list[dict],
    cluster_tol: float,
    residual_tol: float,
) -> ArcpReport:
    """Plane decomposition of L at every grid point, checked against the oracle."""
    worst_sim = worst_gram = worst_eig = 0.0
    plane_count = 0
    for base in base_points:
        l_mat = family_matrix(split.original, base)
        try:
            dec = arcp_extract(l_mat, cluster_tol)
        except DecompositionError as err:
            raise DecompositionError(f"{err} at {base}") from err
        worst_gram = max(worst_gram, dec.gram_residual)
        plane_count += len(dec.planes)
        for plane in dec.planes:
            worst_sim = max(worst_sim, plane.similitude_residual, plane.invariance_residual)
        oracle = complexified_eigenvalues(l_mat, cluster_tol)
        worst_eig = max(worst_eig, _eigenvalue_match_error(dec.eigenvalues, oracle))
    failing = not (
        worst_sim <= residual_tol and worst_gram <= GRAM_TOL and worst_eig <= residual_tol
    )
    return ArcpReport(chart_path, plane_count, worst_sim, worst_gram, worst_eig, failing)


def _eigenvalue_match_error(got, want) -> float:
    def expand(spec):
        out = []
        for a, b, mult in spec:
            if abs(b) <= 1e-9:
                out.extend([(a, 0.0)] * mult)
            else:
                out.extend([(a, abs(b))] * (mult // 2) * 2)
        return sorted(out)

    g, w = expand(got), expand(want)
    if len(g) != len(w):
        return float("inf")
    return max(
        max(abs(x[0] - y[0]), abs(x[1] - y[1])) for x, y in zip(g, w)
    ) if g else 0.0
