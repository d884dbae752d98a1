"""Self-contained floating-point spectral reference.

A cyclic Jacobi eigensolver for real symmetric matrices, greedy gap
clustering, principal angles between subspaces and Richardson extrapolation
of eigenspace bases along curves. This layer never touches the exact
symbolic side; it exists to cross-validate it.

Complex Hermitian input is handled through the real 2n embedding
[[Re, -Im], [Im, Re]], which doubles every eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_CLUSTER_TOL = 1e-6
JACOBI_SWEEP_CAP = 60
JACOBI_OFF_TOL = 1e-13


class JacobiNonConvergence(RuntimeError):
    pass


class ExtrapolationError(RuntimeError):
    pass


@dataclass
class Cluster:
    value: float
    multiplicity: int
    basis: np.ndarray  # shape (n, multiplicity), orthonormal columns


@dataclass
class SpectralSample:
    eigenvalues: np.ndarray
    vectors: np.ndarray  # column k pairs with eigenvalues[k]
    clusters: list[Cluster] = field(default_factory=list)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(c.multiplicity for c in self.clusters)


def eigh_jacobi(matrix) -> SpectralSample:
    """Cyclic Jacobi sweeps on a real symmetric matrix.

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


def orthonormalize(columns: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt with tiny-column rejection."""
    cols = []
    for k in range(columns.shape[1]):
        v = columns[:, k].astype(float).copy()
        for u in cols:
            v -= (u @ v) * u
        for u in cols:
            v -= (u @ v) * u
        norm = float(np.linalg.norm(v))
        if norm > 1e-12:
            cols.append(v / norm)
    return np.column_stack(cols) if cols else np.zeros((columns.shape[0], 0))


def cluster_and_multiplicities(sample: SpectralSample, tol: float = DEFAULT_CLUSTER_TOL) -> SpectralSample:
    """Greedy gap clustering of the sorted spectrum, in place on the sample."""
    values = sample.eigenvalues
    n = len(values)
    scale = 1.0 + (float(np.max(np.abs(values))) if n else 0.0)
    clusters: list[Cluster] = []
    start = 0
    for k in range(1, n + 1):
        if k == n or values[k] - values[k - 1] > tol * scale:
            basis = orthonormalize(sample.vectors[:, start:k])
            value = float(np.mean(values[start:k]))
            clusters.append(Cluster(value, k - start, basis))
            start = k
    sample.clusters = clusters
    return sample


def spectral_sample(matrix, tol: float = DEFAULT_CLUSTER_TOL) -> SpectralSample:
    return cluster_and_multiplicities(eigh_jacobi(matrix), tol)


def principal_angles(basis_a: np.ndarray, basis_b: np.ndarray) -> list[float]:
    """Canonical angles between two subspaces given orthonormal bases.

    With A the smaller basis, cosines are the singular values of B^T A and
    sines those of A - B B^T A; the k-th largest cosine pairs with the k-th
    smallest sine in atan2, well conditioned at every angle (Bjorck and Golub
    1973). For a line a they are ||B^T a|| and ||a - B B^T a||; otherwise
    one-sided Jacobi (one rotation for a plane) gives them as column norms,
    which keeps a small sine beside a large one that Gram eigenvalues lose.
    """
    a = np.atleast_2d(np.asarray(basis_a, dtype=float))
    b = np.atleast_2d(np.asarray(basis_b, dtype=float))
    if a.shape[1] == 0 or b.shape[1] == 0:
        raise ValueError("empty basis")
    for m in (a, b):
        if float(abs(m.T @ m - np.eye(m.shape[1])).max()) > 1e-10:
            raise ValueError("basis is not orthonormal")
    if a.shape[1] > b.shape[1]:
        a, b = b, a
    cross = b.T @ a
    residual = a - b @ cross
    if a.shape[1] == 1:
        return [math.atan2(math.sqrt(float(np.vdot(residual, residual))),
                           math.sqrt(float(np.vdot(cross, cross))))]
    sines = _singular_values(residual)
    cosines = _singular_values(cross)[::-1]
    return sorted(math.atan2(s, c) for s, c in zip(sines, cosines))


def _singular_values(m: np.ndarray) -> np.ndarray:
    """Ascending singular values of m by one-sided (Hestenes) Jacobi sweeps."""
    m = np.array(m, dtype=float)
    for _ in range(JACOBI_SWEEP_CAP):
        done = True
        for p in range(m.shape[1] - 1):
            for q in range(p + 1, m.shape[1]):
                x, y = m[:, p], m[:, q]
                xx, yy, xy = float(x @ x), float(y @ y), float(x @ y)
                if abs(xy) <= JACOBI_OFF_TOL * math.sqrt(xx * yy):
                    continue
                done = False
                tau = (yy - xx) / (2.0 * xy)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                m[:, p], m[:, q] = c * x - s * y, s * x + c * y
        if done:
            return np.sort(np.linalg.norm(m, axis=0))
    raise JacobiNonConvergence(f"no convergence after {JACOBI_SWEEP_CAP} sweeps")


def subspace_angle(basis_a: np.ndarray, basis_b: np.ndarray) -> float:
    """Largest canonical angle: 0 iff the spans agree."""
    return max(principal_angles(basis_a, basis_b))


def nearest_subspace(basis: np.ndarray, candidates: list[Cluster], skip=()):
    """The candidate spanning the subspace nearest to basis's, by largest angle.

    Only candidates of the basis's dimension and outside skip compete.
    Returns (index, angle, runner_up): a tie keeps the first index,
    runner_up is the next smallest angle, and each is None without a
    candidate to give it.
    """
    best = angle = runner_up = None
    for k, cand in enumerate(candidates):
        if k in skip or cand.multiplicity != basis.shape[1]:
            continue
        ang = subspace_angle(cand.basis, basis)
        if angle is None or ang < angle:
            best, angle, runner_up = k, ang, angle
        elif runner_up is None or ang < runner_up:
            runner_up = ang
    return best, angle, runner_up


def procrustes_align(basis: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rotate basis (orthonormal columns) to best match the reference frame."""
    cross = basis.T @ reference
    if cross.shape == (1, 1):
        return basis * math.copysign(1.0, float(cross[0, 0]) or 1.0)
    right = eigh_jacobi(cross.T @ cross)
    # match singular subspaces: U from cross @ right vectors
    cols = []
    for k in range(cross.shape[1]):
        v = right.vectors[:, k]
        u = cross @ v
        norm = float(np.linalg.norm(u))
        if norm < 1e-12:
            raise ExtrapolationError("degenerate alignment (orthogonal subspaces)")
        cols.append(u / norm)
    u_mat = np.column_stack(cols)
    rotation = u_mat @ right.vectors.T
    return basis @ rotation


def richardson_limit(values: list[np.ndarray], order: int = 2) -> tuple[np.ndarray, float]:
    """Richardson extrapolation to 0 for samples at radii r, r/2, r/4, ...

    Returns the extrapolated value and the norm of the last correction.
    """
    table = [np.asarray(v, dtype=float) for v in values]
    if len(table) < order + 2:
        raise ExtrapolationError("not enough radii for the requested order")
    level_prev = table
    for level in range(1, order + 1):
        factor = 2.0 ** level
        level_next = [
            (factor * level_prev[k + 1] - level_prev[k]) / (factor - 1.0)
            for k in range(len(level_prev) - 1)
        ]
        level_prev = level_next
    correction = float(np.linalg.norm(level_prev[-1] - level_prev[-2]))
    return level_prev[-1], correction


def extrapolate_along_curve(samples: list[SpectralSample]) -> list[tuple[float, int, np.ndarray, float]]:
    """Limit of matched cluster bases along a shrinking-radius curve.

    Input samples are ordered from the largest radius to the smallest; each
    must carry clusters. Components are matched between consecutive radii by
    principal angles, aligned by orthogonal Procrustes, extrapolated
    entrywise (Richardson, order 2) and re-orthonormalized.

    Returns one (eigenvalue_limit, multiplicity, basis, correction) per
    component of the smallest-radius sample.
    """
    if len(samples) < 4:
        raise ExtrapolationError("need at least 4 radii")
    mults = samples[0].multiplicities
    for s in samples[1:]:
        if s.multiplicities != mults:
            raise ExtrapolationError("cluster structure changes along the curve")
    results = []
    count = len(mults)
    reference = samples[0]
    for idx in range(count):
        chains: list[np.ndarray] = [reference.clusters[idx].basis]
        valchain: list[float] = [reference.clusters[idx].value]
        prev_basis = chains[0]
        for s in samples[1:]:
            best_k, best_angle, runner_up = nearest_subspace(prev_basis, s.clusters)
            if runner_up is not None and runner_up < best_angle + 1e-3:
                raise ExtrapolationError("ambiguous component matching along curve")
            aligned = procrustes_align(s.clusters[best_k].basis, prev_basis)
            chains.append(aligned)
            valchain.append(s.clusters[best_k].value)
            prev_basis = aligned
        limit, corr = richardson_limit(chains)
        value, _ = richardson_limit([np.array([v]) for v in valchain])
        basis = orthonormalize(limit)
        if basis.shape[1] != mults[idx]:
            raise ExtrapolationError("extrapolated basis lost rank")
        results.append((float(value[0]), mults[idx], basis, corr))
    return results


def embed_hermitian(matrix: np.ndarray) -> np.ndarray:
    """Real 2n symmetric embedding [[Re, -Im], [Im, Re]] of a Hermitian matrix."""
    m = np.asarray(matrix, dtype=complex)
    re, im = m.real, m.imag
    top = np.hstack([re, -im])
    bottom = np.hstack([im, re])
    return np.vstack([top, bottom])


def normal_spectrum(sym_part: np.ndarray, skew_part: np.ndarray, tol: float = DEFAULT_CLUSTER_TOL):
    """Complex spectrum of a real normal matrix A + B via symmetric solves only.

    A and B commute for a normal matrix, so B*B^T restricted to each
    A-eigenspace is symmetric; its eigenvalues are the squared imaginary
    parts paired with that real part. Returns a list of (a, b >= 0, mult)
    with mult counting real dimensions (a plane contributes 2).
    """
    a_sample = spectral_sample(sym_part, tol=tol)
    out = []
    bbt = skew_part @ skew_part.T
    floor = 1e-13 * (1.0 + float(np.linalg.norm(bbt)))
    for cluster in a_sample.clusters:
        basis = cluster.basis
        restricted = basis.T @ bbt @ basis
        sub = spectral_sample(restricted, tol=tol)
        for sc in sub.clusters:
            # B B^T is positive semidefinite: values below noise are zeros,
            # and the square root would otherwise amplify them to ~1e-8
            b = 0.0 if sc.value <= floor else math.sqrt(sc.value)
            out.append((cluster.value, b, sc.multiplicity))
    return out
