"""Real normal non-symmetric families via symmetric machinery.

A real normal family splits as L = A + B with A symmetric and B skew, and
the two halves commute. The doubled symmetric operator

    B2(u + v) = (-B v) + (B u),   i.e. the block matrix [[0, -B], [B, 0]],

encodes B's invariant planes in its eigenstructure: a unit eigenvector
u + v for an eigenvalue b != 0 has orthogonal equal-norm halves spanning a
plane on which L acts as the similitude [[a, -b], [b, a]], with a the
eigenvalue of A there. Kernel directions of B carry the real eigenspaces,
refined by A.

Over a grid, everything is derived from one float stack of L: the halves
A = (L + L^T)/2 and B = (L - L^T)/2 and the doubled matrices of B, each
solved as one Jacobi stack per shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .family import SplitFamily
from .frames import GRAM_TOL, family_matrix
from .grading import DEFAULT_CLUSTER_TOL, DecompositionError
from .oracle import _frobenius, cluster_frames, eigh_jacobi, gather, normal_spectrum, orthonormalize

KERNEL_TOL = 1e-9


def doubled_matrix(b: np.ndarray) -> np.ndarray:
    """The float block matrix [[0, -B], [B, 0]] of a float skew half B."""
    zero = np.zeros_like(b)
    # zero - b keeps zero entries +0.0, as evaluating the doubled family does
    return np.block([[zero, zero - b], [b, zero]])


# -- the decomposition, on stacks ---------------------------------------


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
    frame: np.ndarray  # (n, n): the real eigenspaces' bases, then each plane's u and v
    gram_residual: float
    eigenvalues: list[tuple[float, float, int]]  # (a, b, real multiplicity)


def _apply_j(f: np.ndarray) -> np.ndarray:
    n = f.shape[-1] // 2
    return np.concatenate([-f[..., n:], f[..., :n]], axis=-1)


def _halves(l_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    transposed = np.swapaxes(l_mat, -1, -2)
    return (l_mat + transposed) / 2, (l_mat - transposed) / 2


def arcp_extract(l_mats: np.ndarray, cluster_tol: float = DEFAULT_CLUSTER_TOL):
    """Greedy descending extraction of the invariant planes of each real
    normal member L of a (P, n, n) stack: a list of P decompositions.

    Positive eigenvalue clusters of the doubled operator are refined by the
    restriction of A (the halves commute), then peeled two dimensions at a
    time: each peeled eigenvector u + v contributes the plane span(u, v) and
    its J-image is removed with it. Kernel directions of B carry the real
    eigenspaces, split by A. Each solve is one stacked call per cluster
    slot; a DecompositionError names the first failing member in ``member``.
    """
    l_stack = np.asarray(l_mats, dtype=float)
    count, n = l_stack.shape[:2]
    a_mat, b_mat = _halves(l_stack)
    b2, bbt = doubled_matrix(b_mat), b_mat @ np.swapaxes(b_mat, 1, 2)
    scale, floor = 1.0 + _frobenius(l_stack), KERNEL_TOL * (1.0 + _frobenius(bbt))
    a2 = np.zeros_like(b2)
    a2[:, :n, :n] = a2[:, n:, n:] = a_mat
    frames, values, slots = cluster_frames(*eigh_jacobi(b2), cluster_tol)
    # negative values mirror positive ones; b^2 under B B^T's floor is kernel
    positive = (values > 0) & (values**2 > floor[:, None])
    planes: list[list[ArcpPlane]] = [[] for _ in range(count)]
    errors: dict[int, str] = {}
    for members, start, stop in slots:
        owners = members[positive[members, start]]
        if not owners.size:
            continue
        bases = frames[owners, :, start:stop]
        restricted = np.swapaxes(bases, 1, 2) @ a2[owners] @ bases
        subframes, subvalues, subslots = cluster_frames(*eigh_jacobi(restricted), cluster_tol)
        for subs, first, last in subslots:  # the joint eigenspaces of A and B2
            joint = bases[subs] @ subframes[subs, :, first:last]
            pair = np.stack([subvalues[subs, first], values[owners[subs], start]], axis=1)
            _peel_planes(joint, owners[subs], pair, l_stack, scale, planes, errors)
    frame = np.zeros(l_stack.shape)
    widths, reals = _real_spaces(a_mat, bbt, floor, cluster_tol, frame)
    for i, (width, flat) in enumerate(zip(widths.tolist(), planes)):
        flat.sort(key=lambda p: (p.a, p.b))
        if width + 2 * len(flat) == n:  # each plane's u and v as two columns
            frame[i, :, width:] = np.reshape([(p.u, p.v) for p in flat], (-1, n)).T
        else:
            errors.setdefault(i, f"decomposition spans {width + 2 * len(flat)} of {n} dimensions")
    if errors:
        err = DecompositionError(errors[min(errors)])
        err.member = min(errors)
        raise err
    gram = np.max(np.abs(np.swapaxes(frame, 1, 2) @ frame - np.eye(n)), axis=(1, 2)).tolist()
    return [
        ArcpDecomposition(flat, frame[i], gram[i], reals[i] + [(p.a, p.b, 2) for p in flat])
        for i, flat in enumerate(planes)
    ]


def _peel_planes(work, owners, values, l_stack, scale, planes, errors) -> None:
    """Peel planes in lockstep off the joint eigenspaces work[k] of members
    owners[k], where A and B2 take the values values[k]: each step takes the
    first column f = u + v as the plane span(u, v) and removes f and J f.
    Members go on together while the same columns survive."""
    if work.shape[2] < 2:
        for i in owners.tolist() if work.shape[2] else ():
            errors.setdefault(i, "odd dimension left while peeling planes")
        return
    n = l_stack.shape[1]
    f = work[:, :, 0].copy()
    nu, nv = _frobenius(f[:, :n]), _frobenius(f[:, n:])
    bad = (nu < 1e-12) | (nv < 1e-12)
    for i in owners[bad].tolist():
        errors.setdefault(i, "degenerate doubled eigenvector (zero half)")
    work, owners, values, f, nu, nv = (x[~bad] for x in (work, owners, values, f, nu, nv))
    u, v = f[:, :n] / nu[:, None], f[:, n:] / nv[:, None]
    l_mat, a, b = gather(l_stack, owners), values[:, :1], values[:, 1:]
    lu, lv = ((l_mat @ w[:, :, None])[:, :, 0] for w in (u, v))
    sim = np.maximum(_frobenius(lu - (a * u + b * v)), _frobenius(lv - (a * v - b * u)))
    basis = orthonormalize(np.stack([u, v], axis=2))
    image = np.concatenate([l_mat @ basis[:, :, k : k + 1] for k in (0, 1)], axis=2)
    inv = _frobenius(image - basis @ (np.swapaxes(basis, 1, 2) @ image))
    residuals = zip((sim / scale[owners]).tolist(), (inv / scale[owners]).tolist())
    for i, (a_value, b_value), u_i, v_i, (s, r) in zip(owners.tolist(), values.tolist(), u, v, residuals):
        planes[i].append(ArcpPlane(a_value, b_value, u_i, v_i, s, r))
    drop = orthonormalize(np.stack([f, _apply_j(f)], axis=2))
    work = orthonormalize(work - drop @ (np.swapaxes(drop, 1, 2) @ work))
    survivors: dict[tuple, list[int]] = {}  # a stack zeroes the columns one matrix drops
    for k, row in enumerate(work.any(axis=1).tolist()):
        survivors.setdefault(tuple(row), []).append(k)
    for kept, ks in survivors.items():
        _peel_planes(work[ks][:, :, list(kept)], owners[ks], values[ks], l_stack, scale, planes, errors)


def _real_spaces(a_mat: np.ndarray, bbt: np.ndarray, floor: np.ndarray, cluster_tol: float, frame):
    """Each member's real eigenspaces: the kernel of B (B B^T's eigenvalues
    up to floor), split by A. Their bases go side by side into the first
    columns of frame; returns each member's count of those columns and the
    (value, 0.0, multiplicity) of its spaces."""
    frames, values, _ = cluster_frames(*eigh_jacobi(bbt), cluster_tol)
    # B B^T is positive semidefinite: its kernel columns come first
    widths = np.count_nonzero(np.abs(values) <= floor[:, None], axis=1)
    eigenvalues: list[list] = [[] for _ in widths]
    for width in sorted(set(widths.tolist()) - {0}):
        ks = np.flatnonzero(widths == width)
        kernel = frames[ks, :, :width]
        refine = np.swapaxes(kernel, 1, 2) @ a_mat[ks] @ kernel
        refined, means, slots = cluster_frames(*eigh_jacobi(refine), cluster_tol)
        for members, start, stop in slots:
            frame[ks[members], :, start:stop] = kernel[members] @ refined[members, :, start:stop]
            for i, value in zip(ks[members].tolist(), means[members, start].tolist()):
                eigenvalues[i].append((value, 0.0, stop - start))
    return widths, eigenvalues


def complexified_eigenvalues(l_mat: np.ndarray, cluster_tol: float = DEFAULT_CLUSTER_TOL):
    """Independent oracle route: the spectrum of each member L of a (P, n, n)
    stack via nested symmetric solves, one list per member."""
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
    base: dict,
    cluster_tol: float,
    residual_tol: float,
) -> ArcpReport:
    """Plane decomposition of L at every grid point, checked against the
    oracle: one stack of L at the base-point columns, decomposed and solved
    as a whole. Without parameters the grid is one point."""
    count = max((len(column) for column in base.values()), default=1)
    l_mats = family_matrix(split.original, base, count)
    try:
        decompositions = arcp_extract(l_mats, cluster_tol)
    except DecompositionError as err:
        point = {k: v[err.member].item() for k, v in base.items()}
        raise DecompositionError(f"{err} at {point}") from err
    oracles = complexified_eigenvalues(l_mats, cluster_tol)
    planes = [p for dec in decompositions for p in dec.planes]
    worst_sim = max([0.0] + [max(p.similitude_residual, p.invariance_residual) for p in planes])
    worst_gram = max([0.0] + [dec.gram_residual for dec in decompositions])
    worst_eig = max(
        [0.0] + [_eigenvalue_match_error(d.eigenvalues, o) for d, o in zip(decompositions, oracles)]
    )
    failing = not (
        worst_sim <= residual_tol and worst_gram <= GRAM_TOL and worst_eig <= residual_tol
    )
    return ArcpReport(chart_path, len(planes), worst_sim, worst_gram, worst_eig, failing)


def _eigenvalue_match_error(got, want) -> float:
    def expand(spec):  # (a, |b|) once per real dimension
        return sorted(
            pair
            for a, b, mult in spec
            for pair in ([(a, 0.0)] * mult if abs(b) <= 1e-9 else [(a, abs(b))] * (mult // 2) * 2)
        )

    g, w = expand(got), expand(want)
    if len(g) != len(w):
        return float("inf")
    return max((max(abs(x[0] - y[0]), abs(x[1] - y[1])) for x, y in zip(g, w)), default=0.0)
