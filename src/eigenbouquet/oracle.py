"""Self-contained floating-point spectral reference.

A cyclic Jacobi eigensolver for real symmetric matrices, greedy gap
clustering, principal angles between subspaces and Richardson extrapolation
of eigenspace bases along curves. Each kernel runs on stacks, every member
rounded as it would be alone: the curves of one multiplicity pattern are
matched, aligned and extrapolated together. Clustered stacks take one form,
cluster_frames' (frames, values, slots), whose slot columns every caller
reads. This layer never touches the exact symbolic side; it exists to
cross-validate it.

Complex Hermitian input is handled through the real 2n embedding
[[Re, -Im], [Im, Re]], which doubles every eigenvalue.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .grading import DEFAULT_CLUSTER_TOL, ExtrapolationError, JacobiNonConvergence

JACOBI_SWEEP_CAP = 60
JACOBI_OFF_TOL = 1e-13
RICHARDSON_ORDER = 2


class SpectralSample(NamedTuple):
    eigenvalues: np.ndarray
    vectors: np.ndarray  # column k pairs with eigenvalues[k]


def eigh_jacobi(matrices) -> SpectralSample:
    """Cyclic Jacobi sweeps on a (P, n, n) stack of real symmetric matrices,
    in lockstep: each member skips pairs below its own threshold and stops at
    off-diagonal mass 1e-13 * ||M||_F, ending bit for bit as it would alone.
    A member unconverged after 60 sweeps raises, naming its stack index.
    Per member, eigenvalues ascending (P, n) and vectors as columns (P, n, n)."""
    a = np.array(matrices, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("expected a (P, n, n) stack of square matrices")
    n = a.shape[1]
    scale = _frobenius(a)
    asym = np.max(np.abs(a - np.swapaxes(a, 1, 2)), axis=(1, 2), initial=0.0)
    if np.any((scale > 0) & (asym > 1e-12 * scale)):
        raise ValueError("matrix is not symmetric within tolerance")
    a = 0.5 * (a + np.swapaxes(a, 1, 2))
    vecs = np.eye(n)[None].repeat(len(a), axis=0)
    # the unconverged members, compacted, written back as they finish
    active = np.flatnonzero(scale > 0) if n > 1 else np.zeros(0, dtype=int)
    work, turns, goal = a[active], vecs[active], JACOBI_OFF_TOL * scale[active]
    diag = np.arange(n)
    for _ in range(JACOBI_SWEEP_CAP):
        # off-diagonal Frobenius mass, computed without cancellation
        off = work.copy()
        off[:, diag, diag] = 0.0
        going = _frobenius(off) > goal
        if not going.all():
            a[active], vecs[active] = work, turns
            active, work, turns, goal = active[going], work[going], turns[going], goal[going]
        if not active.size:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[:, p, q]
                turn = np.abs(apq) > goal / (n * n)
                if not turn.any():
                    continue
                rot = slice(None) if turn.all() else np.flatnonzero(turn)
                c, s = _rotation((work[rot, q, q] - work[rot, p, p]) / (2.0 * apq[rot]))
                _rotate(work, (rot, slice(None), p), (rot, slice(None), q), c, s)
                _rotate(work, (rot, p), (rot, q), c, s)
                _rotate(turns, (rot, slice(None), p), (rot, slice(None), q), c, s)
    if active.size:
        err = JacobiNonConvergence(f"no convergence after {JACOBI_SWEEP_CAP} sweeps")
        err.member = int(active[0])
        raise err
    order = np.argsort(np.diagonal(a, axis1=1, axis2=2), axis=1, kind="stable")
    members = np.arange(len(a))[:, None]
    values = a[members, order, order]
    vecs = vecs[members[:, :, None], diag[:, None], order[:, None, :]]
    return SpectralSample(values, vecs)


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each member, summed as np.linalg.norm sums one: over
    contiguous elements, which BLAS sums in another order than strided ones."""
    flat = np.ascontiguousarray(stack).reshape(stack.shape[0], math.prod(stack.shape[1:]))
    return np.sqrt(_dots(flat, flat))


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (P, n) arrays, summed as 1-D ``x @ y`` is."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def gather(stack: np.ndarray, at) -> np.ndarray:
    """stack[at], its members keeping their element stride, so that a product
    with one rounds as with that matrix alone."""
    step = stack.strides[-1] // stack.itemsize
    out = np.zeros((len(at),) + stack.shape[1:-1] + (stack.shape[-1] * step,))[..., ::step]
    out[...] = stack[at]
    return out


def _rotation(tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and sine columns of t = sign(tau) / (|tau| + hypot(1, tau)),
    by math.hypot, whose last bit np.hypot does not always match."""
    t = np.copysign(1.0, tau) / (np.abs(tau) + [math.hypot(1.0, x) for x in tau.tolist()])
    c = 1.0 / np.array([math.hypot(1.0, x) for x in t.tolist()])
    return c[:, None], (t * c)[:, None]


def _rotate(m: np.ndarray, at_p, at_q, c: np.ndarray, s: np.ndarray) -> None:
    x, y = m[at_p], m[at_q]
    m[at_p], m[at_q] = c * x - s * y, s * x + c * y


def orthonormalize(columns: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt (two passes) on each (n, m) member of a stack; a
    column left 1e-12 or shorter is zeroed, so the shape is kept."""
    stack = np.asarray(columns, dtype=float)
    kept: list[np.ndarray] = []
    for k in range(stack.shape[2]):
        v = stack[:, :, k].copy()
        for u in kept + kept:
            v = v - _dots(u, v)[:, None] * u
        norm = np.sqrt(_dots(v, v))[:, None]
        kept.append(np.divide(v, norm, out=np.zeros_like(v), where=norm > 1e-12))
    return np.stack(kept, axis=2) if kept else np.zeros(stack.shape)


def cluster_frames(values: np.ndarray, vectors: np.ndarray, tol: float):
    """Greedy gap clustering of each member's ascending spectrum: a gap above
    tol * (1 + max|lambda|) starts a cluster, its basis the orthonormalized
    eigenvectors (a column orthonormalize zeroes stays zero), its value their
    mean. Returns the (P, n, n) frames of bases side by side, the (P, n)
    value of each column's cluster and the cluster slots (members, start,
    stop) in column order: members with the same gaps share one
    orthonormalize stack per slot."""
    frames, means = np.zeros(vectors.shape), np.zeros(values.shape)
    groups = gap_groups(values, tol)
    slots = [(members, start, stop) for members, bounds in groups for start, stop in zip(bounds, bounds[1:])]
    for members, start, stop in slots:
        frames[members, :, start:stop] = orthonormalize(vectors[members, :, start:stop])
        # np.mean: the sum, then one division by the count
        mean = np.add.reduce(values[members, start:stop], axis=1) / (stop - start)
        means[members, start:stop] = mean[:, None]
    return frames, means, slots


def gap_groups(values: np.ndarray, tol: float) -> list[tuple[np.ndarray, list[int]]]:
    """The members of a stack of ascending spectra grouped by their gaps above
    tol * (1 + max|lambda|), each group (an index array) with its cluster
    bounds [0, ..., n]: cluster k holds eigenvalues bounds[k] to bounds[k + 1]."""
    n = values.shape[1]
    scale = 1.0 + (np.max(np.abs(values), axis=1) if n else 0.0)
    gaps = values[:, 1:] - values[:, :-1] > tol * np.reshape(scale, (-1, 1))
    groups: dict[tuple, list[int]] = {}
    for i, row in enumerate(gaps.tolist()):
        groups.setdefault(tuple(row), []).append(i)
    return [
        (np.array(members), [0] + [k + 1 for k, gap in enumerate(pattern) if gap] + [n])
        for pattern, members in groups.items()
    ]


def slot_patterns(slots, count: int) -> list[tuple[int, ...]]:
    """Each of count members' multiplicities in column order, from the
    slots of cluster_frames."""
    out: list = [()] * count
    for members, start, stop in slots:
        for i in members.tolist():
            out[i] += (stop - start,)
    return out


def principal_angles(basis_a: np.ndarray, basis_b: np.ndarray):
    """Canonical angles between the subspaces of two (N, n, k) stacks of
    orthonormal bases, member by member: an (N, k) array, each row sorted.

    With A the smaller basis, cosines are the singular values of B^T A and
    sines those of A - B B^T A; the k-th largest cosine pairs with the k-th
    smallest sine in atan2, well conditioned at every angle (Bjorck and Golub
    1973). For a line a they are ||B^T a|| and ||a - B B^T a||; otherwise
    one-sided Jacobi (one rotation for a plane) gives them as column norms,
    which keeps a small sine beside a large one that Gram eigenvalues lose.
    """
    a, b = (np.asarray(m, dtype=float) for m in (basis_a, basis_b))
    if a.shape[2] == 0 or b.shape[2] == 0:
        raise ValueError("empty basis")
    for m in (a, b):
        if float(np.abs(np.swapaxes(m, 1, 2) @ m - np.eye(m.shape[2])).max(initial=0.0)) > 1e-10:
            raise ValueError("basis is not orthonormal")
    if a.shape[2] > b.shape[2]:
        a, b = b, a
    cross = np.swapaxes(b, 1, 2) @ a
    # with B spanning the whole space the residual is rounding noise, on
    # which one-sided Jacobi need not settle
    residual = a - b @ cross if b.shape[2] < b.shape[1] else np.zeros_like(a)
    if a.shape[2] == 1:
        sines = np.sqrt(_dots(residual[:, :, 0], residual[:, :, 0]))[:, None]
        cosines = np.sqrt(_dots(cross[:, :, 0], cross[:, :, 0]))[:, None]
    else:
        sines, cosines = _singular_values(residual), _singular_values(cross)[:, ::-1]
    angles = np.fromiter(map(math.atan2, sines.ravel(), cosines.ravel()), float, sines.size)
    return np.sort(angles.reshape(sines.shape), axis=1)


def _singular_values(m: np.ndarray) -> np.ndarray:
    """Ascending singular values of each member of an (N, r, k) stack by
    one-sided (Hestenes) Jacobi sweeps, the members in lockstep."""
    m = np.array(m, dtype=float)
    active = np.arange(m.shape[0])
    for _ in range(JACOBI_SWEEP_CAP):
        rotated = np.zeros(active.size, dtype=bool)
        for p in range(m.shape[2] - 1):
            for q in range(p + 1, m.shape[2]):
                # strided column views, summed as a single matrix's columns are
                sub = m[active]
                x, y = sub[:, :, p], sub[:, :, q]
                xx, yy, xy = _dots(x, x), _dots(y, y), _dots(x, y)
                turn = np.abs(xy) > JACOBI_OFF_TOL * np.sqrt(xx * yy)
                if turn.any():
                    rotated |= turn
                    c, s = _rotation((yy - xx)[turn] / (2.0 * xy[turn]))
                    x, y, rot = x[turn], y[turn], active[turn]
                    m[rot, :, p], m[rot, :, q] = c * x - s * y, s * x + c * y
        active = active[rotated]
        if not active.size:
            return np.sort(np.sqrt(np.add.reduce(m * m, axis=1)), axis=1)
    raise JacobiNonConvergence(f"no convergence after {JACOBI_SWEEP_CAP} sweeps")


def nearest_of(angles) -> tuple:
    """(index, angle, runner_up) over (index, angle) pairs in order: a tie keeps
    the first index, runner_up is the next smallest angle; None if none gives it."""
    best = angle = runner_up = None
    for k, ang in angles:
        if angle is None or ang < angle:
            best, angle, runner_up = k, ang, angle
        elif runner_up is None or ang < runner_up:
            runner_up = ang
    return best, angle, runner_up


def polar_factor(cross: np.ndarray):
    """Orthogonal polar factor U V^T of each member U S V^T of an (N, m, m)
    stack, from one eigh_jacobi stack of cross^T cross, and which members are
    degenerate (a singular value below 1e-12), whose factor means nothing.
    For m = 1 the factor is the sign, +1 at 0, and never degenerate.

    The one alignment kernel: for bases B and references R, B @ polar(B^T R)
    (B times that sign, for a line) is B Procrustes-aligned to R."""
    degenerate = np.zeros(len(cross), dtype=bool)
    if cross.shape[1:] == (1, 1):
        return np.copysign(1.0, np.where(cross == 0.0, 1.0, cross)), degenerate
    right = eigh_jacobi(np.swapaxes(cross, 1, 2) @ cross).vectors
    # match singular subspaces: U from cross @ right vectors
    cols = [(cross @ right[:, :, k : k + 1])[:, :, 0] for k in range(cross.shape[2])]
    norms = [np.sqrt(_dots(u, u)) for u in cols]
    degenerate = np.min(norms, axis=0) < 1e-12
    u_mat = np.stack([u / np.where(degenerate, 1.0, n)[:, None] for u, n in zip(cols, norms)], axis=2)
    return u_mat @ np.swapaxes(right, 1, 2), degenerate


def richardson_limit(values: list[np.ndarray]) -> np.ndarray:
    """Richardson extrapolation (order 2) to 0 of samples at radii r, r/2,
    r/4, ..., entrywise: each sample may be a whole stack. Its callers pass
    at least four: extrapolate_along_curve refuses a shorter curve."""
    table = [np.asarray(v, dtype=float) for v in values]
    for level in range(1, RICHARDSON_ORDER + 1):
        factor = 2.0 ** level
        table = [(factor * table[k + 1] - table[k]) / (factor - 1.0) for k in range(len(table) - 1)]
    return table[-1]


def extrapolate_along_curve(clustered, curves: np.ndarray):
    """Limits of matched cluster bases along shrinking-radius curves.

    clustered is cluster_frames' (frames, values, slots) of every sample;
    curves is a (C, steps) array of its rows, each curve's samples ordered
    from the largest radius to the smallest. The curves of one multiplicity
    pattern go together: per component and radius step, one
    principal_angles stack per candidate slot matches them (the first
    nearest, and ambiguous within 1e-3 of the runner-up), one polar_factor
    stack aligns them; Richardson (order 2) and one orthonormalize stack
    end each component.

    Returns the (C, n, n) limit frames, each component in its slot's
    columns, and per curve its pattern or the ExtrapolationError it failed
    with first, as it would alone; a failed curve leaves the stacks. The
    limit eigenvalues are not extrapolated: the caller takes them from the
    limit frames.
    """
    frames, _, slots = clustered
    patterns = slot_patterns(slots, len(frames))
    found: list = [None] * len(curves)
    out = (np.zeros((len(found),) + frames.shape[1:]), found)
    groups: dict[tuple, list[int]] = {}
    for j, rows in enumerate(curves.tolist()):
        if len(rows) < 4:
            found[j] = ExtrapolationError("need at least 4 radii")
        elif len({patterns[r] for r in rows}) > 1:
            found[j] = ExtrapolationError("cluster structure changes along the curve")
        else:
            groups.setdefault(patterns[rows[0]], []).append(j)
    for mults, at in groups.items():
        _extrapolate_group(frames, np.array(at), curves[at], mults, out)
    return out


def _extrapolate_group(frames, at: np.ndarray, rows: np.ndarray, mults: tuple[int, ...], out) -> None:
    """extrapolate_along_curve for the curves at (their sample rows rows),
    which share their multiplicity pattern: each writes its limit columns
    and pattern into out, or its error; a failing member leaves every stack
    at once."""
    limits, found = out
    bounds = list(accumulate(mults, initial=0))
    # per radius, each cluster slot's bases
    bases = [[frames[rows[:, r], :, a:b] for a, b in zip(bounds, bounds[1:])] for r in range(rows.shape[1])]
    alive = np.arange(len(rows))  # the members still going, in stack order
    for idx, dim in enumerate(mults):
        slots = [k for k, m in enumerate(mults) if m == dim]
        chain = [bases[0][idx][alive]]
        for r in range(1, rows.shape[1]):
            candidates = np.stack([bases[r][k][alive] for k in slots], axis=1)
            angles = np.stack(
                [principal_angles(candidates[:, s], chain[-1]).max(axis=1) for s in range(len(slots))], axis=1
            )
            best = np.argmin(angles, axis=1)  # the first of equal angles, as nearest_of takes it
            keep = np.ones(alive.size, dtype=bool)
            if len(slots) > 1:
                runner_up = np.sort(angles, axis=1)[:, 1]
                keep = ~(runner_up < angles[np.arange(alive.size), best] + 1e-3)
                _fail(found, at[alive[~keep]], "ambiguous component matching along curve")
            members = np.flatnonzero(keep)
            if not members.size:
                return
            matched = candidates[members, best[members]]
            turn, degenerate = polar_factor(np.swapaxes(matched, 1, 2) @ chain[-1][members])
            _fail(found, at[alive[members[degenerate]]], "degenerate alignment (orthogonal subspaces)")
            members = members[~degenerate]
            alive = alive[members]
            if not alive.size:
                return
            aligned = matched * turn if dim == 1 else matched @ turn
            chain = [c[members] for c in chain] + [aligned[~degenerate]]
        # (8 T5 - 6 T4 + T3) / 3 of orthonormal samples keeps |L v| >= 1/3:
        # orthonormalize never zeroes a column of it
        limits[at[alive], :, bounds[idx] : bounds[idx + 1]] = orthonormalize(richardson_limit(chain))
    for j in at[alive].tolist():
        found[j] = mults


def _fail(out: list, members: np.ndarray, message: str) -> None:
    for i in members.tolist():
        out[i] = ExtrapolationError(message)


def embed_hermitian(matrix: np.ndarray) -> np.ndarray:
    """Real 2n symmetric embedding [[Re, -Im], [Im, Re]] of each member of a
    (P, n, n) stack of Hermitian matrices."""
    m = np.asarray(matrix, dtype=complex)
    halves = np.concatenate([m.real, -m.imag], -1), np.concatenate([m.imag, m.real], -1)
    return np.concatenate(halves, -2)


def normal_spectrum(sym_part: np.ndarray, skew_part: np.ndarray, tol: float = DEFAULT_CLUSTER_TOL):
    """Complex spectrum of a real normal matrix A + B via symmetric solves only.

    A and B commute for a normal matrix, so B*B^T restricted to each
    A-eigenspace is symmetric; its eigenvalues are the squared imaginary
    parts paired with that real part. Takes (P, n, n) stacks of halves and
    returns per member a list of (a, b >= 0, mult) with mult counting real
    dimensions (a plane contributes 2), from one solve per A-slot.
    """
    a, b = (np.asarray(m, dtype=float) for m in (sym_part, skew_part))
    bbt = b @ np.swapaxes(b, 1, 2)
    floor = (1e-13 * (1.0 + _frobenius(bbt))).tolist()
    frames, values, slots = cluster_frames(*eigh_jacobi(a), tol)
    out: list[list] = [[] for _ in range(len(a))]
    for members, start, stop in slots:
        bases = frames[members, :, start:stop]
        restricted = np.swapaxes(bases, 1, 2) @ bbt[members] @ bases
        # symmetric up to rounding, which on a kernel of B is all there is
        restricted = 0.5 * (restricted + np.swapaxes(restricted, 1, 2))
        _, squares, subslots = cluster_frames(*eigh_jacobi(restricted), tol)
        for subs, first, last in subslots:
            at = members[subs]
            # B B^T is positive semidefinite: values below noise are zeros,
            # and the square root would otherwise amplify them to ~1e-8
            for i, value, sq in zip(at.tolist(), values[at, start].tolist(), squares[subs, first].tolist()):
                out[i].append((value, 0.0 if sq <= floor[i] else math.sqrt(sq), last - first))
    return [sorted(spectrum) for spectrum in out]  # ascending a, then b: the clusters' order
