"""Eigenspace bundles, frames and eigenvalue functions on resolved charts.

The weak transforms of the maximal minors are the wedge coordinates of the
rank-d subspace of quadratics cutting out the union of eigenspaces. On a
resolved chart at least one coordinate survives at every point, so the
subspace of quadratics extends across the exceptional set; its zero set
there is the unique limit of the nearby eigenspace bouquets.

Extraction runs per chart on whole arrays and returns one GridBouquet: the
frame stack (each point's subspace bases side by side), each column's
subspace value, the multiplicity patterns, base-point columns, matrices and
residuals. Off the discriminant one lockstep Jacobi solve is clustered
straight into it; on it Richardson extrapolation along transversal curves,
checked against the recovered quadratics, runs all curves of a heading in
one batch. Labels, the alignment walk and the LAPACK check read the arrays.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, product

import numpy as np

from .bouquet import FittingIdeal, QuadSystem
from .family import MatrixFamily
from .grading import (
    DEFAULT_ANGLE_TOL,
    DEFAULT_CLUSTER_TOL,
    DEFAULT_RESIDUAL_TOL,
    ExtrapolationError,
    JacobiNonConvergence,
    LabelingError,
    NonHermitianFamily,
    UnresolvedChart,
)
from .oracle import (
    _frobenius,
    cluster_frames,
    eigh_jacobi,
    embed_hermitian,
    extrapolate_along_curve,
    gather,
    nearest_of,
    polar_factor,
    principal_angles,
    slot_patterns,
)
from .resolve import GOOD_STATUSES, ChartNode

EXTRAPOLATION_RADII = tuple(2.0 ** -k for k in range(3, 9))
QUAD_VANISH_TOL = 1e-7
GRAM_TOL = 1e-10  # bound on an assembled frame's deviation from orthonormality


def family_matrix(fam: MatrixFamily, base: dict, count: int) -> np.ndarray:
    """The (count, n, n) float stack of the family at base-point columns of
    shape (count,), real-embedded when gaussian; without parameters every
    member is the one matrix of the family."""
    grid = np.array([[p.eval_complex(base) for p in row] for row in fam.entries], dtype=complex)
    grid = np.broadcast_to(grid.reshape(fam.n, fam.n, -1), (fam.n, fam.n, count))
    # each member laid out as one point's matrix is: products round alike
    grid = np.ascontiguousarray(np.moveaxis(grid, (0, 1), (-2, -1)))
    if fam.fld == "gaussian":
        return embed_hermitian(grid)
    return grid.real


@dataclass
class PluckerSection:
    chart: ChartNode
    system: QuadSystem
    ideal: FittingIdeal

    @property
    def family(self) -> MatrixFamily:
        return self.system.family

    # -- wedge coordinates and subspace recovery ----------------------

    def recover_quadratics(self, points: list[dict]) -> np.ndarray:
        """Bases of the rank-d quadratic spaces at chart points:
        (P, d, M) coefficients on the monomials system.monomials. Each point
        picks its largest nonvanishing wedge coordinate (the first in key
        order on a tie), fixes its row set, and reads the reduced basis off
        the minor table by Cramer's rule, all exactly: the coordinates come
        from one integer evaluation of the weak generators."""
        table = self.ideal.minor_table
        if not table:
            raise UnresolvedChart("no wedge coordinates available")
        numerators, den = common_denominator(points, self.chart.universe.params)
        weak = [g.eval_integer(numerators, den, len(points)) for g in self.chart.weak_gens]
        # every coordinate times one positive integer common to all of them
        factors = {key: scale / weak[idx][1] for key, (idx, scale) in table.items()}
        common = math.lcm(*(f.denominator for f in factors.values()))
        keys = sorted(table)
        coords = {
            key: np.array(weak[table[key][0]][0], dtype=object) * int(factors[key] * common) for key in keys
        }
        best = np.argmax(np.abs(np.array([coords[key] for key in keys])), axis=0)
        for p, b in enumerate(best):
            if coords[keys[b]][p] == 0:
                raise UnresolvedChart(
                    f"all wedge coordinates vanish at {points[p]!r}; chart not resolved"
                )
        rank = self.ideal.generic_rank
        out = np.zeros((len(points), rank, len(self.system.monomials)))
        for b in sorted(set(best.tolist())):  # np.unique costs 0.6 MB on first use
            at = np.flatnonzero(best == b)
            rows, cols = keys[b]
            for k in range(rank):
                out[at, k, cols[k]] = 1.0
                for m in sorted(set(range(out.shape[2])) - set(cols)):
                    entry = coords.get((rows, tuple(sorted(set(cols[:k] + cols[k + 1 :]) | {m}))))
                    if entry is not None:
                        sign = _replacement_sign(list(cols), k, m)
                        ratios = zip(entry[at], coords[keys[b]][at])
                        out[at, k, m] = [e * sign / v if e else 0.0 for e, v in ratios]
        return out


def common_denominator(points: list[dict], names) -> tuple[dict, int]:
    """Each coordinate's integers over the points' least common denominator,
    as lists (``Polynomial.eval_integer``'s columns). An int, a Fraction or a
    float is read as the exact rational it is."""
    ratios = {n: [p[n].as_integer_ratio() for p in points] for n in names}
    den = math.lcm(*(d for pairs in ratios.values() for _, d in pairs))
    return {n: [a * (den // d) for a, d in pairs] for n, pairs in ratios.items()}, den


def _replacement_sign(cols: list[int], k: int, m: int) -> int:
    """Parity of sorting [c_0, ..., m at slot k, ..., c_{d-1}]."""
    others = cols[:k] + cols[k + 1 :]
    shift = sum(1 for c in others if c < m)
    return -1 if (shift - k) % 2 else 1


def plucker_section(node: ChartNode, system: QuadSystem, ideal: FittingIdeal) -> PluckerSection:
    if node.status not in GOOD_STATUSES:
        raise UnresolvedChart(f"chart {node.path!r} has status {node.status}")
    fam = system.family
    if fam.fld == "gaussian":
        # the numeric reference solves real symmetric matrices; complex input
        # reaches it through the 2n embedding, which is symmetric only for
        # hermitian families (real normal families go through the splitting)
        for r in range(fam.n):
            for c in range(fam.n):
                if fam.entries[r][c] != fam.entry_conj(c, r):
                    raise NonHermitianFamily(
                        "frames over the gaussian field require a hermitian family"
                    )
    return PluckerSection(chart=node, system=system, ideal=ideal)


# -- bouquet extraction ------------------------------------------------


@dataclass
class GridBouquet:
    """The eigen-bouquets at P chart points: off the discriminant the
    clustered eigenspaces, on it their limits."""

    base: dict  # base parameter name -> (P,) float base-point column
    exceptional: np.ndarray  # (P,) bool: on the pulled-back discriminant
    matrices: np.ndarray  # (P, n, n) family matrices at the base points
    frames: np.ndarray  # (P, n, n) each point's subspace bases side by side
    values: np.ndarray  # (P, n) the value of each column's subspace
    patterns: list[tuple[int, ...]]  # each point's multiplicities, in column order
    quad_residual: np.ndarray  # (P,) worst |q(v)| over recovered quadratics and columns
    gram_residual: np.ndarray  # (P,) deviation of each frame from orthonormality


def _spectra_at(section: PluckerSection, points: list[dict], where):
    """Base points, discriminant mask, family matrices, and the points off
    the discriminant with their stacked Jacobi spectra; where(i) names point
    i if its solve fails. One integer batch at the exact points gives the
    base points, each rounded once, and the zero test of the pulled minors."""
    chart, count = section.chart, len(points)
    numerators, den = common_denominator(points, chart.universe.params)
    base = {}
    for name, poly in chart.to_base.items():
        values, scale = poly.eval_integer(numerators, den, count)
        base[name] = (np.array(values, dtype=object) / scale).astype(float)
    on_disc = np.ones(count, dtype=bool)
    for g in chart.pulled_minors:
        on_disc &= np.array(g.eval_integer(numerators, den, count)[0], dtype=object) == 0
    matrices = family_matrix(section.family, base, count)
    off = np.flatnonzero(~on_disc)
    try:
        spectra = eigh_jacobi(matrices[off])
    except JacobiNonConvergence as err:
        i = off[err.member]
        point = {k: v[i].item() for k, v in base.items()}
        raise JacobiNonConvergence(f"{err} at {where(i)}, base point {point}") from err
    return base, on_disc, matrices, off, spectra


def _residuals(frames: np.ndarray, quads, monomials):
    """Per assembled frame of a stack, its deviation from orthonormality and the
    worst |q(v)| / (1 + max |coefficient of q|) over quadratics q, columns v."""
    eye = np.eye(frames.shape[2])
    gram = np.max(np.abs(np.swapaxes(frames, 1, 2) @ frames - eye), axis=(1, 2), initial=0.0)
    values = 0.0
    for m, (a, b) in enumerate(monomials):
        values = values + quads[:, :, m, None] * frames[:, None, a, :] * frames[:, None, b, :]
    scale = 1.0 + np.max(np.abs(quads), axis=2, initial=0.0)
    return gram, np.max(np.abs(values) / scale[:, :, None], axis=(1, 2), initial=0.0)


def _transversal_directions(nparams: int):
    """Directions bounded away from every coordinate hyperplane.

    Curves tangent to the exceptional divisor collapse the eigenvalue gaps
    faster than the cluster tolerance, so a healthy component in every chart
    coordinate matters more than the precise heading. Rotated fallbacks at
    30 degree increments are filtered by the same floor.
    """
    base = np.array([1.0 + 0.13 * k for k in range(nparams)])
    base /= np.linalg.norm(base)
    yield base
    floor = 0.25 / math.sqrt(nparams)
    for attempt in range(1, 12):
        angle = math.radians(30.0 * attempt)
        direction = base.copy()
        if nparams == 1:
            direction = base * (-1.0 if attempt % 2 else 1.0)
        else:
            i, j = attempt % nparams, (attempt + 1) % nparams
            c, s = math.cos(angle), math.sin(angle)
            di, dj = direction[i], direction[j]
            direction[i], direction[j] = c * di - s * dj, s * di + c * dj
        if float(np.min(np.abs(direction))) < floor:
            signs = np.where(direction >= 0, 1.0, -1.0)
            direction = direction + 2.0 * floor * signs
            direction /= np.linalg.norm(direction)
        yield direction


def extract_bouquets(
    section: PluckerSection, points: list[dict], cluster_tol: float = DEFAULT_CLUSTER_TOL
) -> GridBouquet:
    """The bouquets at chart points as one GridBouquet: off the pulled-back
    discriminant clustered straight into the frame stack from one Jacobi
    stack, on it limits along the transversal headings in turn, certified
    against the recovered quadratics."""
    quads = section.recover_quadratics(points)
    base, on_disc, matrices, off, spectra = _spectra_at(section, points, "grid index {}".format)
    frames, values = np.zeros(matrices.shape), np.zeros(matrices.shape[:2])
    solved, means, slots = cluster_frames(*spectra, cluster_tol)
    frames[off], values[off] = solved, means
    patterns = dict(zip(off.tolist(), slot_patterns(slots, len(off))))
    exc = np.flatnonzero(on_disc)
    if exc.size:
        frames[exc], values[exc], limits = _extrapolate_bouquets(
            section, points, exc, matrices, quads, cluster_tol
        )
        patterns.update(zip(exc.tolist(), limits))
    gram, quad = _residuals(frames, quads, section.system.monomials)
    patterns = [patterns[i] for i in range(len(points))]
    return GridBouquet(base, on_disc, matrices, frames, values, patterns, quad, gram)


def _extrapolate_bouquets(section, points, exc, matrices, quads, cluster_tol):
    """Limit frames, column values and patterns, the subspaces sorted by
    value, at the points exc: each transversal heading in turn for the
    points still pending."""
    names = section.chart.universe.params
    start = np.array([[float(points[i][name]) for name in names] for i in exc])
    frames, values = np.zeros((len(exc),) + matrices.shape[1:]), np.zeros((len(exc), matrices.shape[-1]))
    patterns: list = [None] * len(exc)
    pending = np.arange(len(exc))
    for delta in _transversal_directions(len(names)):
        # a failed curve's row and error are written over by a later heading
        frames[pending], values[pending], outcome = _curve_limits(
            section, start[pending], exc[pending], delta, matrices, quads, cluster_tol
        )
        for q, got in zip(pending.tolist(), outcome):
            patterns[q] = got
        pending = pending[[isinstance(got, ExtrapolationError) for got in outcome]]
        if not pending.size:
            return frames, values, patterns
    raise ExtrapolationError(
        f"extrapolation failed at {points[exc[pending[0]]]!r} in every direction: {patterns[pending[0]]}"
    )


def _curve_limits(section, start, owners, delta, matrices, quads, cluster_tol):
    """Per curve from a start point along delta, its limit bouquet: the
    (C, n, n) frames of the limit subspaces, sorted by value, their (C, n)
    Rayleigh values at the start point, the only limit eigenvalues (the
    curve kernel extrapolates frames alone), and per curve their pattern or
    the ExtrapolationError it failed with. All curves go through one batch
    of base points, discriminant tests, matrices, Jacobi solves and
    clusters, one extrapolate_along_curve, one stacked Rayleigh value per
    limit pattern and slot and one quadratic residual check; owners name
    the grid points the curves start from."""
    radii, steps = EXTRAPOLATION_RADII, len(EXTRAPOLATION_RADII)
    names = section.chart.universe.params
    curves = start[:, None, :] + np.array(radii)[:, None] * delta
    on_curves = [dict(zip(names, row)) for row in curves.reshape(-1, len(names)).tolist()]
    _, on_disc, _, _, spectra = _spectra_at(
        section,
        on_curves,
        lambda i: f"radius {radii[i % steps]} on the curve of grid index {owners[i // steps]}",
    )
    rows = (np.cumsum(~on_disc) - 1).reshape(len(start), steps)  # each sample's row among the solved
    inside = on_disc.reshape(len(start), steps).any(axis=1)
    chained = np.flatnonzero(~inside)
    # all curves' samples in one cluster_frames stack: demo_frames peak_rss_mb 36.29 MB, against
    # 36.22 MB with one Cluster per sample and slot (medians of 3 benchmark runs, 2-core Xeon)
    limits, values = np.zeros((len(start),) + matrices.shape[1:]), np.zeros((len(start), matrices.shape[-1]))
    limits[chained], found = extrapolate_along_curve(cluster_frames(*spectra, cluster_tol), rows[chained])
    found = iter(found)
    out = [ExtrapolationError("curve runs inside the discriminant image") if bad else next(found)
           for bad in inside]
    done = [j for j, got in enumerate(out) if not isinstance(got, ExtrapolationError)]
    if not done:
        return limits, values, out
    # eigenvalue at the point itself: Rayleigh value on the limit basis
    groups: dict[tuple, list[int]] = {}
    for j in done:
        groups.setdefault(out[j], []).append(j)
    for pattern, js in groups.items():
        at = gather(matrices, owners[js])
        for a, b in zip(accumulate(pattern, initial=0), accumulate(pattern)):
            bases = limits[js, :, a:b]
            products = np.swapaxes(bases, 1, 2) @ at @ bases
            rayleigh = np.add.reduce(np.diagonal(products, axis1=1, axis2=2), axis=1) / (b - a)
            values[js, a:b] = rayleigh[:, None]
    for j in done:  # the subspaces sorted by (value, multiplicity), a tie in slot order
        starts = list(accumulate(out[j], initial=0))[:-1]
        spans = sorted(zip(values[j, starts].tolist(), out[j], starts))
        cols = [col for _, m, a in spans for col in range(a, a + m)]
        limits[j], values[j], out[j] = limits[j][:, cols], values[j][cols], tuple(m for _, m, _ in spans)
    _, worst = _residuals(limits[done], quads[owners[done]], section.system.monomials)
    for j, residual in zip(done, worst.tolist()):
        if residual > QUAD_VANISH_TOL:
            out[j] = ExtrapolationError(
                f"recovered quadratics do not vanish on the extrapolated bouquet "
                f"(residual {residual:.3e})"
            )
    return limits, values, out


# -- frames over a grid ------------------------------------------------


@dataclass
class GridSpec:
    counts: tuple[int, ...]
    lo: Fraction = Fraction(-1)
    hi: Fraction = Fraction(1)

    def axes(self) -> list[list[Fraction]]:
        out = []
        for count in self.counts:
            if count == 1:
                out.append([Fraction(0)])
                continue
            step = (self.hi - self.lo) / (count - 1)
            out.append([self.lo + k * step for k in range(count)])
        return out

    def points(self) -> list[tuple[Fraction, ...]]:
        return list(product(*self.axes()))


@dataclass
class ComponentTrack:
    dim: int
    eigenvalues: list[float] = field(default_factory=list)
    frames: np.ndarray | None = None  # (P, n, dim): the aligned frame at each grid point
    invariance: list[float] = field(default_factory=list)


@dataclass
class FrameReport:
    chart_path: tuple[str, ...]
    grid: GridSpec
    points: list[tuple]
    base: dict  # base parameter name -> float base-point column over the grid
    exceptional_mask: list[bool]
    components: list[ComponentTrack]
    max_oracle_angle: float
    max_quad_residual: float
    max_gram_residual: float
    max_invariance_residual: float
    smoothness_eigenvalue: float
    smoothness_frame: float
    labeling_flags: list[str]
    failing: bool


def local_frame_and_eigenvalues(
    section: PluckerSection,
    grid: GridSpec,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
    angle_tol: float = DEFAULT_ANGLE_TOL,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> FrameReport:
    """Continuously labeled frames and eigenvalues over a chart grid, all from
    the grid's frame stack: per component, each point takes the subspace
    nearest by largest principal angle to its predecessor's in the neighbour
    tree, and the frames are aligned along the tree by one chain of polar
    factors; angles, Rayleigh values and the LAPACK check run grid-wide."""
    names = section.chart.universe.params
    if len(grid.counts) != len(names):
        raise ValueError("grid dimension must match the chart parameter count")
    pts = grid.points()
    bouquet = extract_bouquets(section, [dict(zip(names, pt)) for pt in pts], cluster_tol)
    frames, patterns = bouquet.frames, bouquet.patterns
    starts = [list(accumulate(p, initial=0)) for p in patterns]
    previous, depth = _neighbor_tree(grid.counts)
    angles = _label_angles(frames, patterns, previous)
    flags: list[tuple] = []  # (grid index, component, kind, message)
    first, columns = patterns[0], starts[0]
    anchor = sorted(
        range(len(first)),
        key=lambda k: (first[k], bouquet.values[0, columns[k]], tuple(np.round(frames[0][:, columns[k]], 9))),
    )
    components = [ComponentTrack(first[k]) for k in anchor]
    labels = [anchor]  # per grid point, the subspace each component took
    for idx, prev in enumerate(previous.tolist()[1:], start=1):
        taken: list[int] = []
        for c, comp in enumerate(components):
            k, angle, runner_up = nearest_of(
                (j, angle) for j, angle in enumerate(angles[idx, labels[prev][c]].tolist())
                if not math.isnan(angle) and j not in taken
            )
            if k is None:
                raise LabelingError(
                    f"no component of dimension {comp.dim} at grid index {idx}: "
                    f"multiplicities {patterns[prev]} at grid index {prev}, {patterns[idx]} here"
                )
            if runner_up is not None and runner_up - angle < 1e-6:
                flags.append((idx, c, 0, f"ambiguous labeling at grid index {idx}"))
            taken.append(k)
        labels.append(taken)
    # labels do not depend on alignment: each component's bases are gathered
    # from the frame stack by their first columns and turned in one chain
    levels = [np.flatnonzero(depth == d) for d in range(1, int(depth.max()) + 1)]
    for c, comp in enumerate(components):
        cols = np.array([start[taken[c]] for start, taken in zip(starts, labels)])
        comp.frames, degenerate = _aligned_frames(frames, cols, comp.dim, previous, levels)
        flags += [(idx, c, 1, f"frame alignment degenerate at grid index {idx}") for idx in degenerate]
    # Rayleigh values and invariance residuals of all frames at once
    matrices = gather(bouquet.matrices, np.arange(len(pts)))
    scale = 1.0 + _frobenius(matrices)
    for comp in components:
        products = np.swapaxes(comp.frames, 1, 2) @ matrices @ comp.frames
        rayleigh = np.add.reduce(np.diagonal(products, axis1=1, axis2=2), axis=1) / comp.dim
        residual = matrices @ comp.frames - rayleigh[:, None, None] * comp.frames
        comp.eigenvalues = rayleigh.tolist()
        comp.invariance = (np.sqrt(np.add.reduce(residual**2, axis=1)).max(axis=1) / scale).tolist()

    off = np.flatnonzero(~bouquet.exceptional)
    max_oracle_angle = _oracle_angle(matrices[off], [comp.frames[off] for comp in components], cluster_tol)
    smooth_val, smooth_frame = _smoothness(components, grid)
    max_quad = float(bouquet.quad_residual.max())
    max_gram = float(bouquet.gram_residual.max())
    max_inv = max((max(c.invariance) for c in components if c.invariance), default=0.0)
    failing = (
        max_oracle_angle > angle_tol
        or max_inv > residual_tol
        or max_quad > QUAD_VANISH_TOL
        or max_gram > GRAM_TOL
    )
    return FrameReport(
        chart_path=section.chart.path,
        grid=grid,
        points=[tuple(p) for p in pts],
        base=bouquet.base,
        exceptional_mask=bouquet.exceptional.tolist(),
        components=components,
        max_oracle_angle=max_oracle_angle,
        max_quad_residual=max_quad,
        max_gram_residual=max_gram,
        max_invariance_residual=max_inv,
        smoothness_eigenvalue=smooth_val,
        smoothness_frame=smooth_frame,
        labeling_flags=[message for *_, message in sorted(flags)],
        failing=failing,
    )


def _label_angles(frames: np.ndarray, patterns: list[tuple], previous: np.ndarray) -> np.ndarray:
    """angles[idx, i, j]: largest principal angle between subspace j at grid
    point idx and subspace i of its dimension at its predecessor, else NaN.
    A (predecessor's, own) multiplicity pattern fixes each slot pair's
    columns; all pairs of one dimension are one principal_angles stack."""
    width = max(map(len, patterns))
    angles = np.full((len(patterns), width, width), np.nan)
    groups: dict[tuple, array] = {}
    for idx, prev in enumerate(previous.tolist()[1:], start=1):
        groups.setdefault((patterns[prev], patterns[idx]), array("q")).append(idx)
    pairs: dict[int, list] = {}  # per dimension: points, flat slots, columns, predecessor's columns
    for (before, here), members in groups.items():
        at = np.asarray(members)
        for (i, ref_col, m), (j, col, k) in product(_slots(before), _slots(here)):
            if m == k:
                part = (at, (at * width + i) * width + j, np.full(at.size, col), np.full(at.size, ref_col))
                pairs.setdefault(m, []).append(part)
    for m, parts in pairs.items():
        at, slots, cols, ref_cols = (np.concatenate(column) for column in zip(*parts))
        cands, refs = _columns(frames, at, cols, m), _columns(frames, previous[at], ref_cols, m)
        angles.flat[slots] = principal_angles(cands, refs).max(axis=1)
    return angles


def _columns(frames: np.ndarray, at: np.ndarray, cols: np.ndarray, m: int) -> np.ndarray:
    """The (len(at), n, m) stack of columns cols[k] to cols[k] + m of frame at[k]."""
    rows = np.arange(frames.shape[1])[:, None]
    return frames[at[:, None, None], rows, cols[:, None, None] + np.arange(m)]


def _slots(pattern: tuple) -> list[tuple[int, int, int]]:
    """(index, first column, multiplicity) of each subspace of a pattern."""
    return [(k, col, m) for k, (col, m) in enumerate(zip(accumulate(pattern, initial=0), pattern))]


def _aligned_frames(frames: np.ndarray, cols: np.ndarray, dim: int, previous: np.ndarray, levels):
    """One component's (P, n, dim) frames B_i R_i and the grid points whose
    alignment is degenerate; B_i is columns cols[i] to cols[i] + dim of frame
    i. R_0 is the anchor's column signs and R_i = Q_i R_prev(i), level by
    level, with Q_i = polar(B_i^T B_prev(i)) from one stack: polar(M R) =
    polar(M) R for orthogonal R, so B_i R_i is B_i Procrustes-aligned to the
    aligned frame before it. A degenerate Q_i, or a line orthogonal to its
    predecessor's, resets R_i = I: the point keeps its own basis."""
    count = len(frames)
    bases = _columns(frames, np.arange(count), cols, dim)
    cross = np.swapaxes(bases[1:], 1, 2) @ bases[previous[1:]]
    polar, degenerate = polar_factor(cross)
    reset = degenerate | ~cross.any(axis=(1, 2))
    turns = np.zeros((count, dim, dim))
    turns[0] = np.diag(_anchor_signs(bases[0]))
    for at in levels:
        turns[at] = polar[at - 1] @ turns[previous[at]]
        turns[at[reset[at - 1]]] = np.eye(dim)
    # a line's turn is a sign: multiplied, as the curve chains turn a line
    aligned = bases * turns if dim == 1 else bases @ turns
    return aligned, (np.flatnonzero(degenerate) + 1).tolist()


def _oracle_angle(matrices: np.ndarray, frames: list[np.ndarray], cluster_tol: float) -> float:
    """Worst angle between a labeled frame (frames: per component, the stack
    at the points off the discriminant) and the nearest LAPACK eigenspace of
    its dimension: one np.linalg.eigh of the matrices there, clustered as the
    grid is, and one principal_angles stack per component."""
    if not len(matrices):
        return 0.0
    references, _, slots = cluster_frames(*np.linalg.eigh(matrices), cluster_tol)
    owners: dict[int, list] = {}  # per dimension: the members and bases of each slot
    for members, start, stop in slots:
        owners.setdefault(stop - start, []).append((members, references[members, :, start:stop]))
    worst = 0.0
    for stack in frames:
        slots = owners.get(stack.shape[2], [])
        if slots:
            at = np.concatenate([members for members, _ in slots])
            refs = np.concatenate([bases for _, bases in slots])
            nearest = np.full(len(matrices), np.inf)
            np.minimum.at(nearest, at, principal_angles(refs, stack[at]).max(axis=1))
            worst = max([worst, *nearest[np.isfinite(nearest)].tolist()])
    return worst


def _neighbor_tree(counts) -> tuple[np.ndarray, np.ndarray]:
    """Predecessor and depth of every grid point in the neighbour tree: the
    predecessor is the previous point along the innermost axis on which the
    index is positive (the first point is its own), the depth is the sum of
    the indices."""
    strides = np.array([math.prod(counts[axis + 1 :]) for axis in range(len(counts))], dtype=int)
    idx = np.arange(math.prod(counts))
    multi = idx[:, None] // strides % np.array(counts, dtype=int)
    innermost = np.max(np.where(multi > 0, np.arange(len(counts)), -1), axis=1, initial=-1)
    # the first point has no positive index: -1 picks the appended 0 stride
    return idx - np.append(strides, 0)[innermost], multi.sum(axis=1)


def _anchor_signs(basis: np.ndarray) -> np.ndarray:
    """Per column, the sign that makes its first entry above 1e-8 in size positive."""
    big = np.abs(basis) > 1e-8
    lead = basis[np.argmax(big, axis=0), np.arange(basis.shape[1])]
    return np.where(big.any(axis=0) & (lead < 0), -1.0, 1.0)


def _smoothness(components, grid: GridSpec):
    """Worst second differences of eigenvalues and frames along each grid axis."""
    counts = grid.counts
    axes = grid.axes()
    worst_val = 0.0
    worst_frame = 0.0
    for comp in components:
        values = np.reshape(comp.eigenvalues, counts)
        frames = np.reshape(comp.frames, counts + comp.frames[0].shape)
        for axis, count in enumerate(counts):
            if count < 3:
                continue
            h = float(axes[axis][1] - axes[axis][0])
            worst_val = max(worst_val, _worst_second_difference(values, axis, h))
            worst_frame = max(worst_frame, _worst_second_difference(frames, axis, h))
    return worst_val, worst_frame


def _worst_second_difference(a: np.ndarray, axis: int, h: float) -> float:
    b = np.moveaxis(a, axis, 0)
    return float(np.max(np.abs((b[:-2] - 2 * b[1:-1] + b[2:]) / (h * h))))
