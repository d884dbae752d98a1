"""Eigenspace bundles, frames and eigenvalue functions on resolved charts.

The weak transforms of the maximal minors are the wedge coordinates of the
rank-d subspace of quadratics cutting out the union of eigenspaces. On a
resolved chart at least one coordinate survives at every point, so the
subspace of quadratics extends across the exceptional set; its zero set
there is the unique limit of the nearby eigenspace bouquets.

Extraction at a point therefore has two routes that check each other:
off the discriminant the package's Jacobi eigendecomposition, on it Richardson
extrapolation of eigenspaces along a transversal curve, always validated
against the symbolically recovered quadratics. Each bouquet carries its family
matrix, and off the discriminant the labeled frames are checked against its
LAPACK eigendecomposition, a solver independent of the one that built them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from .algebra import Polynomial, all_exact
from .bouquet import FittingIdeal, QuadSystem
from .family import MatrixFamily
from .oracle import (
    ExtrapolationError,
    SpectralSample,
    cluster_and_multiplicities,
    embed_hermitian,
    extrapolate_along_curve,
    procrustes_align,
    spectral_sample,
    subspace_angle,
)
from .resolve import GOOD_STATUSES, ChartNode

EXTRAPOLATION_RADII = tuple(2.0 ** -k for k in range(3, 9))
DEFAULT_ANGLE_TOL = 1e-8
DEFAULT_RESIDUAL_TOL = 1e-8
QUAD_VANISH_TOL = 1e-7
GRAM_TOL = 1e-10  # bound on an assembled frame's deviation from orthonormality


class UnresolvedChart(ValueError):
    pass


class NonHermitianFamily(ValueError):
    """Frames over the gaussian field need a hermitian family."""


def family_matrix(fam: MatrixFamily, base_point: dict) -> np.ndarray:
    """Float matrix of the family at a point, real-embedded when gaussian."""
    grid = np.array(
        [[p.eval_complex(base_point) for p in row] for row in fam.entries], dtype=complex
    )
    if fam.fld == "gaussian":
        return embed_hermitian(grid)
    return grid.real


@dataclass
class PluckerSection:
    chart: ChartNode
    system: QuadSystem
    ideal: FittingIdeal
    root_fitting: list[Polynomial]  # generators in the base universe, over Q
    rank: int
    # the generators with absolute coefficients: the float vanishing test's scale
    root_bounds: list[Polynomial] = field(init=False)

    def __post_init__(self):
        self.root_bounds = [
            Polynomial(g.universe, {e: abs(c) for e, c in g.terms.items()})
            for g in self.root_fitting
        ]

    @property
    def family(self) -> MatrixFamily:
        return self.system.family

    def on_discriminant(self, base_point: dict) -> bool:
        """Exact at a rational point; at a float point every generator is
        below 1e-12 times the sum of its terms' absolute values there."""
        if all_exact(base_point.values()):
            return all(not g.eval_scalar(base_point) for g in self.root_fitting)
        size = {k: abs(v) for k, v in base_point.items()}
        return all(
            abs(g.eval_complex(base_point)) <= 1e-12 * bound.eval_complex(size).real
            for g, bound in zip(self.root_fitting, self.root_bounds)
        )

    # -- wedge coordinates and subspace recovery ----------------------

    def coordinate_values(self, point: dict) -> dict[tuple, Fraction]:
        """Exact values of all wedge coordinates at a rational chart point."""
        weak_values = [g.eval_scalar(point) for g in self.chart.weak_gens]
        out = {}
        for key, (idx, scale) in self.ideal.minor_table.items():
            out[key] = weak_values[idx] * scale
        return out

    def recover_quadratics(self, point: dict) -> list[dict[tuple[int, int], float]]:
        """Basis of the rank-d quadratic space at a chart point.

        Picks the largest nonvanishing wedge coordinate, fixes its row set,
        and reads the reduced basis off the minor table by Cramer's rule.
        Returns d quadratics as monomial-coefficient dictionaries (floats).
        """
        values = self.coordinate_values(point)
        if not values:
            raise UnresolvedChart("no wedge coordinates available")
        best_key = None
        best_norm = None
        for key in sorted(values):
            norm = abs(values[key])
            if norm and (best_norm is None or norm > best_norm):
                best_key, best_norm = key, norm
        if best_key is None:
            raise UnresolvedChart(
                f"all wedge coordinates vanish at {point!r}; chart not resolved"
            )
        rows, cols = best_key
        pivot_value = values[best_key]
        monos = self.system.monomials
        ncols = len(monos)
        d = self.rank
        basis = []
        col_list = list(cols)
        col_set = set(cols)
        for k in range(d):
            coeffs: dict[int, Fraction] = {c: Fraction(0) for c in range(ncols)}
            coeffs[col_list[k]] = Fraction(1)
            for m in range(ncols):
                if m in col_set:
                    continue
                replaced = sorted(set(col_list[:k] + col_list[k + 1 :]) | {m})
                sign = _replacement_sign(col_list, k, m)
                entry = values.get((rows, tuple(replaced)))
                if entry is None or not entry:
                    continue
                coeffs[m] = entry * sign / pivot_value
            basis.append({monos[c]: float(v) for c, v in coeffs.items() if v})
        return basis


def _replacement_sign(cols: list[int], k: int, m: int) -> int:
    """Parity of sorting [c_0, ..., m at slot k, ..., c_{d-1}]."""
    others = cols[:k] + cols[k + 1 :]
    shift = sum(1 for c in others if c < m)
    return -1 if (shift - k) % 2 else 1


def plucker_section(
    node: ChartNode,
    system: QuadSystem,
    ideal: FittingIdeal,
    root_fitting: list[Polynomial] | None = None,
) -> PluckerSection:
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
    return PluckerSection(
        chart=node,
        system=system,
        ideal=ideal,
        root_fitting=root_fitting if root_fitting is not None else list(ideal.gens),
        rank=ideal.generic_rank,
    )


# -- bouquet extraction ------------------------------------------------


@dataclass
class Subspace:
    value: float  # recovered eigenvalue (Rayleigh on the basis)
    dim: int
    basis: np.ndarray


@dataclass
class BouquetAtPoint:
    point: tuple
    base_point: dict  # base parameter name -> float value
    subspaces: list[Subspace]
    exceptional: bool
    quad_residual: float  # worst |q(v)| over recovered quadratics and basis vectors
    gram_residual: float  # deviation of the assembled frame from orthonormality
    matrix: np.ndarray  # the family matrix at the base point

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.subspaces)


def _quad_value(coeffs: dict[tuple[int, int], float], vec: np.ndarray) -> float:
    total = 0.0
    for (a, b), c in coeffs.items():
        total += c * float(vec[a]) * float(vec[b])
    return total


def _quad_scale(coeffs: dict[tuple[int, int], float]) -> float:
    return max((abs(c) for c in coeffs.values()), default=0.0)


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


def extract_bouquet_at_point(
    section: PluckerSection,
    point: dict,
    cluster_tol: float = 1e-6,
    direction: np.ndarray | None = None,
) -> BouquetAtPoint:
    """Bouquet of eigenspace limits at a chart point.

    Off the pulled-back discriminant this is a clustered eigendecomposition.
    On it, eigenspaces are extrapolated to the point along a transversal
    curve and certified against the recovered quadratics.
    """
    chart = section.chart
    names = chart.universe.params
    exact = all_exact(point.values())
    base = chart.base_point(point) if exact else chart.base_point_float(point)
    on_disc = section.on_discriminant(base)
    base_float = {k: float(v) for k, v in base.items()} if exact else base
    matrix = family_matrix(section.family, base_float)
    quads = section.recover_quadratics(point) if exact else None

    if not on_disc:
        sample = spectral_sample(matrix, tol=cluster_tol)
        subspaces = [
            Subspace(c.value, c.multiplicity, c.basis) for c in sample.clusters
        ]
        return _finish_bouquet(section, point, base_float, subspaces, False, quads, matrix)

    point_f = np.array([float(point[n]) for n in names], dtype=float)
    directions = (
        [direction] if direction is not None else list(_transversal_directions(len(names)))
    )
    last_error: Exception | None = None
    for delta in directions:
        try:
            subspaces = _extrapolate_bouquet(section, point_f, names, delta, cluster_tol, matrix)
            return _finish_bouquet(section, point, base_float, subspaces, True, quads, matrix)
        except ExtrapolationError as err:
            last_error = err
    raise ExtrapolationError(
        f"extrapolation failed at {point!r} in every direction: {last_error}"
    )


def _extrapolate_bouquet(section, point_f, names, delta, cluster_tol, matrix_at_p):
    samples = []
    for t in EXTRAPOLATION_RADII:
        chart_pt = {n: float(point_f[k] + t * delta[k]) for k, n in enumerate(names)}
        base_pt = section.chart.base_point_float(chart_pt)
        if section.on_discriminant(base_pt):
            raise ExtrapolationError("curve runs inside the discriminant image")
        samples.append(spectral_sample(family_matrix(section.family, base_pt), tol=cluster_tol))
    limits = extrapolate_along_curve(samples)
    subspaces = []
    for _, mult, basis, _ in limits:
        # eigenvalue at the point itself: Rayleigh value on the limit basis
        value = float(np.mean(np.diag(basis.T @ matrix_at_p @ basis)))
        subspaces.append(Subspace(value, mult, basis))
    return subspaces


def _finish_bouquet(section, point, base_float, subspaces, exceptional, quads, matrix):
    subspaces = sorted(subspaces, key=lambda s: (s.value, s.dim))
    assembled = np.hstack([s.basis for s in subspaces]) if subspaces else np.zeros((0, 0))
    gram = assembled.T @ assembled
    gram_residual = float(np.max(np.abs(gram - np.eye(gram.shape[0])))) if gram.size else 0.0
    worst = 0.0
    if quads is not None:
        for q in quads:
            scale = 1.0 + _quad_scale(q)
            for s in subspaces:
                for k in range(s.dim):
                    worst = max(worst, abs(_quad_value(q, s.basis[:, k])) / scale)
        if exceptional and worst > QUAD_VANISH_TOL:
            raise ExtrapolationError(
                f"recovered quadratics do not vanish on the extrapolated bouquet "
                f"(residual {worst:.3e})"
            )
    pt_tuple = tuple(point[n] for n in section.chart.universe.params)
    return BouquetAtPoint(
        pt_tuple, base_float, subspaces, exceptional, worst, gram_residual, matrix
    )


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
    frames: list[np.ndarray] = field(default_factory=list)
    invariance: list[float] = field(default_factory=list)


@dataclass
class FrameReport:
    chart_path: tuple[str, ...]
    grid: GridSpec
    points: list[tuple]
    base_points: list[dict]  # float base point of each grid point
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
    cluster_tol: float = 1e-6,
    angle_tol: float = DEFAULT_ANGLE_TOL,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> FrameReport:
    """Continuously labeled frames and eigenvalues over a chart grid."""
    names = section.chart.universe.params
    if len(grid.counts) != len(names):
        raise ValueError("grid dimension must match the chart parameter count")
    pts = grid.points()
    counts = grid.counts
    bouquets = [
        extract_bouquet_at_point(section, dict(zip(names, pt)), cluster_tol) for pt in pts
    ]
    flags: list[str] = []
    anchor = bouquets[0]
    order0 = sorted(
        range(len(anchor.subspaces)),
        key=lambda k: (
            anchor.subspaces[k].dim,
            anchor.subspaces[k].value,
            tuple(np.round(anchor.subspaces[k].basis[:, 0], 9)),
        ),
    )
    components = [ComponentTrack(anchor.subspaces[k].dim) for k in order0]
    assignments: list[list[int]] = [[] for _ in pts]
    assignments[0] = order0
    for idx in range(1, len(pts)):
        prev_idx = _neighbor_index(idx, counts)
        prev_assign = assignments[prev_idx]
        prev = bouquets[prev_idx]
        cur = bouquets[idx]
        if cur.multiplicities != prev.multiplicities and sorted(
            cur.multiplicities
        ) != sorted(prev.multiplicities):
            flags.append(f"multiplicity change at grid index {idx}")
        used = set()
        assign = [None] * len(components)
        for slot, comp_prev in enumerate(prev_assign):
            target = prev.subspaces[comp_prev]
            best_k, best_angle, second = None, None, None
            for k, sub in enumerate(cur.subspaces):
                if k in used or sub.dim != target.dim:
                    continue
                ang = subspace_angle(sub.basis, target.basis)
                if best_angle is None or ang < best_angle:
                    best_k, best_angle, second = k, ang, best_angle
                elif second is None or ang < second:
                    second = ang
            if best_k is None:
                flags.append(f"no matching component at grid index {idx}")
                best_k = next(k for k in range(len(cur.subspaces)) if k not in used)
            elif second is not None and second - best_angle < 1e-6:
                flags.append(f"ambiguous labeling at grid index {idx}")
            used.add(best_k)
            assign[slot] = best_k
        assignments[idx] = assign

    # frame assembly with sign/phase continuity
    for idx, bouquet in enumerate(bouquets):
        matrix = bouquet.matrix
        for slot, k in enumerate(assignments[idx]):
            sub = bouquet.subspaces[k]
            basis = sub.basis
            if idx == 0:
                basis = _anchor_phase(basis)
            else:
                ref = components[slot].frames[_neighbor_index(idx, counts)]
                try:
                    basis = procrustes_align(basis, ref)
                except ExtrapolationError:
                    flags.append(f"frame alignment degenerate at grid index {idx}")
            components[slot].frames.append(basis)
            rayleigh = float(np.mean(np.diag(basis.T @ matrix @ basis)))
            components[slot].eigenvalues.append(rayleigh)
            scale = 1.0 + float(np.linalg.norm(matrix))
            inv = float(
                np.max(np.linalg.norm(matrix @ basis - rayleigh * basis, axis=0))
            )
            components[slot].invariance.append(inv / scale)

    max_oracle_angle = 0.0
    for idx, bouquet in enumerate(bouquets):
        if bouquet.exceptional:
            continue
        values, vectors = np.linalg.eigh(bouquet.matrix)
        reference = cluster_and_multiplicities(
            SpectralSample(values, vectors), cluster_tol
        )
        for slot, k in enumerate(assignments[idx]):
            sub = bouquet.subspaces[k]
            best = None
            for cluster in reference.clusters:
                if cluster.multiplicity != sub.dim:
                    continue
                ang = subspace_angle(cluster.basis, components[slot].frames[idx])
                best = ang if best is None else min(best, ang)
            if best is not None:
                max_oracle_angle = max(max_oracle_angle, best)

    smooth_val, smooth_frame = _smoothness(components, grid)
    max_quad = max((b.quad_residual for b in bouquets), default=0.0)
    max_gram = max((b.gram_residual for b in bouquets), default=0.0)
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
        base_points=[b.base_point for b in bouquets],
        exceptional_mask=[b.exceptional for b in bouquets],
        components=components,
        max_oracle_angle=max_oracle_angle,
        max_quad_residual=max_quad,
        max_gram_residual=max_gram,
        max_invariance_residual=max_inv,
        smoothness_eigenvalue=smooth_val,
        smoothness_frame=smooth_frame,
        labeling_flags=flags,
        failing=failing,
    )


def _neighbor_index(idx: int, counts) -> int:
    """Previous grid point along the innermost axis with a positive index."""
    multi = np.unravel_index(idx, counts)
    for axis in range(len(counts) - 1, -1, -1):
        if multi[axis] > 0:
            return idx - math.prod(counts[axis + 1 :])
    raise ValueError("no neighbor for the first grid point")


def _anchor_phase(basis: np.ndarray) -> np.ndarray:
    out = basis.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        nz = np.nonzero(np.abs(col) > 1e-8)[0]
        if nz.size and col[nz[0]] < 0:
            out[:, k] = -col
    return out


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


# -- limit uniqueness ---------------------------------------------------


def limit_uniqueness_check(
    section: PluckerSection,
    point: dict,
    directions: list[np.ndarray] | None = None,
    cluster_tol: float = 1e-6,
) -> float:
    """Max pairwise principal angle between limit bouquets along curves."""
    names = section.chart.universe.params
    u = len(names)
    if directions is None:
        # distinct headings, all bounded away from the coordinate hyperplanes
        patterns = [
            [1.0] * u,
            [1.6 if k == 0 else 1.0 for k in range(u)],
            [(-1.0 if k % 2 else 1.0) * (1.0 + 0.3 * k) for k in range(u)],
        ]
        if u == 1:
            patterns = [[1.0], [-1.0], [1.0]]
        directions = []
        for pat in patterns:
            d = np.array(pat, dtype=float)
            directions.append(d / np.linalg.norm(d))
    if len(directions) < 3:
        raise ValueError("need at least 3 transversal directions")
    bouquets = [
        extract_bouquet_at_point(section, point, cluster_tol, direction=d)
        for d in directions
    ]
    worst = 0.0
    first = bouquets[0]
    for other in bouquets[1:]:
        used = set()
        for sub in first.subspaces:
            best_k, best_angle = None, None
            for k, cand in enumerate(other.subspaces):
                if k in used or cand.dim != sub.dim:
                    continue
                ang = subspace_angle(cand.basis, sub.basis)
                if best_angle is None or ang < best_angle:
                    best_k, best_angle = k, ang
            if best_k is None:
                raise ExtrapolationError("bouquet structures differ across curves")
            used.add(best_k)
            worst = max(worst, best_angle)
    return worst
