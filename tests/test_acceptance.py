"""Acceptance criteria, one test per criterion, each printing a PASS line.

Runtime-limited criteria measure wall time; tolerances are pinned to the
values in the module contracts.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from eigenbouquet.algebra import (
    Polynomial,
    VarUniverse,
    eval_matrix_rational,
    parse_polynomial,
)
from eigenbouquet.bouquet import (
    fitting_minors,
    generic_rank,
    wedge_quadratics,
)
from eigenbouquet.cli import FIXTURES, JobConfig, cmd_dispatch
from eigenbouquet.family import MatrixFamily, check_structure, split_and_double
from eigenbouquet.frames import (
    GridSpec,
    family_matrix,
    local_frame_and_eigenvalues,
    plucker_section,
)
from eigenbouquet.realnormal import arcp_extract, complexified_eigenvalues
from eigenbouquet.resolve import CenterSpec, run_sequence
from reference import (
    expected_quadratic_dim,
    jacobian_rank_at,
    limit_uniqueness_check,
    limits_along,
    pairs,
    plane_invariant_checks,
    rank_at,
    spectral_sample,
    subspace_angle,
)


def report_line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, detail


# -- shared generators ---------------------------------------------------


PARAM_NAMES = ("x", "y", "z")


def _reflection(n, i, j, a, b):
    """Rational orthogonal reflection in span(a e_i + b e_j)."""
    v = [Fraction(0)] * n
    v[i], v[j] = Fraction(a), Fraction(b)
    norm = a * a + b * b
    h = [[Fraction(1 if r == c else 0) for c in range(n)] for r in range(n)]
    for r in range(n):
        for c in range(n):
            h[r][c] -= 2 * v[r] * v[c] / norm
    return h


def _conjugate_diag(blocks, q, universe):
    """Q diag(blocks) Q^T with polynomial diagonal entries, exact."""
    n = len(q)
    zero = Polynomial.zero(universe)
    diag = [blocks[k] for k in range(n)]
    out = [[zero for _ in range(n)] for _ in range(n)]
    for r in range(n):
        for c in range(n):
            total = zero
            for k in range(n):
                coeff = q[r][k] * q[c][k]
                if coeff:
                    total = total + diag[k].scale(coeff)
            out[r][c] = total
    return out


def _rand_poly_text(rng, names, deg, terms):
    monos = ["1"] + list(names)
    if deg >= 2:
        monos += [f"{a}*{b}" for i, a in enumerate(names) for b in names[i:]]
    picks = rng.sample(monos, k=min(len(monos), terms))
    pieces = []
    for t in picks:
        coeff = rng.randint(-3, 3)
        if coeff == 0:
            coeff = 1
        sign = "-" if coeff < 0 else ("+" if pieces else "")
        body = f"{abs(coeff)}" if t == "1" else f"{abs(coeff)}*{t}"
        pieces.append(f"{sign} {body}".strip())
    return " ".join(pieces) if pieces else "0"


def random_symmetric_family(rng, n, nparams):
    """Sparse generic or block-degenerate symmetric family, seeded."""
    names = PARAM_NAMES[:nparams]
    universe = VarUniverse(tuple(names), tuple(f"V{k+1}" for k in range(n)))
    if rng.random() < 0.5:
        entries = [[Polynomial.zero(universe) for _ in range(n)] for _ in range(n)]
        for r in range(n):
            for c in range(r, n):
                p = parse_polynomial(_rand_poly_text(rng, names, 2, rng.randint(1, 2)), universe)
                entries[r][c] = entries[c][r] = p
        fam = MatrixFamily(n, universe, entries, "symmetric")
        return check_structure(fam), None
    # block style: eigenvalue polynomials with a planted collision point
    star = {name: Fraction(rng.randint(-2, 2)) for name in names}
    base = parse_polynomial(_rand_poly_text(rng, names, 2, 2), universe)
    blocks = [base]
    sizes = {2: [(1, 1)], 3: [(1, 2), (1, 1, 1)], 4: [(2, 2), (1, 3), (1, 1, 2)]}
    layout = rng.choice(sizes[n])
    values = [base]
    for _ in range(len(layout) - 1):
        bump = parse_polynomial(_rand_poly_text(rng, names, 1, 1), universe)
        shift = bump - Polynomial.constant(universe, bump.eval_scalar(star))
        if shift.is_zero():
            shift = (
                Polynomial.variable(universe, names[0])
                - Polynomial.constant(universe, star[names[0]])
            )
        values.append(values[-1] + shift)
    blocks = []
    for size, val in zip(layout, values):
        blocks.extend([val] * size)
    q = _reflection(n, 0, n - 1, 1, rng.randint(1, 2))
    if n >= 3:
        q2 = _reflection(n, 1, 2, rng.randint(1, 2), 1)
        q = [[sum(q[r][k] * q2[k][c] for k in range(n)) for c in range(n)] for r in range(n)]
    entries = _conjugate_diag(blocks, q, universe)
    fam = MatrixFamily(n, universe, entries, "symmetric")
    return check_structure(fam), star


def random_point(rng, names, lo=-9, hi=9, den=5):
    return {n: Fraction(rng.randint(lo, hi), rng.randint(1, den)) for n in names}


def exact_matrix_as_float(fam, pt):
    return np.array(
        [[float(c) for c in row] for row in eval_matrix_rational(fam.entries, pt)]
    )


# -- criterion 1: end-to-end worked example ------------------------------


class TestAcceptance1KuPa:
    def test_criterion(self, tmp_path):
        t0 = time.time()
        fam = check_structure(
            MatrixFamily.from_strings(
                [["x^2", "x*y"], ["x*y", "y^2"]],
                ["x", "y"],
                "symmetric",
                fibers=["X", "Y"],
            )
        )
        from eigenbouquet.family import analyze_spectrum

        summary = analyze_spectrum(fam)
        assert summary.generic_distinct_eigenvalues == 2
        system = wedge_quadratics(fam)
        assert generic_rank(system) == 1
        ideal = fitting_minors(system)
        u = fam.universe
        assert set(ideal.gens) == {
            parse_polynomial("x*y", u),
            parse_polynomial("x^2 - y^2", u),
        }
        outcome = run_sequence(ideal.gens, fam.universe, [CenterSpec((), ("x", "y"))])
        leaves = outcome.leaves()
        assert len(leaves) == 2
        assert all(leaf.status == "ResolvedCertified" for leaf in leaves)
        gens = {leaf.path: leaf.local_generator.to_string() for leaf in leaves}
        assert gens == {("x",): "u^2", ("y",): "v^2"}

        chart = outcome.root.find(("x",))
        section = plucker_section(chart, system, ideal)
        report = local_frame_and_eigenvalues(section, GridSpec((21, 21)))
        assert report.max_oracle_angle <= 1e-8
        worst = 0.0
        for k, pt in enumerate(report.points):
            uu, vv = float(pt[0]), float(pt[1])
            expected = sorted([0.0, uu * uu * (1 + vv * vv)])
            got = sorted(c.eigenvalues[k] for c in report.components)
            worst = max(worst, abs(got[0] - expected[0]), abs(got[1] - expected[1]))
        assert worst <= 1e-10
        elapsed = time.time() - t0
        assert elapsed < 5.0
        report_line(
            1,
            True,
            f"worked example end-to-end: s=2 d=1 gens ok, charts u^2/v^2 certified, "
            f"21x21 frames angle<=1e-8, eigenvalue dev {worst:.2e}, {elapsed:.2f}s",
        )


# -- criterion 2: traceless fixture --------------------------------------


class TestAcceptance2Rellich:
    def test_criterion(self):
        fam = check_structure(
            MatrixFamily.from_strings(
                [["x", "y"], ["y", "-x"]], ["x", "y"], "symmetric", fibers=["X", "Y"]
            )
        )
        system = wedge_quadratics(fam)
        generic_rank(system)
        ideal = fitting_minors(system)
        u = fam.universe
        assert set(ideal.gens) == {parse_polynomial("x", u), parse_polynomial("y", u)}
        outcome = run_sequence(ideal.gens, fam.universe, [CenterSpec((), ("x", "y"))])
        assert outcome.verdict == "Resolved"
        assert all(leaf.status == "ResolvedCertified" for leaf in outcome.leaves())

        chart = outcome.root.find(("x",))
        section = plucker_section(chart, system, ideal)
        report = local_frame_and_eigenvalues(section, GridSpec((21, 21)))
        worst_eig = 0.0
        for comp in report.components:
            sign = None
            for k, pt in enumerate(report.points):
                uu, vv = float(pt[0]), float(pt[1])
                expected = uu * math.sqrt(1 + vv * vv)
                got = comp.eigenvalues[k]
                if abs(expected) > 1e-9 and sign is None:
                    sign = 1.0 if abs(got - expected) < abs(got + expected) else -1.0
                if sign is not None:
                    worst_eig = max(worst_eig, abs(got - sign * expected))
        assert worst_eig <= 1e-8

        # pre-blowup: direction-dependent eigenspace limits at the origin.
        # For this fixture the x-axis limit is e1 while the diagonal approach
        # gives the top eigenvector of [[1,1],[1,-1]], at exactly pi/8; the
        # diagonal and anti-diagonal approaches land pi/4 apart. The pi/4
        # angle for an x-axis-vs-diagonal pair is realized by the rank-one
        # worked example (limits e1 vs (1,1)/sqrt(2)); check both families
        # at their derived constants.
        radii = [2.0 ** -k for k in range(3, 9)]

        def m(x, y):
            return np.array([[x, y], [y, -x]])

        def top_limit(curve):
            # the last component in slot order: the top sample eigenvalue's
            (limits,) = limits_along([[pairs(spectral_sample(p).clusters) for p in curve]])
            return limits[-1][1]

        ax_top = top_limit([m(t, 0.0) for t in radii])
        dg_top = top_limit([m(t, t) for t in radii])
        anti_top = top_limit([m(t, -t) for t in radii])
        angle = subspace_angle(ax_top, dg_top)
        assert abs(angle - math.pi / 8) <= 1e-9
        angle_pair = subspace_angle(dg_top, anti_top)
        assert abs(angle_pair - math.pi / 4) <= 1e-9

        def mk(x, y):
            return np.array([[x * x, x * y], [x * y, y * y]])

        kupa_ax = top_limit([mk(t, 0.0) for t in radii])
        kupa_dg = top_limit([mk(t, t) for t in radii])
        kupa_angle = subspace_angle(kupa_ax, kupa_dg)
        assert abs(kupa_angle - math.pi / 4) <= 1e-9

        # post-blowup: unique limits at every exceptional grid point
        worst_unique = 0.0
        vs = GridSpec((21,)).axes()[0]
        for vv in vs:
            got = limit_uniqueness_check(section, {"u": Fraction(0), "v": vv})
            worst_unique = max(worst_unique, got)
        assert worst_unique <= 1e-6
        report_line(
            2,
            True,
            f"traceless fixture: gens {{x,y}}, resolved, eigenvalues +-u*sqrt(1+v^2) "
            f"dev {worst_eig:.2e}, pre-blowup angles pi/8 and pi/4 exact to "
            f"{max(abs(angle - math.pi/8), abs(angle_pair - math.pi/4), abs(kupa_angle - math.pi/4)):.2e}, "
            f"post-blowup uniqueness {worst_unique:.2e}",
        )


# -- criterion 3: rank identities over random families -------------------


class TestAcceptance3RankSuite:
    def test_criterion(self):
        t0 = time.time()
        rng = random.Random(31415)
        rank_failures = 0
        drop_failures = 0
        drop_checked = 0
        point_checks = 0
        for trial in range(100):
            n = (2, 2, 3, 3, 4)[trial % 5]
            nparams = rng.randint(1, 3)
            fam, star = random_symmetric_family(rng, n, nparams)
            system = wedge_quadratics(fam)
            d = generic_rank(system, seed=rng.randint(0, 10**6))
            names = fam.universe.params
            scale_pts = [random_point(rng, names) for _ in range(50)]
            generic_clusters = 0
            data = []
            for pt in scale_pts:
                r = rank_at(system, pt)
                mat = exact_matrix_as_float(fam, pt)
                sample = spectral_sample(mat, tol=1e-6)
                data.append((pt, r, sample.multiplicities))
                generic_clusters = max(generic_clusters, len(sample.multiplicities))
            for pt, r, mults in data:
                point_checks += 1
                if expected_quadratic_dim(mults) != r:
                    rank_failures += 1
                if len(mults) == generic_clusters and r != d:
                    rank_failures += 1
            # planted or structural degeneracies: rank must drop below d
            candidates = []
            if star is not None:
                candidates.append(star)
            origin = {name: Fraction(0) for name in names}
            mat0 = exact_matrix_as_float(fam, origin)
            s0 = spectral_sample(mat0, tol=1e-6)
            if len(s0.multiplicities) < generic_clusters:
                candidates.append(origin)
            for pt in candidates:
                mat = exact_matrix_as_float(fam, pt)
                sample = spectral_sample(mat, tol=1e-6)
                if len(sample.multiplicities) >= generic_clusters:
                    continue  # collision cancelled by another block, not degenerate
                drop_checked += 1
                if rank_at(system, pt) >= d and d > 0:
                    drop_failures += 1
        elapsed = time.time() - t0
        ok = rank_failures == 0 and drop_failures == 0 and elapsed < 60.0
        report_line(
            3,
            ok,
            f"rank suite: {point_checks} point checks, 0 expected; "
            f"failures rank={rank_failures} drop={drop_failures} "
            f"(drop points checked: {drop_checked}), {elapsed:.1f}s < 60s",
        )


# -- criterion 4: jacobian rank at eigenvectors --------------------------


class TestAcceptance4JacobianSuite:
    def test_criterion(self):
        rng = random.Random(2718)
        failures = 0
        pairs = 0
        while pairs < 100:
            n = rng.choice([2, 3, 4])
            fam, _ = random_symmetric_family(rng, n, rng.randint(1, 3))
            system = wedge_quadratics(fam)
            names = fam.universe.params
            pt = random_point(rng, names, lo=-6, hi=6, den=4)
            mat = exact_matrix_as_float(fam, pt)
            sample = spectral_sample(mat, tol=1e-6)
            scale = 1.0 + float(np.abs(sample.eigenvalues).max())
            gaps = np.diff(np.sort(sample.eigenvalues))
            if gaps.size and gaps.min() < 1e-4 * scale and len(sample.clusters) > 1:
                continue  # too close to a crossing for a clean numeric rank
            fpt = {k: float(v) for k, v in pt.items()}
            for cluster in sample.clusters:
                for k in range(cluster.multiplicity):
                    if pairs >= 100:
                        break
                    w = cluster.basis[:, k]
                    rank = jacobian_rank_at(system, fpt, w)
                    if rank != n - cluster.multiplicity:
                        failures += 1
                    pairs += 1
        report_line(4, failures == 0, f"jacobian suite: {pairs} eigenpairs, {failures} failures")


# -- criterion 5: real normal families -----------------------------------


def random_normal_family(rng, n):
    names = ("x", "y")[: rng.randint(1, 2)]
    universe = VarUniverse(tuple(names), tuple(f"V{k+1}" for k in range(n)))

    def poly():
        return parse_polynomial(_rand_poly_text(rng, names, rng.randint(1, 2), rng.randint(1, 2)), universe)

    zero = Polynomial.zero(universe)
    entries = [[zero for _ in range(n)] for _ in range(n)]
    pure_skew = rng.random() < 0.4
    for b in range(n // 2):
        i = 2 * b
        a_poly = zero if pure_skew else poly()
        b_poly = poly()
        entries[i][i] = a_poly
        entries[i + 1][i + 1] = a_poly
        entries[i][i + 1] = b_poly
        entries[i + 1][i] = -b_poly
    q = _reflection(n, 0, n - 1, 1, rng.randint(1, 2))
    rotated = [[zero for _ in range(n)] for _ in range(n)]
    for r in range(n):
        for c in range(n):
            total = zero
            for a in range(n):
                for bb in range(n):
                    coeff = q[r][a] * q[c][bb]
                    if coeff and not entries[a][bb].is_zero():
                        total = total + entries[a][bb].scale(coeff)
            rotated[r][c] = total
    fam = MatrixFamily(n, universe, rotated, "normal")
    return check_structure(fam)


class TestAcceptance5RealNormalSuite:
    def test_criterion(self):
        rng = random.Random(1618)
        worst_pairing = 0.0
        worst_arcp = 0.0
        worst_eig = 0.0
        lemma_failures = 0
        eigenpairs = 0
        for trial in range(50):
            n = 2 if trial % 2 == 0 else 4
            fam = random_normal_family(rng, n)
            split = split_and_double(fam)
            names = fam.universe.params
            points = 0
            while points < 4:
                pt = {k: float(Fraction(rng.randint(-8, 8), rng.randint(1, 4))) for k in names}
                b2 = family_matrix(split.doubled, pt, 1)[0]
                sample = spectral_sample(b2, tol=1e-6)
                vals = np.sort(sample.eigenvalues)
                scale = 1.0 + float(np.abs(vals).max())
                a_vals = np.sort(spectral_sample(family_matrix(split.sym, pt, 1)[0]).eigenvalues)
                a_scale = 1.0 + float(np.abs(a_vals).max())
                gap_sets = [
                    (np.diff(vals), scale),
                    (np.diff(a_vals), a_scale),
                ]
                too_close = False
                for gaps, sc in gap_sets:
                    nonzero = [g for g in gaps if g > 1e-12 * sc]
                    if nonzero and min(nonzero) < 1e-4 * sc:
                        too_close = True
                if too_close:
                    continue  # nearly colliding distinct eigenvalues: resample
                points += 1
                # B2 spectrum symmetric about zero
                worst_pairing = max(
                    worst_pairing, float(np.max(np.abs(vals + vals[::-1]))) / scale
                )
                # squares match the spectrum of B B^T, doubled
                b = family_matrix(split.skew, pt, 1)[0]
                bbt = b @ b.T
                bbt_vals = np.sort(spectral_sample(bbt).eigenvalues)
                doubled = np.sort(np.concatenate([bbt_vals, bbt_vals]))
                worst_pairing = max(
                    worst_pairing,
                    float(np.max(np.abs(np.sort(vals**2) - doubled))) / (1.0 + doubled.max()),
                )
                l_mat = family_matrix(split.original, pt, 1)
                (dec,) = arcp_extract(l_mat)
                for plane in dec.planes:
                    worst_arcp = max(
                        worst_arcp, plane.similitude_residual, plane.invariance_residual
                    )
                worst_arcp = max(worst_arcp, dec.gram_residual)
                (oracle,) = complexified_eigenvalues(l_mat)
                worst_eig = max(worst_eig, _eig_match(dec.eigenvalues, oracle))
                for cluster in sample.clusters:
                    if cluster.value <= 1e-9 * scale:
                        continue
                    for k in range(cluster.multiplicity):
                        record = plane_invariant_checks(
                            split, pt, cluster.value, cluster.basis[:, k]
                        )
                        eigenpairs += 1
                        if not record.passes(1e-8):
                            lemma_failures += 1
        ok = (
            worst_pairing <= 1e-10
            and worst_arcp <= 1e-8
            and worst_eig <= 1e-8
            and lemma_failures == 0
        )
        report_line(
            5,
            ok,
            f"real normal suite: pairing {worst_pairing:.2e}<=1e-10, arcp {worst_arcp:.2e}<=1e-8, "
            f"eig match {worst_eig:.2e}<=1e-8, plane identities {eigenpairs} pairs "
            f"{lemma_failures} failures",
        )


def _eig_match(got, want):
    def expand(spec):
        out = []
        for a, b, mult in spec:
            if abs(b) <= 1e-9:
                out.extend([(a, 0.0)] * mult)
            else:
                out.extend([(a, abs(b))] * mult)
        return sorted(out)

    g, w = expand(got), expand(want)
    if len(g) != len(w):
        return float("inf")
    return max((max(abs(p[0] - q[0]), abs(p[1] - q[1])) for p, q in zip(g, w)), default=0.0)


# -- criterion 6: exactness, parser round-trip, determinism ---------------


class TestAcceptance6Exactness:
    def test_criterion(self, tmp_path):
        # gcd/weak-transform identities on every chart of every fixture
        identity_checks = 0
        for name in ("kupa", "rellich", "skew2", "diag3"):
            cfg = JobConfig.from_dict(dict(FIXTURES[name]))
            cfg = cfg.__class__(**{**cfg.__dict__, "grid_points": 3})
            from eigenbouquet.cli import RunState, stage_analyze, stage_resolve

            state = RunState(cfg)
            stage_analyze(state)
            stage_resolve(state)
            if state.outcome is None:
                continue
            stack = [state.outcome.root]
            while stack:
                node = stack.pop()
                stack.extend(node.children)
                for minor, weak in zip(node.pulled_minors, node.weak_gens):
                    assert node.local_generator * weak == minor
                    identity_checks += 1

        # parser round-trip on 1000 random polynomials
        rng = random.Random(4242)
        u = VarUniverse(("x", "y", "z"), ("V1", "V2"))
        from tests.test_algebra import rand_poly

        for k in range(1000):
            p = rand_poly(rng, u, max_deg=5, max_terms=6, gaussian=(k % 4 == 0))
            assert parse_polynomial(p.to_string(), u) == p

        # determinism of reports
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cmd_dispatch(["demo", "kupa", "--grid", "5", "--report", str(a)]) == 0
        assert cmd_dispatch(["demo", "kupa", "--grid", "5", "--report", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        report_line(
            6,
            True,
            f"exactness: {identity_checks} weak-transform identities, 1000 parser "
            "round-trips, byte-identical reports",
        )
