import math
import random
from fractions import Fraction

import numpy as np
import pytest

from eigenbouquet import cli, realnormal
from eigenbouquet.algebra import parse_polynomial
from eigenbouquet.family import MatrixFamily, check_structure, split_and_double
from eigenbouquet.frames import family_matrix
from eigenbouquet.realnormal import (
    DecompositionError,
    arcp_extract,
    complexified_eigenvalues,
    doubled_matrix,
)
from reference import (
    arcp_extract_per_point,
    arcp_over_grid_per_point,
    normal_spectrum_per_point,
    plane_invariant_checks,
    spectral_sample,
)


def reals(dec):
    """The (value, 0.0, multiplicity) of each real eigenspace: the
    eigenvalues before the planes'."""
    return dec.eigenvalues[: len(dec.eigenvalues) - len(dec.planes)]


def rotation_family():
    # [[x, y], [-y, x]]: similitude family, eigenvalues x +- i y
    return check_structure(
        MatrixFamily.from_strings([["x", "y"], ["-y", "x"]], ["x", "y"], "normal")
    )


def constant_skew(b0=2):
    return check_structure(
        MatrixFamily.from_strings(
            [["0", str(b0)], [str(-b0), "0"]], ["x"], "normal"
        )
    )


class TestSplitAndDouble:
    def test_constant_example(self):
        fam = check_structure(
            MatrixFamily.from_strings([["1", "2"], ["-2", "1"]], ["x"], "normal")
        )
        split = split_and_double(fam)
        u = fam.universe
        assert split.sym.entries[0][0] == parse_polynomial("1", u)
        assert split.sym.entries[0][1].is_zero()
        assert split.skew.entries[0][1] == parse_polynomial("2", u)
        assert split.skew.entries[1][0] == parse_polynomial("-2", u)

    def test_symmetric_input_zero_skew(self):
        fam = check_structure(
            MatrixFamily.from_strings([["x", "y"], ["y", "x"]], ["x", "y"], "normal")
        )
        split = split_and_double(fam)
        assert all(p.is_zero() for row in split.skew.entries for p in row)
        assert all(p.is_zero() for row in split.doubled.entries for p in row)

    def test_pure_skew_doubling(self):
        fam = check_structure(
            MatrixFamily.from_strings(
                [["0", "x^2 - 1"], ["1 - x^2", "0"]], ["x"], "normal"
            )
        )
        split = split_and_double(fam)
        assert all(p.is_zero() for row in split.sym.entries for p in row)
        d = split.doubled
        assert d.n == 4
        u = d.universe
        assert d.entries[0][3] == parse_polynomial("-(x^2 - 1)", u)
        assert d.entries[2][1] == parse_polynomial("x^2 - 1", u)
        # doubled operator is exactly symmetric by construction
        assert check_structure(d) is d

    def test_recomposition_identity(self):
        split = split_and_double(rotation_family())
        for r in range(2):
            for c in range(2):
                total = split.sym.entries[r][c] + split.skew.entries[r][c]
                assert total == split.original.entries[r][c]

    def test_halves_of_random_families_pass_the_structure_check(self):
        # each half and the doubling is checked as it is built; a fresh check
        # of each confirms that they hold by construction
        rng = random.Random(22)
        for _ in range(10):
            n = rng.choice([2, 3, 4])
            for fam in (random_normal_family(rng, n), random_block_family(rng, n), random_skew_family(rng, n)):
                split = split_and_double(fam)
                for half, structure in ((split.sym, "symmetric"), (split.skew, "skew"), (split.doubled, "symmetric")):
                    assert half.structure == structure
                    assert check_structure(half) is half


def random_normal_family(rng, n):
    """a * Id + B with B a random polynomial skew matrix: always normal."""
    diag = random_poly(rng)
    rows = [["0"] * n for _ in range(n)]
    for r in range(n):
        rows[r][r] = diag
        for c in range(r + 1, n):
            entry = random_poly(rng) if rng.random() < 0.8 else "0"
            rows[r][c], rows[c][r] = entry, f"-({entry})"
    return check_structure(MatrixFamily.from_strings(rows, ["x", "y"], "normal"))


def random_poly(rng):
    monos = ["1", "x", "y", "x*y", "x^2"]
    picks = rng.sample(monos, k=rng.randint(1, 3))
    return " + ".join(f"({rng.randint(-4, 4)})*{m}" for m in picks)


def random_block_family(rng, n):
    """Similitude blocks [[p, q], [-q, p]], a 1 x 1 block [p] for odd n,
    rows and columns permuted alike: normal, its symmetric half p on each
    block, each block's p its own."""
    blocks = [["0"] * n for _ in range(n)]
    for k in range(0, n - 1, 2):
        p, q = random_poly(rng), random_poly(rng)
        blocks[k][k] = blocks[k + 1][k + 1] = p
        blocks[k][k + 1], blocks[k + 1][k] = q, f"-({q})"
    if n % 2:
        blocks[n - 1][n - 1] = random_poly(rng)
    perm = rng.sample(range(n), n)
    rows = [[blocks[perm[r]][perm[c]] for c in range(n)] for r in range(n)]
    return check_structure(MatrixFamily.from_strings(rows, ["x", "y"], "normal"))


def random_skew_family(rng, n):
    rows = [["0"] * n for _ in range(n)]
    for r in range(n):
        for c in range(r + 1, n):
            entry = random_poly(rng)
            rows[r][c], rows[c][r] = entry, f"-({entry})"
    return check_structure(MatrixFamily.from_strings(rows, ["x", "y"], "skew"))


class TestDoubledMatrix:
    def test_assembled_equals_evaluated_doubled_family(self):
        rng = random.Random(2024)
        for _ in range(12):
            split = split_and_double(random_normal_family(rng, rng.choice([2, 3, 4])))
            rational = {n: Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for n in "xy"}
            real = {n: rng.uniform(-2, 2) for n in "xy"}
            for pt in (rational, real, {"x": 0.0, "y": 0.0}):
                got = doubled_matrix(family_matrix(split.skew, pt, 1))
                want = family_matrix(split.doubled, pt, 1)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))


class TestDoubledEigenstructure:
    def test_spectrum_symmetric_about_zero(self):
        split = split_and_double(rotation_family())
        rng = random.Random(3)
        for _ in range(20):
            pt = {"x": rng.uniform(-2, 2), "y": rng.uniform(-2, 2)}
            vals = np.sort(spectral_sample(family_matrix(split.doubled, pt, 1)[0]).eigenvalues)
            paired = vals + vals[::-1]
            assert np.max(np.abs(paired)) <= 1e-10 * (1 + np.abs(vals).max())

    def test_squares_match_bbt(self):
        split = split_and_double(rotation_family())
        pt = {"x": 0.4, "y": -1.2}
        b2_vals = spectral_sample(family_matrix(split.doubled, pt, 1)[0]).eigenvalues
        b = family_matrix(split.skew, pt, 1)[0]
        bbt_vals = spectral_sample(b @ b.T).eigenvalues
        doubled = np.sort(np.concatenate([bbt_vals, bbt_vals]))
        assert np.allclose(np.sort(b2_vals**2), doubled, atol=1e-8)


class TestArcpExtract:
    def test_constant_skew_single_plane(self):
        split = split_and_double(constant_skew(2))
        (dec,) = arcp_extract(family_matrix(split.original, {"x": 0.3}, 1))
        assert len(dec.planes) == 1 and not reals(dec)
        plane = dec.planes[0]
        assert abs(plane.a - 0.0) < 1e-10
        assert abs(plane.b - 2.0) < 1e-10
        assert plane.similitude_residual <= 1e-10
        assert dec.gram_residual <= 1e-10

    def test_rotation_family_plane(self):
        split = split_and_double(rotation_family())
        (dec,) = arcp_extract(family_matrix(split.original, {"x": 0.7, "y": 1.1}, 1))
        assert len(dec.planes) == 1
        plane = dec.planes[0]
        assert abs(plane.a - 0.7) < 1e-9
        assert abs(plane.b - 1.1) < 1e-9

    def test_symmetric_input_pure_eigenspaces(self):
        fam = check_structure(
            MatrixFamily.from_strings([["x", "y"], ["y", "x"]], ["x", "y"], "normal")
        )
        split = split_and_double(fam)
        (dec,) = arcp_extract(family_matrix(split.original, {"x": 1.0, "y": 0.5}, 1))
        assert not dec.planes
        values = sorted(a for a, _, _ in reals(dec))
        assert np.allclose(values, [0.5, 1.5], atol=1e-10)

    def test_block_fourdim_two_planes(self):
        fam = check_structure(
            MatrixFamily.from_strings(
                [
                    ["x", "y", "0", "0"],
                    ["-y", "x", "0", "0"],
                    ["0", "0", "2*x", "x*y"],
                    ["0", "0", "-x*y", "2*x"],
                ],
                ["x", "y"],
                "normal",
            )
        )
        split = split_and_double(fam)
        (dec,) = arcp_extract(family_matrix(split.original, {"x": 0.9, "y": 0.6}, 1))
        assert len(dec.planes) == 2
        got = sorted((round(p.a, 8), round(abs(p.b), 8)) for p in dec.planes)
        assert got == [(0.9, 0.6), (1.8, 0.54)]
        for p in dec.planes:
            assert p.similitude_residual <= 1e-9
            assert p.invariance_residual <= 1e-9

    def test_matches_complexified_oracle(self):
        split = split_and_double(rotation_family())
        rng = random.Random(17)
        for _ in range(10):
            pt = {"x": rng.uniform(0.3, 2), "y": rng.uniform(0.3, 2)}
            l_mat = family_matrix(split.original, pt, 1)
            (dec,) = arcp_extract(l_mat)
            (oracle,) = complexified_eigenvalues(l_mat)
            got = sorted((round(a, 8), round(b, 8)) for a, b, _ in dec.eigenvalues)
            want = sorted((round(a, 8), round(b, 8)) for a, b, _ in oracle)
            assert got == want


class TestPlaneChecks:
    def test_constant_skew_eigenpair(self):
        split = split_and_double(constant_skew(2))
        # B e2 = 2 e1 and B e1 = -2 e2, so (e2 + e1-part) pairs as u = e2, v = e1
        f = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2)
        b2 = family_matrix(split.doubled, {"x": 0.0}, 1)[0]
        assert np.allclose(b2 @ f, 2.0 * f)
        record = plane_invariant_checks(split, {"x": 0.0}, 2.0, f)
        assert record.passes(1e-12)

    def test_swapped_pair_negative_eigenvalue(self):
        split = split_and_double(constant_skew(2))
        f = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)  # u = e1, v = e2
        b2 = family_matrix(split.doubled, {"x": 0.0}, 1)[0]
        assert np.allclose(b2 @ f, -2.0 * f)
        record = plane_invariant_checks(split, {"x": 0.0}, -2.0, f)
        assert record.passes(1e-12)

    def test_zero_eigenvalue_rejected(self):
        split = split_and_double(constant_skew(2))
        with pytest.raises(ValueError):
            plane_invariant_checks(split, {"x": 0.0}, 0.0, np.ones(4) / 2.0)


# -- the stacked plane check against the frozen per-point one ---------------


def assert_same_decomposition(got, want):
    """Bit for bit: planes, the assembled frame (the real spaces' bases, then
    each plane's u and v), residuals and eigenvalues (with the real spaces'
    values and multiplicities)."""
    assert len(got.planes) == len(want.planes)
    for p, q in zip(got.planes, want.planes):
        assert (p.a, p.b) == (q.a, q.b)
        assert (p.similitude_residual, p.invariance_residual) == (
            q.similitude_residual,
            q.invariance_residual,
        )
        assert p.u.tobytes() == q.u.tobytes() and p.v.tobytes() == q.v.tobytes()
    assert got.frame.dtype == want.frame.dtype and got.frame.shape == want.frame.shape
    assert got.frame.tobytes() == want.frame.tobytes()
    assert got.gram_residual == want.gram_residual
    assert got.eigenvalues == want.eigenvalues


def seeded_real_normal(rng, n, kind):
    """Q M Q^T for a random orthogonal Q, M block diagonal: "symmetric" has
    B = 0 (values may repeat), "planes" only similitude blocks (two equal
    ones when repeat), "mixed" planes beside distinct real values."""
    model = np.zeros((n, n))

    def pick():  # values repeat across and within members
        return float(rng.choice([-1.5, -0.5, 0.25, 1.0, rng.normal()]))

    if kind == "symmetric":
        model[np.arange(n), np.arange(n)] = [pick() for _ in range(n)]
    else:
        planes = n // 2 if kind.startswith("planes") else max(1, (n - 1) // 2)
        a, b = pick(), float(rng.uniform(0.3, 2.0))
        for k in range(planes):
            if k and kind != "planes_repeated":
                a, b = a + float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.3, 2.0))
            model[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[a, b], [-b, a]]
        reals = np.cumsum(rng.uniform(0.5, 1.5, size=n - 2 * planes)) - 1.0
        model[np.arange(2 * planes, n), np.arange(2 * planes, n)] = reals
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    return q @ model @ q.T


def as_family_output(matrices):
    """A stack laid out as family_matrix lays out its float matrices."""
    return np.array(matrices, dtype=complex).real


class TestStackedPlaneCheck:
    KINDS = {
        2: ["symmetric", "planes"],
        3: ["symmetric", "mixed"],
        4: ["symmetric", "planes", "planes_repeated", "mixed"],
    }

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_members_match_per_point_reference(self, n):
        rng = np.random.default_rng(40 + n)
        kinds = self.KINDS[n]
        members = [seeded_real_normal(rng, n, kinds[k % len(kinds)]) for k in range(24)]
        stack = as_family_output(members + [np.zeros((n, n))])
        decompositions = arcp_extract(stack)
        spectra = complexified_eigenvalues(stack)
        assert len(decompositions) == len(spectra) == len(stack)
        for l_mat, dec, spectrum in zip(stack, decompositions, spectra):
            assert_same_decomposition(dec, arcp_extract_per_point(l_mat))
            halves = (l_mat + l_mat.T) / 2, (l_mat - l_mat.T) / 2
            assert spectrum == normal_spectrum_per_point(*halves, 1e-6)
            # alone, a member is a stack of one
            assert_same_decomposition(arcp_extract(l_mat[None])[0], dec)
            assert complexified_eigenvalues(l_mat[None]) == [spectrum]
        # every kind made it into the stack
        counts = [(len(d.planes), len(reals(d))) for d in decompositions]
        assert (0, 1) in counts  # B = 0 with one value: the zero member
        if n > 2:
            assert any(len(d.planes) == 1 and len(reals(d)) == n - 2 for d in decompositions)
        if n == 4:  # two planes, repeated (one doubled cluster) and distinct
            pairs = [{(p.a, p.b) for p in d.planes} for d in decompositions if len(d.planes) == 2]
            assert {1, 2} <= {len(pair) for pair in pairs}

    @pytest.mark.parametrize(
        "config",
        [
            {"structure": "normal", "params": ["x", "y"], "matrix": [["x", "y"], ["-y", "x"]]},
            cli.FIXTURES["skew2"],
        ],
        ids=["normal_rotation", "skew2"],
    )
    def test_grid_matches_per_point_reference(self, config, monkeypatch):
        # the benchmark's 21-point grids, stacked against point by point
        calls, extracted = [], []
        real_grid, real_extract = realnormal.arcp_over_grid, realnormal.arcp_extract

        def recording_grid(*args):
            calls.append((args, real_grid(*args)))
            return calls[-1][1]

        def recording_extract(l_mats, cluster_tol=1e-6):
            extracted.append((l_mats, real_extract(l_mats, cluster_tol)))
            return extracted[-1][1]

        monkeypatch.setattr(realnormal, "arcp_over_grid", recording_grid)
        monkeypatch.setattr(realnormal, "arcp_extract", recording_extract)
        cfg = cli.JobConfig.from_dict({**config, "resolution": [], "grid": {"points_per_axis": 21}})
        code, _ = cli.run_job(cfg, ("analyze", "resolve", "frames"))
        assert code == cli.EXIT_PASS
        assert len(calls) == len(extracted) == 1  # one chart, one stack
        (args, report), (l_mats, decompositions) = calls[0], extracted[0]
        split, chart_path, base, *tols = args
        points = [{k: v[i].item() for k, v in base.items()} for i in range(len(l_mats))]
        assert report == arcp_over_grid_per_point(split, chart_path, points, *tols)
        assert len(l_mats) == len(base["x"]) == 21 ** len(config["params"])
        for l_mat, dec in zip(l_mats, decompositions):
            assert_same_decomposition(dec, arcp_extract_per_point(l_mat))

    def test_first_failing_member_is_named(self):
        # b = 1e-2 lies inside a cluster tolerance of 0.1: +b and -b merge
        # into one cluster at 0, which B B^T (b^2 = 1e-4) does not count as
        # kernel, so the plane is counted nowhere, as in the per-point reference
        small = np.array([[1.0, 1e-2], [-1e-2, 1.0]])
        message = "decomposition spans 0 of 2 dimensions"
        with pytest.raises(DecompositionError, match=message):
            arcp_extract_per_point(small, 0.1)
        rotation = np.array([[0.5, 1.0], [-1.0, 0.5]])
        stack = as_family_output([rotation, rotation, small, rotation, small])
        with pytest.raises(DecompositionError, match=message) as err:
            arcp_extract(stack, 0.1)
        assert err.value.member == 2

    @pytest.mark.parametrize("b", [1e-3, 3e-5, 1e-5, 1e-8, 0.0])
    def test_one_kernel_test_for_planes_and_real_spaces(self, b):
        # a plane whose b^2 is under B B^T's floor (b below about 3.2e-5) is
        # real, one above it a plane; never both
        l_mat = np.array([[1.0, b], [-b, 1.0]])
        for dec in (arcp_extract(l_mat[None])[0], arcp_extract(as_family_output([l_mat, l_mat]))[1]):
            assert sum(mult for _, _, mult in dec.eigenvalues) == dec.frame.shape[1] == 2
            assert len(dec.planes) == (1 if b**2 > 1e-9 else 0)

    def test_grid_error_names_the_base_point(self, monkeypatch):
        real_extract = realnormal.arcp_extract

        def one_small_plane(l_mats, cluster_tol=1e-6):
            l_mats = np.array(l_mats)
            l_mats[3] = [[1.0, 1e-2], [-1e-2, 1.0]]
            return real_extract(l_mats, cluster_tol)

        monkeypatch.setattr(realnormal, "arcp_extract", one_small_plane)
        split = split_and_double(rotation_family())
        base = {"x": 0.25 * np.arange(6), "y": np.ones(6)}
        message = r"spans 0 of 2 dimensions at \{'x': 0\.75, 'y': 1\.0\}$"
        with pytest.raises(DecompositionError, match=message):
            realnormal.arcp_over_grid(split, (), base, 0.1, 1e-8)
