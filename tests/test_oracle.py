import math
import random

import numpy as np
import pytest

from eigenbouquet import oracle
from eigenbouquet.oracle import (
    ExtrapolationError,
    cluster_frames,
    eigh_jacobi,
    embed_hermitian,
    normal_spectrum,
    JacobiNonConvergence,
    polar_factor,
    principal_angles,
    richardson_limit,
    slot_patterns,
)
import reference
from reference import (
    ClusteredSample,
    eigh_jacobi_per_matrix,
    extrapolate_along_curve_per_curve,
    limits_along,
    nearest_subspace,
    pairs,
    procrustes_align_per_pair,
    spectral_sample,
    subspace_angle,
)


def random_symmetric(rng, n):
    m = np.array([[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)])
    return 0.5 * (m + m.T)


class TestJacobi:
    def test_diagonal_fixed_point(self):
        s = eigh_jacobi(np.diag([1.0, 2.0, 3.0])[None])
        assert np.allclose(s.eigenvalues[0], [1, 2, 3])
        assert np.allclose(np.abs(s.vectors[0]), np.eye(3))

    def test_worked_example_point(self):
        # M(1,2) for the rank-one family [[x^2, xy], [xy, y^2]]
        s = eigh_jacobi(np.array([[[1.0, 2.0], [2.0, 4.0]]]))
        assert np.allclose(s.eigenvalues[0], [0.0, 5.0], atol=1e-12)

    def test_classic_offdiagonal(self):
        s = eigh_jacobi(np.array([[[0.0, 1.0], [1.0, 0.0]]]))
        assert np.allclose(s.eigenvalues[0], [-1.0, 1.0])
        for k, sign in ((0, -1), (1, 1)):
            v = s.vectors[0, :, k]
            assert abs(abs(v @ np.array([1, sign]) / math.sqrt(2)) - 1) < 1e-12

    def test_reconstruction_and_orthogonality_random(self):
        rng = random.Random(101)
        worst_recon = 0.0
        worst_orth = 0.0
        for _ in range(1000):
            n = rng.randint(1, 8)
            m = random_symmetric(rng, n)
            s = eigh_jacobi(m[None])
            q, lam = s.vectors[0], s.eigenvalues[0]
            scale = max(1e-30, float(np.linalg.norm(m)))
            worst_recon = max(
                worst_recon, float(np.linalg.norm(q @ np.diag(lam) @ q.T - m)) / scale
            )
            worst_orth = max(worst_orth, float(np.linalg.norm(q.T @ q - np.eye(n))))
        assert worst_recon <= 1e-10
        assert worst_orth <= 1e-11

    def test_agrees_with_numpy(self):
        rng = random.Random(102)
        for _ in range(50):
            m = random_symmetric(rng, rng.randint(2, 6))
            ours = eigh_jacobi(m[None]).eigenvalues[0]
            ref = np.linalg.eigvalsh(m)
            assert np.allclose(ours, ref, atol=1e-10 * (1 + np.abs(ref).max()))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eigh_jacobi(np.array([[[0.0, 1.0], [0.0, 0.0]]]))
        with pytest.raises(ValueError, match="stack"):  # one matrix is a stack of one
            eigh_jacobi(np.eye(2))


def symmetric_stack(rng, n, count):
    """Seeded symmetric matrices of each kind the frames meet: generic,
    diagonal, zero, with repeated eigenvalues, small integers."""
    out = []
    for k in range(count):
        kind = k % 5
        if kind == 0:
            m = rng.standard_normal((n, n))
        elif kind == 1:
            m = np.diag(rng.standard_normal(n))
        elif kind == 2:
            m = np.zeros((n, n))
        elif kind == 3:
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            m = q @ np.diag(np.repeat(rng.standard_normal((n + 1) // 2), 2)[:n]) @ q.T
        else:
            m = rng.integers(-2, 3, (n, n)).astype(float)
        out.append(0.5 * (m + m.T))
    return np.array(out)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStackedJacobi:
    """The lockstep solver gives every member exactly what the per-matrix
    solver it replaced gives that matrix alone."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_per_matrix_solver_bit_for_bit(self, n):
        stack = symmetric_stack(np.random.default_rng(n), n, 60)
        got = eigh_jacobi(stack)
        for k, matrix in enumerate(stack):
            want = eigh_jacobi_per_matrix(matrix)
            alone = eigh_jacobi(matrix[None])  # a stack of one
            assert same_bits(alone.eigenvalues[0], want.eigenvalues)
            assert same_bits(alone.vectors[0], want.vectors)
            assert same_bits(got.eigenvalues[k], want.eigenvalues)
            assert same_bits(got.vectors[k], want.vectors)

    def test_member_does_not_depend_on_its_stack(self):
        rng = np.random.default_rng(11)
        stack = symmetric_stack(rng, 4, 40)
        full = eigh_jacobi(stack)
        order = rng.permutation(len(stack))
        for members in (order, order[:7], order[-1:]):
            part = eigh_jacobi(stack[members])
            for j, k in enumerate(members):
                assert same_bits(part.eigenvalues[j], full.eigenvalues[k])
                assert same_bits(part.vectors[j], full.vectors[k])

    def test_eigenvalues_match_lapack(self):
        for n in range(1, 7):
            stack = symmetric_stack(np.random.default_rng(100 + n), n, 50)
            ours = eigh_jacobi(stack).eigenvalues
            scale = np.linalg.norm(stack, axis=(1, 2))[:, None]
            assert np.all(np.abs(ours - np.linalg.eigvalsh(stack)) <= 1e-12 * scale)

    def test_clusters_match_single_matrix_clusters(self):
        rng = np.random.default_rng(5)
        stack = list(symmetric_stack(rng, 4, 25))
        for spectrum in ([1.0, 1.0, 2.0, 3.0], [-1.0, 0.5, 0.5, 0.5], [2.0, 2.0, 2.0, 2.0], [0.0, 0.0, 4.0, 4.0]):
            q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
            stack.insert(int(rng.integers(len(stack))), q @ np.diag(spectrum) @ q.T)
        frames, values, slots = cluster_frames(*eigh_jacobi(np.array(stack)), 1e-6)
        patterns = slot_patterns(slots, len(stack))
        assert {len(p) for p in patterns} == {1, 2, 3, 4}
        for i, matrix in enumerate(stack):
            alone = spectral_sample(matrix, 1e-6)
            bounds = np.cumsum((0,) + alone.multiplicities).tolist()
            assert patterns[i] == alone.multiplicities
            assert [(a, b) for members, a, b in slots if i in members] == list(zip(bounds, bounds[1:]))
            for a, b, cluster in zip(bounds, bounds[1:], alone.clusters):
                assert values[i, a:b].tolist() == [cluster.value] * (b - a)
                assert same_bits(frames[i][:, a:b], cluster.basis)

    def test_nonconverging_member_is_named(self, monkeypatch):
        monkeypatch.setattr(oracle, "JACOBI_SWEEP_CAP", 1)
        stack = np.array([np.diag([1.0, 2.0]), [[1.0, 2.0], [2.0, -3.0]], np.zeros((2, 2))])
        with pytest.raises(JacobiNonConvergence) as caught:
            eigh_jacobi(stack)
        assert caught.value.member == 1
        assert str(caught.value) == "no convergence after 1 sweeps"


class TestClustering:
    def test_two_separated(self):
        s = spectral_sample(np.array([[1.0, 2.0], [2.0, 4.0]]), tol=1e-6)
        assert s.multiplicities == (1, 1)

    def test_triple(self):
        s = spectral_sample(np.diag([3.0, 3.0, 3.0]))
        assert s.multiplicities == (3,)
        assert s.clusters[0].basis.shape == (3, 3)

    def test_gap_rule(self):
        s = spectral_sample(np.diag([0.0, 1e-9, 5.0]), tol=1e-6)
        assert s.multiplicities == (2, 1)


class TestPrincipalAngles:
    def test_same_line(self):
        e1 = np.array([[1.0], [0.0]])
        assert principal_angles(e1[None], e1[None]).tolist() == [[0.0]]

    def test_diagonal_line(self):
        e1 = np.array([[1.0], [0.0]])
        diag = np.array([[1.0], [1.0]]) / math.sqrt(2)
        ((angle,),) = principal_angles(e1[None], diag[None])
        assert abs(angle - math.pi / 4) < 1e-12

    def test_shared_and_orthogonal(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        b = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        (angles,) = principal_angles(a[None], b[None])
        assert abs(angles[0]) < 1e-9 and abs(angles[1] - math.pi / 2) < 1e-9

    def test_symmetry_and_zero_iff_equal(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = np.linalg.qr(rng.normal(size=(5, 2)))[0]
            b = np.linalg.qr(rng.normal(size=(5, 2)))[0]
            ab = principal_angles(a[None], b[None])
            ba = principal_angles(b[None], a[None])
            assert np.allclose(ab, ba, atol=1e-10)
        rot = np.linalg.qr(rng.normal(size=(2, 2)))[0]
        spun = a @ rot
        assert subspace_angle(a, spun) <= 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            principal_angles(np.zeros((1, 3, 0)), np.eye(3)[None])

    def test_stacks_give_each_pair_its_own_angles(self):
        rng = np.random.default_rng(9)
        for n, k in ((3, 1), (4, 2), (6, 3)):
            a = np.array([np.linalg.qr(rng.normal(size=(n, k)))[0] for _ in range(30)])
            b = np.array([np.linalg.qr(rng.normal(size=(n, k)))[0] for _ in range(30)])
            stacked = principal_angles(a, b)
            assert stacked.shape == (30, k)
            for i in range(30):
                assert stacked[i].tolist() == principal_angles(a[i][None], b[i][None])[0].tolist()

    def test_non_orthonormal_rejected_on_line_and_plane_paths(self):
        e = np.eye(4)
        line, plane = e[:, :1], e[:, 1:3]
        long_line = (1.0 + 1e-9) * line
        skewed_plane = np.column_stack([e[:, 1], e[:, 2] + 1e-9 * e[:, 1]])
        for a, b in (
            (long_line, plane),
            (line, skewed_plane),
            (skewed_plane, plane),
            (plane, skewed_plane),
        ):
            with pytest.raises(ValueError):
                principal_angles(a[None], b[None])

    def test_bases_of_the_whole_space_are_at_angle_zero(self):
        # the residual A - B B^T A is rounding noise when k = n; seed 170 made
        # one-sided Jacobi run out of sweeps on it
        pairs = []
        for seed in range(300):
            rng = np.random.default_rng(seed)
            a, b = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2))
            assert principal_angles(a[None], b[None]).max() <= 1e-12
            pairs.append((a, b))
        stacked = principal_angles(*map(np.array, zip(*pairs)))
        assert stacked.shape == (300, 3) and float(stacked.max()) <= 1e-12
        # a line against the whole space, both ways round
        line, whole = pairs[170][0][None, :, :1], pairs[170][1][None]
        assert principal_angles(line, whole).tolist() == principal_angles(whole, line).tolist() == [[0.0]]


def align(bases, refs):
    """Each basis of a stack turned by the polar factor of its cross product
    with its reference, as the curve chains are aligned, and the flags."""
    turn, degenerate = polar_factor(np.swapaxes(bases, 1, 2) @ refs)
    return bases * turn if bases.shape[2] == 1 else bases @ turn, degenerate


class TestProcrustesStacks:
    """polar_factor is the one alignment kernel: each member of a stack is
    aligned as the per-pair Procrustes reference aligns it alone."""

    def pairs(self, seed, n, k, count):
        rng = np.random.default_rng(seed)
        bases = [np.linalg.qr(rng.normal(size=(n, k)))[0] for _ in range(count)]
        # references near each basis, as consecutive grid frames are
        refs = [np.linalg.qr(b + 0.3 * rng.normal(size=(n, k)))[0] for b in bases]
        return np.array(bases), np.array(refs)

    @pytest.mark.parametrize("n, k", [(3, 1), (4, 2), (5, 3)])
    def test_members_match_single_calls_and_the_per_pair_reference(self, n, k):
        bases, refs = self.pairs(31 + n, n, k, 40)
        aligned, degenerate = align(bases, refs)
        assert aligned.shape == bases.shape and not degenerate.any()
        for basis, ref, got in zip(bases, refs, aligned):
            alone, flag = align(basis[None], ref[None])  # a pair is a stack of one
            assert not flag[0] and alone[0].tobytes() == got.tobytes()
            assert procrustes_align_per_pair(basis, ref).tobytes() == got.tobytes()

    def test_members_do_not_depend_on_their_stack(self):
        bases, refs = self.pairs(7, 4, 2, 30)
        whole, _ = align(bases, refs)
        rng = np.random.default_rng(8)
        for members in (rng.permutation(30), np.arange(5, 17), np.array([29, 0, 3])):
            part, _ = align(bases[members], refs[members])
            for got, k in zip(part, members):
                assert got.tobytes() == whole[k].tobytes()

    @pytest.mark.parametrize("k", [1, 2])
    def test_a_degenerate_member_is_flagged_and_spares_the_others(self, k):
        bases, refs = self.pairs(12, 4, k, 6)
        e = np.eye(4)
        bases[2], refs[2] = e[:, :k], e[:, 2 : 2 + k]  # orthogonal subspaces
        aligned, degenerate = align(bases, refs)
        if k == 1:  # a line never degenerates: it keeps or flips its sign
            assert not degenerate.any()
            return
        assert degenerate.tolist() == [False, False, True, False, False, False]
        for i in (0, 1, 3, 4, 5):
            assert aligned[i].tobytes() == procrustes_align_per_pair(bases[i], refs[i]).tobytes()
        _, flag = align(bases[2:3], refs[2:3])
        assert flag.tolist() == [True]
        with pytest.raises(ExtrapolationError, match="degenerate alignment"):
            procrustes_align_per_pair(bases[2], refs[2])


class TestNearestSubspace:
    E = np.eye(3)

    def line(self, *coords):
        v = np.array(coords, dtype=float)[:, None]
        return 0.0, v / np.linalg.norm(v)

    @staticmethod
    def nearest(basis, candidates, skip=()):
        """nearest_subspace among hand-built (value, basis) candidates, laid
        out side by side in one frame."""
        frames, _, slots = reference.clustered([candidates])
        return nearest_subspace(basis, frames[0], slot_patterns(slots, 1)[0], skip)

    def test_only_matching_dimension_competes(self):
        plane = (0.0, self.E[:, [0, 1]])
        k, angle, runner_up = self.nearest(self.E[:, [0]], [plane, self.line(0, 1, 1), self.line(0, 0, 1)])
        # the plane contains e1 but has the wrong dimension
        assert k == 1
        assert abs(angle - math.pi / 2) < 1e-12
        assert abs(runner_up - math.pi / 2) < 1e-12
        assert self.nearest(self.E[:, [0, 2]], [self.line(1, 0, 0)]) == (None, None, None)

    def test_runner_up_is_second_smallest(self):
        cands = [self.line(1, 1, 0), self.line(1, 0, 0), self.line(1, 0, 1), self.line(0, 1, 0)]
        k, angle, runner_up = self.nearest(self.E[:, [0]], cands)
        assert k == 1 and angle < 1e-12
        assert abs(runner_up - math.pi / 4) < 1e-12
        k, angle, runner_up = self.nearest(self.E[:, [0]], cands[1:2])
        assert (k, runner_up) == (0, None)

    def test_skip(self):
        cands = [self.line(1, 0, 0), self.line(2, 1, 0), self.line(0, 0, 1)]
        k, angle, runner_up = self.nearest(self.E[:, [0]], cands, skip={0})
        assert k == 1
        assert abs(angle - math.atan(0.5)) < 1e-12
        assert abs(runner_up - math.pi / 2) < 1e-12

    def test_tie_keeps_first_index(self):
        cands = [self.line(0, 0, 1), self.line(1, 1, 0), self.line(1, -1, 0)]
        k, angle, runner_up = self.nearest(self.E[:, [0]], cands)
        assert k == 1
        assert angle == runner_up


class TestHermitianEmbedding:
    def test_eigenvalues_doubled(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = 0.5 * (h + h.conj().T)
            emb = embed_hermitian(h[None])
            ours = eigh_jacobi(emb).eigenvalues[0]
            ref = np.repeat(np.sort(np.linalg.eigvalsh(h)), 2)
            assert np.allclose(np.sort(ours), ref, atol=1e-10 * (1 + np.abs(ref).max()))


RADII = [2.0 ** -k for k in range(3, 9)]


def curve(matrix_fn, radii=RADII, tol=1e-6):
    """The (value, basis) clusters of one curve's samples, from the largest
    radius down."""
    return [pairs(spectral_sample(matrix_fn(t), tol).clusters) for t in radii]


def limits_of(samples):
    """extrapolate_along_curve on one curve: its limits, or its error."""
    (got,) = limits_along([samples])
    return got


class TestExtrapolation:
    def test_axis_curve(self):
        # rank-one family along (t, 0): matrix diag(t^2, 0), constant eigenvectors
        limits = limits_of(curve(lambda t: np.diag([t * t, 0.0])))
        bases = sorted((b for _, b in limits), key=lambda b: abs(float(b[0, 0])))
        assert abs(abs(float(bases[1][0, 0]))) > 1 - 1e-9  # e1 up to sign
        assert abs(abs(float(bases[0][1, 0]))) > 1 - 1e-9  # e2 up to sign

    def test_diagonal_curve(self):
        limits = limits_of(curve(lambda t: t * t * np.array([[1.0, 1.0], [1.0, 1.0]])))
        diag = np.array([[1.0], [1.0]]) / math.sqrt(2)
        anti = np.array([[-1.0], [1.0]]) / math.sqrt(2)
        angles = sorted(
            min(subspace_angle(b, diag), subspace_angle(b, anti)) for _, b in limits
        )
        assert angles[-1] < 1e-9

    def test_constant_family(self):
        m = np.array([[2.0, 0.0], [0.0, 5.0]])
        samples = curve(lambda t: m)
        limits = limits_of(samples)
        # the chain is constant: the limit is the samples' basis itself
        for (mult, basis), (_, sampled) in zip(limits, samples[-1]):
            assert mult == 1 and float(np.abs(basis - sampled).max()) < 1e-12

    def test_too_few_radii(self):
        got = limits_of(curve(lambda t: np.diag([t, 1.0]), radii=[0.5, 0.25]))
        assert isinstance(got, ExtrapolationError) and str(got) == "need at least 4 radii"

    def test_richardson_accuracy(self):
        # f(t) = 1 + 3t + 2t^2 + t^3: order-2 extrapolation kills t and t^2
        vals = [np.array([1 + 3 * t + 2 * t * t + t ** 3]) for t in RADII]
        limit = richardson_limit(vals)
        assert abs(float(limit[0]) - 1.0) < 1e-6


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def turned(q, diagonal):
    """q diag(diagonal) q^T."""
    return q @ np.diag(diagonal) @ q.T


class TestBatchedChains:
    """extrapolate_along_curve runs the curves of a pattern as stacks: every
    curve gets, bit for bit, what the per-curve reference gives it alone, and
    a curve that fails gets the reference's error and leaves the others be."""

    def reference_of(self, curve):
        samples = [
            ClusteredSample(np.zeros(0), np.zeros(0), [reference.Cluster(v, b.shape[1], b) for v, b in sample])
            for sample in curve
        ]
        try:
            return extrapolate_along_curve_per_curve(samples)
        except ExtrapolationError as err:
            return err

    def assert_matches_reference(self, curves, got):
        assert len(got) == len(curves)
        for clusters, limits in zip(curves, got):
            want = self.reference_of(clusters)
            if isinstance(want, ExtrapolationError):
                assert isinstance(limits, ExtrapolationError) and str(limits) == str(want)
                continue
            assert [m for m, _ in limits] == [m for _, m, _, _ in want]
            for (_, basis), (_, _, expected, _) in zip(limits, want):
                assert same_bits(basis, expected)

    def healthy_curves(self, seed, count):
        """2x2 curves with a smooth eigenbasis and 3x3 ones with a plane."""
        rng = np.random.default_rng(seed)
        out = []
        for k in range(count):
            if k % 3 == 2:
                q = np.linalg.qr(rng.standard_normal((3, 3)))[0]  # a line below a plane
                out.append(curve(lambda t, q=q: turned(q, [1.0 + t, 3.0 + t * t, 3.0 + t * t])))
            else:
                a, b, w = rng.uniform(-2, 2), rng.uniform(0.5, 2), rng.uniform(-1, 1)
                out.append(curve(lambda t, a=a, b=b, w=w: turned(rotation(w * t), [a, a + b + t])))
        return out

    def test_members_match_the_per_curve_reference(self):
        curves = self.healthy_curves(3, 24)
        got = limits_along(curves)
        assert not any(isinstance(limits, ExtrapolationError) for limits in got)
        self.assert_matches_reference(curves, got)
        # and do not depend on their stack
        for members in ([5], [23, 0, 11, 2], list(range(1, 24, 2))):
            for k, limits in zip(members, limits_along([curves[k] for k in members])):
                for (m, basis), (m2, whole) in zip(limits, got[k]):
                    assert m == m2 and same_bits(basis, whole)

    def test_structure_change(self):
        curves = self.healthy_curves(4, 7)
        curves[3] = curve(lambda t: np.diag([1.0, 1.0 + (t > 0.01)]))  # one line pair, then a plane
        got = limits_along(curves)
        assert str(got[3]) == "cluster structure changes along the curve"
        self.assert_matches_reference(curves, got)

    def test_ambiguous_match(self):
        curves = self.healthy_curves(5, 7)
        # at the fifth radius the eigenbasis turns by 45 degrees: both
        # candidate lines are pi/4 away from the chain. Late in the chain, so
        # the samples Richardson reads of the curves after it would show a
        # stack compacted wrongly
        curves[3] = curve(lambda t: turned(rotation(math.pi / 4 * (t == RADII[4])), [1.0, 2.0 + t]))
        got = limits_along(curves)
        assert str(got[3]) == "ambiguous component matching along curve"
        self.assert_matches_reference(curves, got)

    def test_degenerate_alignment(self):
        curves = self.healthy_curves(6, 9)
        # the plane turns from span(e1, e2) to span(e1, e3) at the fifth
        # radius: the line has one candidate and follows, the plane's
        # Procrustes cross product has rank one
        swap = np.eye(3)[[0, 2, 1]]
        curves[5] = curve(lambda t: turned(swap if t == RADII[4] else np.eye(3), [3.0, 3.0, 1.0 + t]))
        got = limits_along(curves)
        assert str(got[5]) == "degenerate alignment (orthogonal subspaces)"
        self.assert_matches_reference(curves, got)


class TestNormalSpectrum:
    def test_rotation_scaling(self):
        # a = 3, b = 2 similitude on the plane
        sym = 3.0 * np.eye(2)
        skew = np.array([[0.0, 2.0], [-2.0, 0.0]])
        (spec,) = normal_spectrum(sym[None], skew[None])
        assert len(spec) == 1
        a, b, mult = spec[0]
        assert abs(a - 3) < 1e-12 and abs(b - 2) < 1e-12 and mult == 2

    def test_matches_numpy_complex_eigenvalues(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            sym = 0.5 * (a + a.T)
            # make a normal matrix: commuting symmetric and skew parts via
            # polynomials in one symmetric seed
            seed = 0.5 * (a + a.T)
            vals, vecs = np.linalg.eigh(seed)
            sym = vecs @ np.diag(vals) @ vecs.T
            skew_block = np.zeros((4, 4))
            b1, b2 = rng.normal(), rng.normal()
            skew_block[0, 1], skew_block[1, 0] = b1, -b1
            skew_block[2, 3], skew_block[3, 2] = b2, -b2
            # build commuting pair: conjugate a block-diagonal model
            model_sym = np.diag([vals[0], vals[0], vals[2], vals[2]])
            q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
            sym = q @ model_sym @ q.T
            skew = q @ skew_block @ q.T
            assert_matches_eigvals(sym, skew)

    def test_repeated_real_eigenvalue_in_kernel_of_skew(self):
        # A has the double eigenvalue 0.5 on ker B, where B B^T restricted to
        # that eigenspace is pure rounding noise, asymmetric at its own scale
        rng = np.random.default_rng(60)
        model = np.zeros((4, 4))
        model[0, 0] = model[1, 1] = 0.5
        model[2:, 2:] = [[0.3, 1.0], [-1.0, 0.3]]
        for _ in range(60):
            q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
            l_mat = q @ model @ q.T
            spec = assert_matches_eigvals((l_mat + l_mat.T) / 2, (l_mat - l_mat.T) / 2)
            assert [mult for _, _, mult in spec] == [2, 2]


def assert_matches_eigvals(sym, skew):
    """normal_spectrum(sym, skew), checked against numpy's eigenvalues of
    sym + skew."""
    (spec,) = normal_spectrum(sym[None], skew[None])
    recovered = []
    for aa, bb, mult in spec:
        if bb < 1e-10:
            recovered.extend([complex(aa, 0)] * mult)
        else:
            recovered.extend([complex(aa, bb), complex(aa, -bb)] * (mult // 2))
    recovered = sorted(recovered, key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    ref = sorted(np.linalg.eigvals(sym + skew), key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    assert np.allclose(recovered, ref, atol=1e-8)
    return spec
