import math
import random

import numpy as np
import pytest

from eigenbouquet.oracle import (
    Cluster,
    ExtrapolationError,
    cluster_and_multiplicities,
    eigh_jacobi,
    embed_hermitian,
    extrapolate_along_curve,
    nearest_subspace,
    normal_spectrum,
    principal_angles,
    richardson_limit,
    spectral_sample,
    subspace_angle,
)


def random_symmetric(rng, n):
    m = np.array([[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)])
    return 0.5 * (m + m.T)


class TestJacobi:
    def test_diagonal_fixed_point(self):
        s = eigh_jacobi(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(s.eigenvalues, [1, 2, 3])
        assert np.allclose(np.abs(s.vectors), np.eye(3))

    def test_worked_example_point(self):
        # M(1,2) for the rank-one family [[x^2, xy], [xy, y^2]]
        s = eigh_jacobi(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert np.allclose(s.eigenvalues, [0.0, 5.0], atol=1e-12)

    def test_classic_offdiagonal(self):
        s = eigh_jacobi(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(s.eigenvalues, [-1.0, 1.0])
        for k, sign in ((0, -1), (1, 1)):
            v = s.vectors[:, k]
            assert abs(abs(v @ np.array([1, sign]) / math.sqrt(2)) - 1) < 1e-12

    def test_reconstruction_and_orthogonality_random(self):
        rng = random.Random(101)
        worst_recon = 0.0
        worst_orth = 0.0
        for _ in range(1000):
            n = rng.randint(1, 8)
            m = random_symmetric(rng, n)
            s = eigh_jacobi(m)
            q, lam = s.vectors, s.eigenvalues
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
            ours = eigh_jacobi(m).eigenvalues
            ref = np.linalg.eigvalsh(m)
            assert np.allclose(ours, ref, atol=1e-10 * (1 + np.abs(ref).max()))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eigh_jacobi(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestClustering:
    def test_two_separated(self):
        s = spectral_sample(np.array([[1.0, 2.0], [2.0, 4.0]]), tol=1e-6)
        assert s.multiplicities == (1, 1)

    def test_triple(self):
        s = spectral_sample(np.diag([3.0, 3.0, 3.0]))
        assert s.multiplicities == (3,)
        assert s.clusters[0].basis.shape == (3, 3)

    def test_gap_rule(self):
        s = eigh_jacobi(np.diag([0.0, 1e-9, 5.0]))
        cluster_and_multiplicities(s, tol=1e-6)
        assert s.multiplicities == (2, 1)


class TestPrincipalAngles:
    def test_same_line(self):
        e1 = np.array([[1.0], [0.0]])
        assert principal_angles(e1, e1) == [0.0]

    def test_diagonal_line(self):
        e1 = np.array([[1.0], [0.0]])
        diag = np.array([[1.0], [1.0]]) / math.sqrt(2)
        (angle,) = principal_angles(e1, diag)
        assert abs(angle - math.pi / 4) < 1e-12

    def test_shared_and_orthogonal(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        b = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        angles = principal_angles(a, b)
        assert abs(angles[0]) < 1e-9 and abs(angles[1] - math.pi / 2) < 1e-9

    def test_symmetry_and_zero_iff_equal(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = np.linalg.qr(rng.normal(size=(5, 2)))[0]
            b = np.linalg.qr(rng.normal(size=(5, 2)))[0]
            ab = principal_angles(a, b)
            ba = principal_angles(b, a)
            assert np.allclose(ab, ba, atol=1e-10)
        rot = np.linalg.qr(rng.normal(size=(2, 2)))[0]
        spun = a @ rot
        assert subspace_angle(a, spun) <= 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            principal_angles(np.zeros((3, 0)), np.eye(3))

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
                principal_angles(a, b)


class TestNearestSubspace:
    E = np.eye(3)

    def line(self, *coords):
        v = np.array(coords, dtype=float)[:, None]
        return Cluster(0.0, 1, v / np.linalg.norm(v))

    def test_only_matching_dimension_competes(self):
        plane = Cluster(0.0, 2, self.E[:, [0, 1]])
        k, angle, runner_up = nearest_subspace(
            self.E[:, [0]], [plane, self.line(0, 1, 1), self.line(0, 0, 1)]
        )
        # the plane contains e1 but has the wrong dimension
        assert k == 1
        assert abs(angle - math.pi / 2) < 1e-12
        assert abs(runner_up - math.pi / 2) < 1e-12
        assert nearest_subspace(self.E[:, [0, 2]], [self.line(1, 0, 0)]) == (None, None, None)

    def test_runner_up_is_second_smallest(self):
        cands = [self.line(1, 1, 0), self.line(1, 0, 0), self.line(1, 0, 1), self.line(0, 1, 0)]
        k, angle, runner_up = nearest_subspace(self.E[:, [0]], cands)
        assert k == 1 and angle < 1e-12
        assert abs(runner_up - math.pi / 4) < 1e-12
        k, angle, runner_up = nearest_subspace(self.E[:, [0]], cands[1:2])
        assert (k, runner_up) == (0, None)

    def test_skip(self):
        cands = [self.line(1, 0, 0), self.line(2, 1, 0), self.line(0, 0, 1)]
        k, angle, runner_up = nearest_subspace(self.E[:, [0]], cands, skip={0})
        assert k == 1
        assert abs(angle - math.atan(0.5)) < 1e-12
        assert abs(runner_up - math.pi / 2) < 1e-12

    def test_tie_keeps_first_index(self):
        cands = [self.line(0, 0, 1), self.line(1, 1, 0), self.line(1, -1, 0)]
        k, angle, runner_up = nearest_subspace(self.E[:, [0]], cands)
        assert k == 1
        assert angle == runner_up


class TestHermitianEmbedding:
    def test_eigenvalues_doubled(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = 0.5 * (h + h.conj().T)
            emb = embed_hermitian(h)
            ours = eigh_jacobi(emb).eigenvalues
            ref = np.repeat(np.sort(np.linalg.eigvalsh(h)), 2)
            assert np.allclose(np.sort(ours), ref, atol=1e-10 * (1 + np.abs(ref).max()))


class TestExtrapolation:
    def curve_samples(self, matrix_fn, radii):
        return [spectral_sample(matrix_fn(t)) for t in radii]

    def test_axis_curve(self):
        # rank-one family along (t, 0): matrix diag(t^2, 0), constant eigenvectors
        radii = [2.0 ** -k for k in range(3, 9)]
        samples = self.curve_samples(lambda t: np.diag([t * t, 0.0]), radii)
        limits = extrapolate_along_curve(samples)
        bases = sorted((b for _, _, b, _ in limits), key=lambda b: abs(float(b[0, 0])))
        assert abs(abs(float(bases[1][0, 0]))) > 1 - 1e-9  # e1 up to sign
        assert abs(abs(float(bases[0][1, 0]))) > 1 - 1e-9  # e2 up to sign

    def test_diagonal_curve(self):
        radii = [2.0 ** -k for k in range(3, 9)]
        samples = self.curve_samples(
            lambda t: t * t * np.array([[1.0, 1.0], [1.0, 1.0]]), radii
        )
        limits = extrapolate_along_curve(samples)
        diag = np.array([[1.0], [1.0]]) / math.sqrt(2)
        anti = np.array([[-1.0], [1.0]]) / math.sqrt(2)
        angles = sorted(
            min(subspace_angle(b, diag), subspace_angle(b, anti)) for _, _, b, _ in limits
        )
        assert angles[-1] < 1e-9

    def test_constant_family(self):
        radii = [2.0 ** -k for k in range(3, 9)]
        m = np.array([[2.0, 0.0], [0.0, 5.0]])
        samples = self.curve_samples(lambda t: m, radii)
        limits = extrapolate_along_curve(samples)
        for value, mult, basis, corr in limits:
            assert corr < 1e-12
        values = sorted(v for v, _, _, _ in limits)
        assert np.allclose(values, [2.0, 5.0], atol=1e-12)

    def test_too_few_radii(self):
        radii = [0.5, 0.25]
        samples = self.curve_samples(lambda t: np.diag([t, 1.0]), radii)
        with pytest.raises(ExtrapolationError):
            extrapolate_along_curve(samples)

    def test_richardson_accuracy(self):
        # f(t) = 1 + 3t + 2t^2 + t^3: order-2 extrapolation kills t and t^2
        radii = [2.0 ** -k for k in range(3, 9)]
        vals = [np.array([1 + 3 * t + 2 * t * t + t ** 3]) for t in radii]
        limit, corr = richardson_limit(vals)
        assert abs(float(limit[0]) - 1.0) < 1e-6


class TestNormalSpectrum:
    def test_rotation_scaling(self):
        # a = 3, b = 2 similitude on the plane
        sym = 3.0 * np.eye(2)
        skew = np.array([[0.0, 2.0], [-2.0, 0.0]])
        spec = normal_spectrum(sym, skew)
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
            ref = np.linalg.eigvals(sym + skew)
            spec = normal_spectrum(sym, skew)
            recovered = []
            for aa, bb, mult in spec:
                if bb < 1e-10:
                    recovered.extend([complex(aa, 0)] * mult)
                else:
                    recovered.extend([complex(aa, bb), complex(aa, -bb)] * (mult // 2))
            recovered = sorted(recovered, key=lambda z: (round(z.real, 8), round(z.imag, 8)))
            ref = sorted(ref, key=lambda z: (round(z.real, 8), round(z.imag, 8)))
            assert np.allclose(recovered, ref, atol=1e-8)
