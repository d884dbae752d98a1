"""principal_angles against scipy's LAPACK singular values, to 1e-12 absolute.

The reference is the recipe of scipy.linalg.subspace_angles: cosines are the
singular values of Q_B^T Q_A, sines those of Q_A - Q_B Q_B^T Q_A, and each
angle is read from arcsin below pi/4 and from arccos above. scipy's own
function applies that choice in reverse angle order, so when angles lie on
both sides of pi/4 each is read from its ill-conditioned branch (about 1e-8
for an exact zero beside a large angle, 0 for 1e-9 beside pi/2 - 1e-9). The
reference makes the choice per angle, and matches subspace_angles whenever
all angles lie on one side.
"""

import math

import numpy as np
import pytest

from eigenbouquet.oracle import principal_angles

linalg = pytest.importorskip("scipy.linalg")

SHAPES = [(1, 1), (1, 2), (2, 2), (3, 3)]
TOL = 1e-12


def spin(rng, basis):
    """The same span under a random orthonormal change of basis."""
    k = basis.shape[1]
    return basis @ np.linalg.qr(rng.normal(size=(k, k)))[0]


def paired_bases(rng, n, p, q, thetas):
    """Bases of a p- and a q-space of R^n whose k-th columns meet at thetas[k].

    Columns past len(thetas) are shared (angle 0) or, for the larger space,
    orthogonal to the smaller one. Needs n >= q + len(thetas).
    """
    frame = np.linalg.qr(rng.normal(size=(n, n)))[0]
    cols = [frame[:, k] for k in range(q)]
    for k, theta in enumerate(thetas):
        cols[k] = math.cos(theta) * frame[:, k] + math.sin(theta) * frame[:, q + k]
    return frame[:, :p], np.column_stack(cols)


def reference_angles(a, b):
    qa, qb = linalg.orth(a), linalg.orth(b)
    if qa.shape[1] > qb.shape[1]:
        qa, qb = qb, qa
    cos = np.clip(linalg.svdvals(qb.T @ qa), 0.0, 1.0)  # ascending angles
    sin = np.clip(linalg.svdvals(qa - qb @ (qb.T @ qa))[::-1], 0.0, 1.0)
    angles = np.where(cos**2 >= 0.5, np.arcsin(sin), np.arccos(cos))
    if np.all(angles <= math.pi / 4) or np.all(angles >= math.pi / 4):
        assert np.allclose(np.sort(angles), np.sort(linalg.subspace_angles(a, b)), rtol=0, atol=TOL)
    return sorted(angles)


def assert_matches(a, b):
    expected = reference_angles(a, b)
    for (got,) in (principal_angles(a[None], b[None]), principal_angles(b[None], a[None])):
        assert len(got) == len(expected)
        assert max(abs(x - y) for x, y in zip(got, expected)) <= TOL, (got, expected)
    return expected


def cases():
    for p, q in SHAPES:
        for n in range(max(q, 2), 7):
            yield p, q, n


@pytest.mark.parametrize("p,q,n", list(cases()))
def test_random_subspaces(p, q, n):
    rng = np.random.default_rng(1000 * p + 100 * q + n)
    for _ in range(5):
        a = np.linalg.qr(rng.normal(size=(n, p)))[0]
        b = np.linalg.qr(rng.normal(size=(n, q)))[0]
        assert_matches(a, b)


@pytest.mark.parametrize("p,q,n", list(cases()))
def test_tiny_angles(p, q, n):
    rng = np.random.default_rng(2000 * p + 100 * q + n)
    for _ in range(5):
        thetas = 1e-9 * rng.uniform(0.5, 3.0, size=min(p, n - q))
        a, b = paired_bases(rng, n, p, q, thetas)
        assert max(assert_matches(spin(rng, a), spin(rng, b))) < 1e-8


@pytest.mark.parametrize("p,n", [(2, 4), (2, 5), (2, 6), (3, 5), (3, 6)])
def test_mixed_pairs(p, n):
    # one angle near 0 and one near pi/2 (a third, if any, is 0)
    rng = np.random.default_rng(3000 + 10 * p + n)
    for _ in range(20):
        thetas = [1e-9 * rng.uniform(0.5, 3.0), math.pi / 2 - 1e-9 * rng.uniform(0.0, 3.0)]
        a, b = paired_bases(rng, n, p, p, thetas)
        angles = assert_matches(spin(rng, a), spin(rng, b))
        assert angles[-2] < 1e-8 and angles[-1] > math.pi / 2 - 1e-8
