import math
import random
from fractions import Fraction

import numpy as np
import pytest

from eigenbouquet.algebra import parse_polynomial
from eigenbouquet.bouquet import (
    fitting_minors,
    generic_rank,
    wedge_quadratics,
)
from eigenbouquet.family import MatrixFamily, analyze_spectrum, check_structure
from eigenbouquet.frames import (
    GridSpec,
    family_matrix,
    local_frame_and_eigenvalues,
    plucker_section,
)
from eigenbouquet.resolve import CenterSpec, run_sequence
from reference import quadratics, rank_at, spectral_sample


def quad_value(quad, point, fiber):
    """Float value of a quadratic at (point, fiber)."""
    at = {**point, **dict(zip(quad.universe.fibers, fiber))}
    return quad.eval_complex(at).real


def hermitian_vortex():
    # eigenvalues +-sqrt(x^2 + y^2), complex eigenvectors winding around 0
    return check_structure(
        MatrixFamily.from_strings(
            [["0", "x - i*y"], ["x + i*y", "0"]], ["x", "y"], "hermitian", fld="gaussian"
        )
    )


class TestHermitianQuadratics:
    def test_doubled_rows_and_fibers(self):
        system = wedge_quadratics(hermitian_vortex())
        assert system.row_labels == [("re", 0, 1), ("im", 0, 1)]
        assert system.fiber_universe.fibers == ("V1_re", "V2_re", "V1_im", "V2_im")

    def test_quads_vanish_on_embedded_eigenvectors(self):
        fam = hermitian_vortex()
        system = wedge_quadratics(fam)
        rng = np.random.default_rng(5)
        for _ in range(20):
            pt = {"x": float(rng.uniform(0.2, 1.5)), "y": float(rng.uniform(0.2, 1.5))}
            h = np.array(
                [[0, pt["x"] - 1j * pt["y"]], [pt["x"] + 1j * pt["y"], 0]]
            )
            vals, vecs = np.linalg.eigh(h)
            scale = 1 + float(np.abs(vals).max())
            for k in range(2):
                z = vecs[:, k]
                for real_vec in (
                    np.concatenate([z.real, z.imag]),
                    np.concatenate([-z.imag, z.real]),  # multiplication by i
                ):
                    for quad in quadratics(system):
                        assert abs(quad_value(quad, pt, real_vec)) <= 1e-12 * scale

    def test_rank_counts_real_dimensions(self):
        fam = hermitian_vortex()
        system = wedge_quadratics(fam)
        assert generic_rank(system) == 2
        # complex multiplicities (1, 1) become real (2, 2): the two real
        # quadratics span a 2-dim piece of the 2*2-dim vanishing space
        pt = {"x": Fraction(1), "y": Fraction(2)}
        assert rank_at(system, pt) == 2


class TestHermitianPipeline:
    def test_end_to_end(self):
        fam = hermitian_vortex()
        summary = analyze_spectrum(fam)
        assert summary.generic_distinct_eigenvalues == 2
        u = fam.universe
        assert summary.disc_gens == [parse_polynomial("x^2 + y^2", u)]
        system = wedge_quadratics(fam)
        generic_rank(system)
        ideal = fitting_minors(system)
        gen_strings = sorted(g.to_string() for g in ideal.gens)
        assert gen_strings == ["x*y", "x^2 + y^2", "x^2 - y^2"]
        outcome = run_sequence(
            ideal.gens, system.fiber_universe, [CenterSpec((), ("x", "y"))]
        )
        assert outcome.verdict == "Resolved"
        locals_ = {leaf.path: leaf.local_generator.to_string() for leaf in outcome.leaves()}
        assert locals_ == {("x",): "u^2", ("y",): "v^2"}

        chart = outcome.root.find(("x",))
        section = plucker_section(chart, system, ideal)
        report = local_frame_and_eigenvalues(section, GridSpec((9, 9)))
        assert not report.failing
        assert report.max_oracle_angle <= 1e-8
        assert [c.dim for c in report.components] == [2, 2]
        worst = 0.0
        for comp in report.components:
            sign = None
            for k, pt in enumerate(report.points):
                uu, vv = float(pt[0]), float(pt[1])
                expected = uu * math.sqrt(1 + vv * vv)
                got = comp.eigenvalues[k]
                if abs(expected) > 1e-9 and sign is None:
                    sign = 1.0 if abs(got - expected) < abs(got + expected) else -1.0
                if sign is not None:
                    worst = max(worst, abs(got - sign * expected))
        assert worst <= 1e-10

    def test_gaussian_non_hermitian_frames_rejected(self):
        fam = check_structure(
            MatrixFamily.from_strings(
                [["i*x", "0"], ["0", "x"]], ["x"], "normal", fld="gaussian"
            )
        )
        system = wedge_quadratics(fam)
        generic_rank(system)
        ideal = fitting_minors(system)
        outcome = run_sequence(ideal.gens, system.fiber_universe, [])
        (leaf,) = outcome.leaves()
        with pytest.raises(ValueError, match="hermitian"):
            plucker_section(leaf, system, ideal)

    def test_embedding_matches_structure(self):
        fam = hermitian_vortex()
        (m,) = family_matrix(fam, {"x": 0.3, "y": 0.7}, 1)
        assert m.shape == (4, 4)
        assert np.allclose(m, m.T)
        sample = spectral_sample(m)
        r = math.hypot(0.3, 0.7)
        assert np.allclose(sample.eigenvalues, [-r, -r, r, r], atol=1e-12)
