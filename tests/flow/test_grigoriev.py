"""Unit tests for the Grigoriev-flow brute force vs the closed form."""

import numpy as np
import pytest

from repro.flow.grigoriev import (
    flow_of_subsets,
    matmul_function,
    min_flow_exhaustive,
    subfunction_image_size,
)
from repro.flow.matmul_flow import dominator_size_bound, matmul_flow_lower_bound
from repro.util.smallrings import Zmod


class TestMatmulFunction:
    def test_single_product(self):
        r = Zmod(5)
        # A = [[1,2],[3,4]], B = [[1,0],[0,1]] → C = A
        inp = np.array([[1, 2, 3, 4, 1, 0, 0, 1]])
        out = matmul_function(r, 2, inp)
        assert out.tolist() == [[1, 2, 3, 4]]

    def test_mod_wraps(self):
        r = Zmod(2)
        inp = np.array([[1, 1, 1, 1, 1, 1, 1, 1]])
        out = matmul_function(r, 2, inp)
        assert out.tolist() == [[0, 0, 0, 0]]  # each c = 1·1+1·1 = 0 mod 2

    def test_batch_shape(self):
        r = Zmod(3)
        out = matmul_function(r, 2, r.all_vectors(8))
        assert out.shape == (3 ** 8, 4)


class TestImageSize:
    def test_full_freedom_full_image(self):
        """All 8 inputs free: all |R|⁴ outputs reachable."""
        r = Zmod(2)
        size = subfunction_image_size(r, 2, tuple(range(8)), (0, 1, 2, 3), np.array([]))
        assert size == 16

    def test_no_freedom_single_point(self):
        r = Zmod(2)
        size = subfunction_image_size(
            r, 2, (), (0, 1, 2, 3), np.zeros(8, dtype=np.int64)
        )
        assert size == 1

    def test_partial_freedom(self):
        r = Zmod(2)
        # only A11 free, observe C11 = A11·B11 + A12·B21 with B = I, A12 = 0:
        fixed = np.array([0, 0, 0, 1, 0, 0, 1])  # A12,A21,A22,B11,B12,B21,B22
        size = subfunction_image_size(r, 2, (0,), (0,), fixed)
        assert size == 2


class TestFlowVsClosedForm:
    @pytest.mark.parametrize("u,v", [(u, v) for u in range(4, 9) for v in range(1, 5)])
    def test_z2_exhaustive_at_least_closed_form(self, u, v):
        r = Zmod(2)
        got = min_flow_exhaustive(r, 2, u, v)
        assert got >= matmul_flow_lower_bound(2, u, v) - 1e-9

    def test_z3_sampled(self):
        r = Zmod(3)
        for u, v in ((8, 4), (7, 3), (6, 2)):
            got = min_flow_exhaustive(r, 2, u, v)
            assert got >= matmul_flow_lower_bound(2, u, v) - 1e-9

    def test_flow_monotone_in_outputs(self):
        r = Zmod(2)
        f_small = flow_of_subsets(r, 2, tuple(range(8)), (0,))
        f_big = flow_of_subsets(r, 2, tuple(range(8)), (0, 1, 2, 3))
        assert f_big >= f_small


class TestClosedForm:
    def test_full_values(self):
        # u = 2n², v = n²: flow ≥ n²/2
        assert matmul_flow_lower_bound(2, 8, 4) == 2.0

    def test_clamped_at_zero(self):
        assert matmul_flow_lower_bound(2, 0, 0) == 0.0

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            matmul_flow_lower_bound(2, 9, 4)
        with pytest.raises(ValueError):
            matmul_flow_lower_bound(2, 8, 5)

    def test_dominator_bound_alias(self):
        assert dominator_size_bound(2, 8, 4) == matmul_flow_lower_bound(2, 8, 4)

    def test_lemma310_inner_inequality_form(self):
        """|Γ_j| ≥ ½[|O′_j| − (2n²−|I″_j|)²/4n²] with the paper's variables."""
        n, O_j, I_j = 2, 4, 6
        assert dominator_size_bound(n, I_j, O_j) == pytest.approx(
            0.5 * (O_j - (2 * n * n - I_j) ** 2 / (4 * n * n))
        )
