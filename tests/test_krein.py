"""Tests for the Krein-space matrix algebra primitives."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    random_bogoliubov,
    random_doubled_up,
    random_hermitian_doubled_up,
    sigmat,
)
from lqss.errors import StructureError
from lqss.krein import (
    bogoliubov_residual,
    check_bogoliubov,
    check_doubled_up,
    doubled_up_residual,
    flat_adjoint,
    is_bogoliubov,
    is_doubled_up,
    j_inner,
    jmat,
    jsym,
    phi_to_doubled,
    phi_to_real,
    phimat,
    sharp_adjoint,
    swap_conj,
    unit_phases,
)


def rand_c(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestFlatAdjoint:
    def test_identity(self):
        assert np.allclose(flat_adjoint(np.eye(2)), np.eye(2))

    def test_j_is_flat_selfadjoint(self):
        j = jmat(2)
        assert np.allclose(flat_adjoint(j), j)

    def test_product_rule(self):
        rng = np.random.default_rng(0)
        a = rand_c(rng, (4, 4))
        b = rand_c(rng, (4, 4))
        assert np.allclose(flat_adjoint(a @ b),
                           flat_adjoint(b) @ flat_adjoint(a), atol=1e-12)

    def test_antilinearity(self):
        rng = np.random.default_rng(1)
        a = rand_c(rng, (4, 6))
        b = rand_c(rng, (4, 6))
        x1 = complex(rng.normal() + 1j * rng.normal())
        x2 = complex(rng.normal() + 1j * rng.normal())
        lhs = flat_adjoint(x1 * a + x2 * b)
        rhs = np.conj(x1) * flat_adjoint(a) + np.conj(x2) * flat_adjoint(b)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(2)
        a = rand_c(rng, (6, 4))
        assert np.allclose(flat_adjoint(flat_adjoint(a)), a)

    def test_rejects_odd_dimensions(self):
        with pytest.raises(StructureError):
            flat_adjoint(np.eye(3))


class TestSharpAdjoint:
    def test_identity(self):
        assert np.allclose(sharp_adjoint(np.eye(2)), np.eye(2))

    def test_symplectic_form_is_anti_selfadjoint(self):
        jj = jsym(2)
        assert np.allclose(sharp_adjoint(jj), -jj)

    def test_conjugation_matches_flat(self):
        # Phi (X_D)^b Phi^-1 = X^sharp for X_D = Phi^-1 X Phi
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6))
        xd = phi_to_doubled(x)
        phi_r = phimat(4)
        phi_c = phimat(6)
        lhs = phi_c @ flat_adjoint(xd) @ np.linalg.inv(phi_r)
        assert np.allclose(lhs, sharp_adjoint(x), atol=1e-12)

    def test_rejects_complex_input(self):
        with pytest.raises(StructureError):
            sharp_adjoint(np.eye(2) * (1 + 1j))


class TestJInner:
    def test_positive_vector(self):
        assert j_inner(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_negative_vector(self):
        assert j_inner(np.array([0.0, 1.0]), np.array([0.0, 1.0])) == -1.0

    def test_null_vector(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        assert abs(j_inner(v, v)) < 1e-15


class TestDoubledUp:
    def test_parts_roundtrip(self):
        # the half-blocks X1 = x[:r, :s], X2 = x[:r, s:] determine x, and
        # Sigma conj(x) = x Sigma swaps its column halves
        rng = np.random.default_rng(4)
        x = random_doubled_up(2, 3, rng)
        x1, x2 = x[:2, :3], x[:2, 3:]
        rebuilt = np.block([[x1, x2], [np.conj(x2), np.conj(x1)]])
        assert np.array_equal(rebuilt, x)
        assert np.array_equal(swap_conj(x), np.roll(x, 3, axis=1))

    def test_sigma_characterization(self):
        rng = np.random.default_rng(5)
        x = random_doubled_up(3, 2, rng)
        assert np.allclose(sigmat(6) @ x @ sigmat(4), np.conj(x), atol=1e-12)

    def test_closure_under_algebra(self):
        rng = np.random.default_rng(6)
        a = random_doubled_up(2, 3, rng)
        b = random_doubled_up(2, 3, rng)
        c = random_doubled_up(3, 2, rng)
        assert doubled_up_residual(a + b) < 1e-12
        assert doubled_up_residual(a @ c) < 1e-12
        assert doubled_up_residual(flat_adjoint(a)) < 1e-12

    def test_check_raises_on_violation(self):
        bad = np.arange(16.0).reshape(4, 4)
        assert not is_doubled_up(bad)
        with pytest.raises(StructureError):
            check_doubled_up(bad)

    def test_overflowing_norm_fails(self):
        # an infinite ||x||_F would make the bound infinite and pass any
        # residual; the check answers without an overflow warning
        bad = np.arange(16.0).reshape(4, 4) * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_doubled_up(bad)
            assert not is_bogoliubov(np.eye(4) * 1e160)


class TestBogoliubov:
    def test_h_zero_gives_identity(self):
        # seedless path: exp(-iJ*0) = I; emulate via residual of identity
        assert bogoliubov_residual(np.eye(4)) < 1e-15

    def test_random_bogoliubov_invariants(self):
        r = random_bogoliubov(1, seed=7)
        assert bogoliubov_residual(r) < 1e-10
        assert doubled_up_residual(r) < 1e-10

    def test_group_closure(self):
        a = random_bogoliubov(2, seed=8)
        b = random_bogoliubov(2, seed=9)
        assert is_bogoliubov(a @ b, 1e-9)

    def test_inverse_is_flat_adjoint(self):
        r = random_bogoliubov(3, seed=10)
        assert np.allclose(np.linalg.inv(r), flat_adjoint(r), atol=1e-10)

    def test_j_isometry(self):
        rng = np.random.default_rng(11)
        r = random_bogoliubov(3, seed=11)
        for _ in range(10):
            v = rand_c(rng, 6)
            lhs = j_inner(r @ v, r @ v)
            assert abs(lhs - j_inner(v, v)) < 1e-10 * (1 + abs(lhs))

    def test_check_raises(self):
        with pytest.raises(StructureError):
            check_bogoliubov(2.0 * np.eye(4))


class TestPhiIsomorphism:
    def test_identity_both_ways(self):
        assert np.allclose(phi_to_real(np.eye(4)), np.eye(4))
        assert np.allclose(phi_to_doubled(np.eye(4)), np.eye(4))

    def test_hand_oracle_2x2(self):
        # X1 = 0, X2 = 1 maps to diag(1, -1) in the real picture
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(phi_to_real(x), np.diag([1.0, -1.0]), atol=1e-12)

    def test_j_maps_to_symplectic_form(self):
        phi = phimat(4)
        lhs = phi @ jmat(4) @ np.linalg.inv(phi)
        assert np.allclose(lhs, 1j * jsym(4), atol=1e-12)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            x = random_doubled_up(2, 2, rng)
            assert np.allclose(phi_to_doubled(phi_to_real(x)), x, atol=1e-12)

    def test_real_image_of_doubled_up(self):
        rng = np.random.default_rng(13)
        x = random_doubled_up(3, 2, rng)
        assert np.linalg.norm(phi_to_real(x).imag) < 1e-12

    def test_bogoliubov_maps_to_symplectic(self):
        r = random_bogoliubov(2, seed=14)
        s = phi_to_real(r)
        assert np.allclose(s @ sharp_adjoint(s), np.eye(4), atol=1e-10)

    def test_rejects_non_doubled_up(self):
        with pytest.raises(StructureError):
            phi_to_real(np.arange(16.0).reshape(4, 4))


class TestSwapConj:
    def test_partner_involution(self):
        rng = np.random.default_rng(15)
        v = rand_c(rng, 6)
        assert np.allclose(swap_conj(swap_conj(v)), v)

    def test_flips_j_sign(self):
        rng = np.random.default_rng(16)
        v = rand_c(rng, 6)
        assert abs(j_inner(swap_conj(v), swap_conj(v))
                   + j_inner(v, v)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=10 ** 6))
def test_hermitian_doubled_up_generator(k, seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian_doubled_up(k, rng)
    assert np.allclose(h, h.conj().T, atol=1e-12)
    assert doubled_up_residual(h) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=10 ** 6))
def test_flat_adjoint_respects_j_inner(k, seed):
    # <v, X w>_J = <X^b v, w>_J is the defining property of the adjoint
    rng = np.random.default_rng(seed)
    x = random_doubled_up(k, k, rng)
    v = rand_c(rng, 2 * k)
    w = rand_c(rng, 2 * k)
    assert abs(j_inner(v, x @ w) - j_inner(flat_adjoint(x) @ v, w)) < 1e-9


class TestSlicedStructureMaps:
    """flat_adjoint and the structure residuals agree with their dense
    J/Sigma definitions."""

    @pytest.mark.parametrize("shape", [(4, 6), (6, 2), (8, 8)])
    def test_flat_adjoint_matches_dense(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = random_doubled_up(shape[0] // 2, shape[1] // 2, rng)
        dense = jmat(shape[1]) @ x.conj().T @ jmat(shape[0])
        assert np.array_equal(flat_adjoint(x), dense)

    @pytest.mark.parametrize("shape", [(4, 6), (6, 2), (8, 8)])
    def test_doubled_up_residual_matches_dense(self, shape):
        rng = np.random.default_rng(sum(shape) + 1)
        x = random_doubled_up(shape[0] // 2, shape[1] // 2, rng)
        for y in (x, x + 1e-3 * rand_c(rng, shape)):
            dense = np.linalg.norm(
                sigmat(shape[0]) @ y @ sigmat(shape[1]) - np.conj(y))
            assert doubled_up_residual(y) == dense

    def test_bogoliubov_residual_matches_dense(self):
        rng = np.random.default_rng(5)
        r = random_bogoliubov(3, seed=6) + 1e-4 * rand_c(rng, (6, 6))
        j, sigma, eye = jmat(6), sigmat(6), np.eye(6)
        r_flat = j @ r.conj().T @ j
        dense = max(np.linalg.norm(r @ r_flat - eye),
                    np.linalg.norm(r_flat @ r - eye),
                    np.linalg.norm(sigma @ r @ sigma - np.conj(r)))
        assert bogoliubov_residual(r) == dense

    def test_flat_adjoint_of_real_input_leaves_it_untouched(self):
        x = np.arange(8.0).reshape(2, 4)
        before = x.copy()
        flat_adjoint(x)
        assert np.array_equal(x, before)

    def test_doubled_up_residual_rejects_odd_dimensions(self):
        with pytest.raises(StructureError):
            doubled_up_residual(np.eye(3))
