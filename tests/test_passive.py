"""Tests for passive synthesis: SVD reduction, cavity bank, feedback."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import closed_by_hand, random_passive_model
from lqss.errors import ParameterError, StructureError
from lqss.passive import synthesize_passive
from lqss.statespace import Model, cayley, close_feedback, verify_realization
from test_statespace import CayleyPairLaws

# worked 3-mode example used as a numerical oracle throughout this file
M3 = np.array([[5.0, 1.0, -2.0], [1.0, 3.0, 0.0], [-2.0, 0.0, 4.0]])
N3 = np.array([[1.0, 2.0, 1.0], [0.0, -1.0, 3.0], [2.0, 3.0, 5.0]])

SIGMA3 = np.array([6.8092, 2.7632, 0.0])
V3_ABS = np.abs(np.array([
    [-0.2987, 0.4941, -0.8165],
    [-0.3065, -0.8599, -0.4082],
    [-0.9038, 0.1283, 0.4082],
]))
W3_ABS = np.abs(np.array([
    [-0.3093, 0.2717, -0.9113],
    [-0.4409, 0.8081, 0.3906],
    [-0.8426, -0.5226, 0.1302],
]))
MHAT3_ABS = np.abs(np.array([
    [3.1315, 0.0370, -0.7200],
    [0.0370, 4.4278, -2.2169],
    [-0.7200, -2.2169, 4.4407],
]))
R3_ABS = np.abs(np.array([
    [0.9429, -0.0145, -0.0237],
    [-0.0145, 0.9438, -0.0467],
    [-0.0237, -0.0467, 0.9389],
]) + 1j * np.array([
    [0.3245, 0.0276, 0.0637],
    [0.0276, 0.2918, 0.1449],
    [0.0637, 0.1449, 0.3010],
]))


class TestCayley(CayleyPairLaws):
    kind = "passive"


def closed_form_tf(s, m_mat, n_mat, s_mat):
    """G(s) = S - N (sI + iM + N^dag N / 2)^-1 N^dag S."""
    dim = m_mat.shape[0]
    core = np.linalg.solve(
        s * np.eye(dim) + 1j * m_mat + 0.5 * n_mat.conj().T @ n_mat,
        n_mat.conj().T @ s_mat)
    return s_mat - n_mat @ core


class TestPassiveTf:
    def test_zero_coupling_gives_scattering(self):
        rng = np.random.default_rng(42)
        s_mat = np.diag(np.exp(1j * rng.normal(size=3)))
        model = Model(kind="passive", m_mat=M3, n_mat=np.zeros((3, 3)),
                      s_mat=s_mat)
        assert np.allclose(model.tf(1.0 + 2.0j), s_mat, atol=1e-12)

    def test_high_frequency_limit(self):
        model = Model(kind="passive", m_mat=M3, n_mat=N3, s_mat=np.eye(3))
        assert np.linalg.norm(model.tf(1e9) - np.eye(3)) < 1e-6

    def test_matches_model_statespace(self):
        model = Model(kind="passive", m_mat=M3, n_mat=N3, s_mat=np.eye(3))
        for s in (0.3 + 1.0j, 2.0 - 0.5j):
            assert np.allclose(model.tf(s),
                               closed_form_tf(s, M3, N3, np.eye(3)),
                               atol=1e-12)


@pytest.fixture(scope="module")
def real():
    # the worked example is stated at unit interconnect rates
    return synthesize_passive(M3, N3, interconnect_kappa=1.0)


class TestWorkedExample:
    def test_singular_values(self, real):
        assert np.allclose(real.classification["singular_values"], SIGMA3,
                           atol=1e-3)
        assert real.classification["rank"] == 2

    def test_factor_magnitudes(self, real):
        assert np.allclose(np.abs(real.post), V3_ABS, atol=1e-3)
        assert np.allclose(np.abs(real.w), W3_ABS, atol=1e-3)

    def test_reduced_hamiltonian(self, real):
        assert np.allclose(np.abs(real.mhat), MHAT3_ABS, atol=1e-3)

    def test_feedback_generator(self, real):
        # zero detunings, unit interconnect rates: X = 2i Mhat
        assert np.allclose(real.x, 2j * real.mhat, atol=1e-12)
        assert np.allclose(np.abs(real.r_feedback), R3_ABS, atol=1e-3)

    def test_hamiltonian_recovery_identity(self, real):
        # M_conc - (i/2) Ntilde^dag X Ntilde reproduces Mhat exactly
        lhs = real.m_conc - 0.5j * real.ntilde.conj().T @ real.x @ real.ntilde
        assert np.linalg.norm(lhs - real.mhat) < 1e-12

    def test_cayley_roundtrip_on_feedback(self, real):
        assert np.linalg.norm(cayley(real.r_feedback) - real.x) < 1e-10

    def test_factorization(self, real):
        recon = real.post @ real.nhat @ real.w.conj().T
        assert np.linalg.norm(recon - N3) < 1e-10

    def test_verification(self, real):
        model = Model(kind="passive", m_mat=M3, n_mat=N3, s_mat=np.eye(3))
        report = verify_realization(model, real, num_freqs=20, tol=1e-8)
        assert report.passed, report.summary()

    def test_dual_feedback_paths(self, real):
        closed = close_feedback("passive", real.nhat, real.m_conc,
                                real.ntilde, real.r_feedback)
        for s in (0.5 + 1.0j, 3.0 + 0.2j, 10.0j):
            gap = closed.eval(s) - closed_by_hand("passive", real, s)
            assert np.linalg.norm(gap) < 1e-10


class TestSynthesisOptions:
    def test_detunings_enter_m_conc(self):
        real = synthesize_passive(M3, N3, detunings=np.array([1.0, 2.0, 3.0]))
        assert np.allclose(np.diag(real.m_conc), [1.0, 2.0, 3.0])
        model = Model(kind="passive", m_mat=M3, n_mat=N3, s_mat=np.eye(3))
        assert verify_realization(model, real, tol=1e-8).passed

    def test_interconnect_rates(self):
        real = synthesize_passive(M3, N3, interconnect_kappa=2.5)
        assert np.allclose(real.kappas_tilde, 2.5)
        model = Model(kind="passive", m_mat=M3, n_mat=N3, s_mat=np.eye(3))
        assert verify_realization(model, real, tol=1e-8).passed

    def test_wrong_detuning_count(self):
        with pytest.raises(ParameterError):
            synthesize_passive(M3, N3, detunings=np.array([1.0]))

    def test_nonpositive_interconnect(self):
        with pytest.raises(ParameterError):
            synthesize_passive(M3, N3, interconnect_kappa=0.0)

    def test_nonhermitian_rejected(self):
        with pytest.raises(StructureError):
            synthesize_passive(np.array([[1.0, 2.0], [0.0, 1.0]]),
                               np.eye(2))

    def test_nonunitary_scattering_rejected(self):
        with pytest.raises(StructureError):
            synthesize_passive(M3, N3, s_mat=2.0 * np.eye(3))


def test_random_passive_sweep():
    rng = np.random.default_rng(43)
    for _ in range(15):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        m_mat, n_mat, s_mat = random_passive_model(n, m, rng)
        real = synthesize_passive(m_mat, n_mat, s_mat)
        model = Model(kind="passive", m_mat=m_mat, n_mat=n_mat, s_mat=s_mat)
        report = verify_realization(model, real, tol=1e-7)
        assert report.passed, report.summary()


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([32, 64]), st.integers(min_value=0, max_value=2 ** 32))
def test_large_passive_models_verify(n, seed):
    # the top of the passive test ladder at the default tolerance
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, n + 1))
    m_mat, n_mat, s_mat = random_passive_model(n, m, rng)
    real = synthesize_passive(m_mat, n_mat, s_mat)
    model = Model(kind="passive", m_mat=m_mat, n_mat=n_mat, s_mat=s_mat)
    report = verify_realization(model, real)
    assert report.passed, report.summary()
