"""Tests for general (active) synthesis via the Bogoliubov factorization."""

import numpy as np
import pytest

from helpers import (
    closed_by_hand,
    counted_builds,
    planted_coupling,
    random_bogoliubov,
    random_general_model,
    random_hermitian_doubled_up,
    random_passive_model,
    recorded_callers,
)
from lqss import dusvd
from lqss.dusvd import bogoliubov_svd
from lqss.errors import NumericalError, ParameterError, StructureError
from lqss.general import synthesize, synthesize_general
from lqss.krein import bogoliubov_residual, flat_adjoint, jmat
from lqss.passive import synthesize_passive
from lqss.spectral import j_gram
from lqss.statespace import (
    Model,
    adjoint,
    close_feedback,
    inv_cayley,
    verify_realization,
)
from test_statespace import CayleyPairLaws

# worked 2-mode example: doubled-up M and N with an indefinite Gram
M4 = np.array([
    [2.0, 1.0, 0.0, -1.0],
    [1.0, 2.0, -1.0, 0.0],
    [0.0, -1.0, 2.0, 1.0],
    [-1.0, 0.0, 1.0, 2.0],
])
N4 = np.array([
    [0.0, 1.0, 2.0, 0.0],
    [-1.0, 2.0, 1.0, -1.0],
    [2.0, 0.0, 0.0, 1.0],
    [1.0, -1.0, -1.0, 2.0],
])
@pytest.fixture(scope="module")
def real4():
    # the worked example is stated at unit interconnect rates
    return synthesize_general(M4, N4, interconnect_kappa=1.0)


class TestGeneralCayley(CayleyPairLaws):
    kind = "general"

    def test_result_is_bogoliubov(self):
        rng = np.random.default_rng(52)
        h = random_hermitian_doubled_up(3, rng)
        x = 1j * jmat(6) @ h
        r = inv_cayley("general", x)
        assert np.linalg.norm(r @ flat_adjoint(r) - np.eye(6)) < 1e-9


class TestFeedbackGuards:
    """The general guards of inv_cayley, in their order, and the default
    interconnect rates that keep synthesize_general clear of them."""

    def test_lost_structure_is_numerical(self):
        x = np.random.default_rng(58).normal(size=(4, 4)).astype(complex)
        with pytest.raises(NumericalError, match="lost the doubled-up"):
            inv_cayley("general", x)

    def test_doubled_up_within_structure_tolerance(self):
        # J-skew, and doubled-up within 1e-7 but not within 1e-9
        h = random_hermitian_doubled_up(2, np.random.default_rng(59))
        h[0, 0] += 1e-8
        with pytest.raises(StructureError, match="not doubled-up"):
            inv_cayley("general", 1j * jmat(4) @ h)

    def test_singular_x_plus_identity(self):
        # X = 2i J M with M1 = 0, M2 = 1/2 has the eigenvalues +1 and -1
        x = 2j * jmat(2) @ np.array([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(NumericalError, match="numerically singular"):
            inv_cayley("general", x)

    def test_singular_x_plus_identity_needs_given_rates(self):
        # one passive port (N = I, so W = I and Mhat = M): at unit
        # interconnect rates X is the singular generator above, while the
        # default rates keep ||X||_2 <= 1/2
        m_mat = np.array([[0.0, 0.5], [0.5, 0.0]])
        real = synthesize_general(m_mat, np.eye(2))
        assert np.linalg.cond(real.x + np.eye(2)) <= 3.0
        model = Model(kind="general", m_mat=m_mat, n_mat=np.eye(2),
                      s_mat=np.eye(2))
        assert verify_realization(model, real).passed
        with pytest.raises(NumericalError, match=r"numerically singular.*"
                           r"\|\|X\|\|_2 = 1\b.*rates from 1 to 1"):
            synthesize_general(m_mat, np.eye(2), interconnect_kappa=1.0)


class TestSynthesize:
    """One synthesis path for both kinds, on a model checked once."""

    @pytest.mark.parametrize("kind, n, m, seed", [
        ("passive", 5, 3, 0), ("general", 4, 4, 0), ("general", 8, 6, 3)])
    def test_checked_model_and_residual(self, kind, n, m, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        mats = (random_passive_model(n, m, rng) if kind == "passive"
                else random_general_model(n, m, rng))
        model = Model(kind, *mats)
        built = counted_builds(monkeypatch)
        real = synthesize(model)
        assert built == []
        # the residual ||V Nhat W^a - N||_F / max(1, ||N||_F) comes with
        # the realization, without the CLI
        n_mat = model.n_mat
        recon = real.post @ real.nhat @ adjoint(kind, real.w)
        assert real.factorization_residual == float(
            np.linalg.norm(recon - n_mat) / max(1.0, np.linalg.norm(n_mat)))
        assert real.factorization_residual < 1e-9  # lqss synth's --tol
        if kind == "general":
            assert (real.factorization_residual
                    == real.classification["residual"])

    @pytest.mark.parametrize("kind", ["passive", "general"])
    def test_wrapper_builds_one_model(self, kind, monkeypatch):
        rng = np.random.default_rng(60)
        mats = (random_passive_model(3, 2, rng) if kind == "passive"
                else random_general_model(3, 2, rng))
        wrapper = (synthesize_passive if kind == "passive"
                   else synthesize_general)
        built = counted_builds(monkeypatch)
        real = wrapper(*mats, detunings=[0.5, 0.0, -0.5],
                       interconnect_kappa=2.0)
        assert built == [kind]
        direct = synthesize(Model(kind, *mats), [0.5, 0.0, -0.5], 2.0)
        for name in ("pre", "post", "nhat", "m_conc", "r_feedback"):
            assert np.array_equal(getattr(real, name),
                                  getattr(direct, name)), name

    @pytest.mark.parametrize("kind", ["passive", "general"])
    def test_model_without_modes_refused(self, kind, capfd):
        # Model accepts M = 0x0; synthesis refuses it before any LAPACK
        # call, which would print an error for a 0 x 0 matrix
        model = Model(kind, np.zeros((0, 0)), np.zeros((2, 0)))
        with pytest.raises(ParameterError, match="no modes"):
            synthesize(model)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("rates", [np.inf, [1.0, np.inf, 1.0], np.nan])
    def test_non_finite_rates_refused(self, rates):
        # an infinite rate has no cavity and no netlist value (JSON has no
        # inf), so it is refused before synthesis, as verification does
        mats = random_general_model(3, 2, np.random.default_rng(61))
        with pytest.raises(ParameterError, match="all finite"):
            synthesize(Model("general", *mats), interconnect_kappa=rates)


class TestActivePortDampedForm:
    """An active port of strength |lam| seen through a damping angle x: the
    doubled-up 2 x 2 coupling sqrt(|lam|) [[sh x, ch x], [ch x, sh x]]."""

    @pytest.mark.parametrize("x", [0.0, 0.3, -1.1, 2.0])
    def test_gram_is_constant(self, x):
        # the Gram matrix is lam * I for every damping angle, so the
        # factorization finds the one active port
        lam = -2.7
        sh, ch = np.sinh(x), np.cosh(x)
        nhat = np.sqrt(abs(lam)) * np.array([[sh, ch], [ch, sh]])
        assert np.allclose(j_gram(nhat), lam * np.eye(2), atol=1e-12)
        res = bogoliubov_svd(nhat)
        assert [b.kind for b in res.blocks] == ["real_negative"]
        assert res.blocks[0].value == pytest.approx(lam, abs=1e-12)
        assert res.residual < 1e-12


class TestWorkedExample:
    def test_gram_eigenvalues(self, real4):
        evals = np.sort(np.real(
            np.linalg.eigvals(flat_adjoint(N4) @ N4)))
        lam = 2.0 * np.sqrt(2.0)
        assert np.allclose(evals, [-lam, -lam, lam, lam], atol=1e-3)

    def test_block_kinds(self, real4):
        kinds = sorted(b["kind"] for b in real4.classification["blocks"])
        assert kinds == ["real_negative", "real_positive"]

    def test_canonical_coupling_entries(self, real4):
        nhat = real4.nhat
        amp = np.sqrt(2.0 * np.sqrt(2.0))
        for pos in [(0, 0), (1, 3), (2, 2), (3, 1)]:
            assert abs(nhat[pos]) == pytest.approx(amp, abs=1e-3)
        assert np.sum(np.abs(nhat)) == pytest.approx(4 * amp, abs=1e-6)

    def test_reduced_hamiltonian(self, real4):
        # Mhat = W^dag M W depends on the (hyperbolic) basis freedom inside
        # degenerate eigenspaces, but J Mhat = W^-1 (J M) W is a similarity:
        # the drift spectrum is preserved exactly
        j = jmat(4)
        lhs = np.sort_complex(np.linalg.eigvals(j @ real4.mhat))
        rhs = np.sort_complex(np.linalg.eigvals(j @ M4))
        # J M4 has a defective zero eigenvalue, which rounds like sqrt(eps)
        assert np.allclose(lhs, rhs, atol=1e-6)
        assert np.allclose(real4.mhat, real4.mhat.conj().T, atol=1e-12)

    def test_zero_detunings_give_zero_bank_hamiltonian(self, real4):
        assert np.linalg.norm(real4.m_conc) == 0.0
        assert np.allclose(real4.x, 2j * jmat(4) @ real4.mhat, atol=1e-12)

    def test_hamiltonian_recovery_identity(self, real4):
        j = jmat(4)
        lhs = (j @ real4.m_conc
               - 0.5j * flat_adjoint(real4.ntilde) @ real4.x @ real4.ntilde)
        assert np.linalg.norm(lhs - j @ real4.mhat) < 1e-12

    def test_factorization(self, real4):
        recon = real4.post @ real4.nhat @ flat_adjoint(real4.w)
        assert np.linalg.norm(recon - N4) < 1e-10

    def test_verification(self, real4):
        model = Model(kind="general", m_mat=M4, n_mat=N4, s_mat=np.eye(4))
        report = verify_realization(model, real4, tol=1e-7)
        assert report.passed, report.summary()

    def test_dual_feedback_paths(self, real4):
        closed = close_feedback("general", real4.nhat, real4.m_conc,
                                real4.ntilde, real4.r_feedback)
        for s in (0.4 + 1.5j, 5.0j, 2.0 + 0.1j):
            gap = closed.eval(s) - closed_by_hand("general", real4, s)
            assert np.linalg.norm(gap) < 1e-10

    def test_cavity_roles(self, real4):
        roles = sorted(c["role"] for c in real4.cavities)
        assert roles == ["active", "passive"]


@pytest.fixture(scope="module")
def model():
    roots = np.sqrt(np.array([1.0, 2.0, 3.0])).reshape(3, 1)
    n_mat = np.block([[roots, roots], [roots, roots]]).astype(complex)
    m_mat = np.zeros((2, 2), dtype=complex)
    return Model(kind="general", m_mat=m_mat, n_mat=n_mat,
                 s_mat=np.eye(6, dtype=complex))


class TestDegenerateExample:
    """One cavity, three channels, equal passive and active rates."""

    def test_synthesis(self, model):
        real = synthesize_general(model.m_mat, model.n_mat, model.s_mat)
        (block,) = real.classification["blocks"]
        assert block["kind"] == "degenerate_zero"
        # total rate kappa_1 + kappa_2 + kappa_3 = 6 on a single port
        nhat1 = real.nhat[:3, :1]
        nhat2 = real.nhat[:3, 1:2]
        target = np.array([[np.sqrt(6.0)], [0.0], [0.0]])
        assert np.allclose(nhat1, target, atol=1e-10)
        assert np.allclose(nhat2, target, atol=1e-10)
        assert np.linalg.norm(real.mhat) < 1e-10
        assert np.linalg.norm(real.x) < 1e-10

    def test_verification(self, model):
        real = synthesize_general(model.m_mat, model.n_mat, model.s_mat)
        report = verify_realization(model, real, tol=1e-10)
        assert report.passed, report.summary()

    def test_tunable_cavity(self, model):
        real = synthesize_general(model.m_mat, model.n_mat, model.s_mat)
        (cav,) = real.cavities
        assert cav["role"] == "tunable"
        (port,) = cav["ports"]
        assert port["kappa"] == pytest.approx(6.0, abs=1e-10)
        assert port["g"] == pytest.approx(6.0, abs=1e-10)


class TestComplexPair:
    def test_pair_cavities_and_interaction(self):
        rng = np.random.default_rng(54)
        # plant a complex quadruple and synthesize around it
        n_mat, _, _, n = planted_coupling([("pair", 1.0 + 1.5j)], rng)
        m_mat = random_hermitian_doubled_up(n, rng, scale=0.5)
        real = synthesize_general(m_mat, n_mat)
        roles = [c["role"] for c in real.cavities]
        assert roles == ["pair", "pair"]
        assert len(real.devices) == 1
        assert real.devices[0]["kind"] == "beamsplitter"
        # the cascade-induced interaction term nu/2 sits in the upper-right
        # (two-photon) half-block of the bank Hamiltonian
        nu = 1.5
        assert real.m_conc[0, n + 1] == pytest.approx(-nu / 2, abs=1e-8)
        assert real.m_conc[1, n] == pytest.approx(-nu / 2, abs=1e-8)
        model = Model(kind="general", m_mat=m_mat, n_mat=n_mat,
                      s_mat=np.eye(n_mat.shape[0], dtype=complex))
        assert verify_realization(model, real, tol=1e-7).passed


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("specs", [
    [("jordan", 1.3)], [("jordan", -0.8)], [("pos", 2.0), ("jordan", 1.3)]])
def test_jordan_synthesis_verifies(specs, seed):
    rng = np.random.default_rng(seed)
    n_mat, _, _, n = planted_coupling(specs, rng)
    m_mat = random_hermitian_doubled_up(n, rng, scale=0.5)
    real = synthesize_general(m_mat, n_mat)
    roles = [c["role"] for c in real.cavities]
    assert roles == ["passive"] * (len(specs) - 1) + ["jordan", "jordan"]
    model = Model(kind="general", m_mat=m_mat, n_mat=n_mat,
                  s_mat=np.eye(n_mat.shape[0], dtype=complex))
    report = verify_realization(model, real)
    assert report.passed, report.summary()


KERNEL_JORDAN_CASES = [
    pytest.param([("kernel_jordan", 0.0)], 0, seed, id=str(seed))
    for seed in range(3)] + [
    pytest.param(specs, extra, seed, id=f"{name}-extra{extra}-{seed}")
    for name, specs in {
        "pos-deg": [("pos", 2.0), ("kernel_jordan", 0.0), ("deg", 0.5)],
        "pair-deg": [("pair", 1 + 2j), ("kernel_jordan", 0.0), ("deg", 1.0)],
    }.items() for extra in (0, 1, 2) for seed in range(3)]


@pytest.mark.parametrize("specs, extra, seed", KERNEL_JORDAN_CASES)
def test_kernel_jordan_synthesis_verifies(specs, extra, seed, monkeypatch):
    # a size-2 Jordan block at zero whose eigenvector N kills: one port
    # vector is read off N W Nbar^+, the other is left to V's completion,
    # whose one null space also holds the degenerate zero modes' port
    # vectors and the extra ports
    rng = np.random.default_rng(seed)
    n_mat, _, _, n = planted_coupling(specs, rng, extra_ports=extra,
                                      extra_modes=extra)
    spaces = recorded_callers(monkeypatch, dusvd, "null_space")
    fact = bogoliubov_svd(n_mat)
    assert spaces == ["_v_columns"]
    assert fact.residual < 1e-13
    (block,) = [b for b in fact.blocks if b.kind == "jordan2"]
    assert block.v_cols.shape[1] == 1
    assert bogoliubov_residual(fact.v) < 1e-10
    assert bogoliubov_residual(fact.w) < 1e-10
    model = Model(kind="general", n_mat=n_mat,
                  m_mat=random_hermitian_doubled_up(n, rng, scale=0.5))
    report = verify_realization(model, synthesize(model))
    assert report.passed, report.summary()


def nhat_from_cavities(real):
    """The canonical coupling rebuilt from the cavity/port assignment."""
    m, n = (d // 2 for d in real.nhat.shape)
    nhat1 = np.zeros((m, n), dtype=complex)
    nhat2 = np.zeros((m, n), dtype=complex)
    for cav in real.cavities:
        for p in cav["ports"]:
            nhat1[p["port"], cav["mode"]] = (np.sqrt(p["kappa"])
                                             * np.exp(1j * p["phi"]))
            nhat2[p["port"], cav["mode"]] = (np.sqrt(p["g"])
                                             * np.exp(1j * p["theta"]))
    return np.block([[nhat1, nhat2], [nhat2.conj(), nhat1.conj()]])


@pytest.mark.parametrize("specs, extra", [
    ([("pos", 2.0)], 0), ([("neg", -1.5)], 0), ([("pair", 1 + 2j)], 0),
    ([("jordan", 1.3)], 0), ([("jordan", -0.8)], 0),
    ([("deg", [0.7, 1.1])], 0),
    ([("pos", 2.0), ("neg", -1.5), ("pair", 1 + 2j), ("jordan", 1.3),
      ("deg", [0.7, 1.1])], 1)])
def test_cavity_ports_rebuild_nhat(specs, extra):
    # extra = 1 adds an uncoupled (idle) mode and an unused port
    rng = np.random.default_rng(58)
    n_mat, _, _, n = planted_coupling(specs, rng, extra_ports=extra,
                                      extra_modes=extra)
    m_mat = random_hermitian_doubled_up(n, rng, scale=0.5)
    real = synthesize_general(m_mat, n_mat)
    assert np.allclose(nhat_from_cavities(real), real.nhat, rtol=0,
                       atol=1e-12)
    if extra:
        # the all-kinds case: the blocks keep the canonical order of the
        # spectrum's classes
        assert [b.kind for b in bogoliubov_svd(n_mat).blocks] == [
            "real_positive", "real_negative", "complex_pair", "jordan2",
            "degenerate_zero", "kernel"]


def test_cavity_ports_rebuild_nhat_of_random_model():
    m_mat, n_mat = random_general_model(16, 16, np.random.default_rng(59))
    real = synthesize_general(m_mat, n_mat)
    assert np.allclose(nhat_from_cavities(real), real.nhat, rtol=0,
                       atol=1e-12)


def test_general_tf_matches_model():
    # G(s) = [I - N (sI + iJM + N^b N / 2)^-1 N^b] S with S = I
    rng = np.random.default_rng(55)
    m_mat, n_mat = random_general_model(2, 2, rng)
    model = Model(kind="general", m_mat=m_mat, n_mat=n_mat,
                  s_mat=np.eye(4, dtype=complex))
    j = np.diag([1.0, 1.0, -1.0, -1.0])
    n_flat = j @ n_mat.conj().T @ j
    for s in (0.7 + 2.0j, 4.0j):
        core = np.linalg.solve(
            s * np.eye(4) + 1j * j @ m_mat + 0.5 * n_flat @ n_mat, n_flat)
        assert np.allclose(model.tf(s), np.eye(4) - n_mat @ core,
                           atol=1e-12)


def test_scattering_matrix_applied():
    rng = np.random.default_rng(56)
    m_mat, n_mat = random_general_model(2, 2, rng)
    s_mat = random_bogoliubov(2, seed=56)
    model = Model(kind="general", m_mat=m_mat, n_mat=n_mat, s_mat=s_mat)
    real = synthesize_general(m_mat, n_mat, s_mat)
    assert verify_realization(model, real, tol=1e-7).passed


def test_random_general_sweep():
    # every draw must synthesize: a failure is not resampled away
    rng = np.random.default_rng(57)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        m_mat, n_mat = random_general_model(n, m, rng)
        real = synthesize_general(m_mat, n_mat)
        model = Model(kind="general", m_mat=m_mat, n_mat=n_mat,
                      s_mat=np.eye(2 * m, dtype=complex))
        report = verify_realization(model, real, tol=1e-7)
        assert report.passed, report.summary()


@pytest.mark.parametrize("n, m, seed", [(8, 6, 3), (32, 32, 46)])
def test_gram_schur_form_by_the_real_route_keeps_the_digits(n, m, seed):
    # with the Gram matrix reduced by the complex Schur form these verified
    # at 7.9e-7 (8 x 6) and 1.1e-8 (32 x 32); through the real Schur form
    # of Phi G Phi^dag, at 1.2e-9 and 8.7e-10
    m_mat, n_mat = random_general_model(n, m, np.random.default_rng(seed))
    model = Model(kind="general", m_mat=m_mat, n_mat=n_mat)
    report = verify_realization(model, synthesize(model))
    assert report.passed, report.summary()


def test_loop_closure_keeps_the_realization_digits():
    # 24 modes, 16 ports, seed 29: a 40-digit evaluation of this realization
    # at its worst grid point gives an error of 1.4e-9.  Closing the loop as
    # Ntilde^b (I/2 + (I - R)^-1 R) Ntilde, a sum whose terms cancel, read
    # 1.7e-8 and failed the default tolerance
    m_mat, n_mat = random_general_model(24, 16, np.random.default_rng(29))
    real = synthesize_general(m_mat, n_mat)
    model = Model(kind="general", m_mat=m_mat, n_mat=n_mat,
                  s_mat=np.eye(32, dtype=complex))
    report = verify_realization(model, real)
    assert report.passed, report.summary()
