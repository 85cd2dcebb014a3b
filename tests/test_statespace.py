"""Tests for state-space models, feedback closure and verification."""

import os
import sys
import threading
import time
import warnings
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.linalg import block_diag

from helpers import (
    assemble_open_network,
    closed_by_hand,
    random_doubled_up,
    random_general_model,
    random_hermitian_doubled_up,
    random_passive_model,
    random_unitary,
    recorded_schur_routes,
)
from lqss import statespace
from lqss.errors import (
    NumericalError,
    ParameterError,
    PoleError,
    StructureError,
    UnitEigenvalueError,
)
from lqss.general import synthesize, synthesize_general
from lqss.krein import doubled_up_residual, phi_to_doubled, schur_form
from lqss.passive import synthesize_passive
from lqss.statespace import (
    Model,
    StateSpace,
    adjoint,
    cayley,
    close_feedback,
    drift,
    frequency_grid,
    inv_cayley,
    verify_realization,
)


class CayleyPairLaws:
    """Laws of the Cayley pair for the model kind a subclass sets.

    ``TestCayley`` (test_passive.py) and ``TestGeneralCayley``
    (test_general.py) run them.
    """

    kind = None

    def generator(self, seed):
        """A random 4 x 4 feedback generator -drift(kind, H), i.e. iH or iJH
        for Hermitian H (doubled-up for general models)."""
        rng = np.random.default_rng(seed)
        if self.kind == "general":
            h = random_hermitian_doubled_up(2, rng)
        else:
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = (a + a.conj().T) / 2
        return -drift(self.kind, h)

    def test_roundtrip(self):
        x = self.generator(41)
        r = inv_cayley(self.kind, x)
        # R is unitary (passive) or J-unitary (general)
        assert np.linalg.norm(r @ adjoint(self.kind, r) - np.eye(4)) < 1e-10
        assert np.linalg.norm(cayley(r) - x) < 1e-10

    def test_unit_eigenvalue(self):
        with pytest.raises(UnitEigenvalueError) as info:
            cayley(np.eye(4))
        assert abs(info.value.eigenvalue - 1.0) < 1e-10
        assert "unit eigenvalue" in str(info.value)

    def test_no_eigensolve_on_success(self, monkeypatch):
        # eigenvalues are computed only to name the one that failed
        r = inv_cayley(self.kind, self.generator(47))

        def eigvals(_):
            raise AssertionError("cayley called an eigensolver")
        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        x = cayley(r)
        assert np.linalg.norm(inv_cayley(self.kind, x) - r) < 1e-10

    def test_inv_cayley_requires_skew(self):
        with pytest.raises(StructureError, match="skew"):
            inv_cayley(self.kind, np.eye(4))

    def test_loop_gain_identity(self):
        # (I - R)^-1 R = -I/2 + X/2 is what feedback elimination uses
        x = self.generator(53)
        r = inv_cayley(self.kind, x)
        eye = np.eye(4)
        lhs = np.linalg.solve(eye - r, r)
        assert np.linalg.norm(lhs - (-eye / 2 + x / 2)) < 1e-10


@pytest.mark.parametrize("angle, solved", [(1e-9, True), (1e-17, False)])
def test_eigenvalue_near_one(angle, solved):
    # R = diag(e^{i angle}, e^{2i}, -1) has X = diag(i cot(angle/2), i cot 1,
    # 0).  An eigenvalue 1e-9 from +1 leaves I - R well enough conditioned
    # for the solve; at 1e-17 the reciprocal condition estimate of I - R is
    # below machine epsilon
    r = np.diag(np.exp(1j * np.array([angle, 2.0, np.pi])))
    if solved:
        expected = 1j / np.tan(np.array([angle, 2.0, np.pi]) / 2)
        assert np.allclose(cayley(r), np.diag(expected), rtol=1e-9,
                           atol=1e-15)
    else:
        with pytest.raises(UnitEigenvalueError) as info:
            cayley(r)
        assert abs(info.value.eigenvalue - 1.0) < 1e-16


@pytest.mark.parametrize("kind", ["passive", "general"])
@pytest.mark.parametrize("seed", range(6))
def test_default_rates_bound_the_feedback_generator(kind, seed):
    # every rate is 4 ||Mhat - M_conc||_F, so ||X||_2 <= 1/2 and
    # cond(X + I) <= 3, with or without detunings
    rng = np.random.default_rng(seed)
    n, m = (int(k) for k in rng.integers(1, 13, size=2))
    detunings = rng.normal(size=n) if seed % 2 else None
    if kind == "passive":
        real = synthesize_passive(*random_passive_model(n, m, rng),
                                  detunings=detunings)
    else:
        real = synthesize_general(*random_general_model(n, m, rng),
                                  detunings=detunings)
    assert np.linalg.norm(real.x, 2) <= 0.5
    assert np.linalg.cond(real.x + np.eye(len(real.x))) <= 3.0


class TestModel:
    def test_kind_validation(self):
        with pytest.raises(ParameterError):
            Model(kind="hybrid", m_mat=np.eye(2), n_mat=np.eye(2),
                  s_mat=np.eye(2))

    def test_shape_validation(self):
        with pytest.raises(StructureError):
            Model(kind="passive", m_mat=np.eye(2), n_mat=np.eye(3),
                  s_mat=np.eye(3))
        with pytest.raises(StructureError):
            Model(kind="passive", m_mat=np.eye(2), n_mat=np.eye(2),
                  s_mat=np.eye(3))

    def test_mode_and_port_counts(self):
        m = Model(kind="general", m_mat=np.zeros((4, 4)),
                  n_mat=np.zeros((6, 4)), s_mat=np.eye(6))
        assert m.n_modes == 2
        assert m.n_ports == 3

    def test_passthrough_model(self):
        # zero coupling: G(s) = S at every frequency
        s_mat = np.diag([1j, -1j])
        m = Model(kind="passive", m_mat=np.eye(2),
                  n_mat=np.zeros((2, 2)), s_mat=s_mat)
        assert np.allclose(m.tf(0.5 + 1j), s_mat, atol=1e-12)


NONFINITE_NAMES = {"M": "Hamiltonian matrix M", "N": "coupling matrix N",
                   "S": "scattering matrix S"}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["M", "N", "S"])
@pytest.mark.parametrize("kind", ["passive", "general"])
def test_nonfinite_model_is_rejected(kind, name, value):
    # NaN in N used to raise LinAlgError in the SVD and an infinite N made
    # it never return; a non-finite model must fail before either
    rng = np.random.default_rng(97)
    if kind == "passive":
        m_mat, n_mat, s_mat = random_passive_model(3, 3, rng)
    else:
        m_mat, n_mat = random_general_model(2, 2, rng)
        s_mat = np.eye(4)
    mats = {"M": m_mat, "N": n_mat, "S": s_mat.astype(complex)}
    mats[name][0, 1] = value
    synthesize = (synthesize_passive if kind == "passive"
                  else synthesize_general)
    with pytest.raises(ParameterError, match=NONFINITE_NAMES[name]):
        synthesize(mats["M"], mats["N"], mats["S"])
    with pytest.raises(ParameterError, match=NONFINITE_NAMES[name]):
        Model(kind=kind, m_mat=mats["M"], n_mat=mats["N"], s_mat=mats["S"])


@pytest.mark.parametrize("name", ["M", "N", "S"])
@pytest.mark.parametrize("kind", ["passive", "general"])
def test_overflowing_model_is_rejected(kind, name):
    # finite entries whose Frobenius norm overflows: the structure checks
    # scale their tolerances by that norm, so the model check refuses the
    # matrix first, naming it, and without an overflow warning
    rng = np.random.default_rng(98)
    if kind == "passive":
        m_mat, n_mat, s_mat = random_passive_model(3, 3, rng)
    else:
        m_mat, n_mat = random_general_model(2, 2, rng)
        s_mat = np.eye(4)
    mats = {"M": m_mat, "N": n_mat, "S": s_mat}
    mats[name] = mats[name] * 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=f"{NONFINITE_NAMES[name]} "
                           "is too large: its Frobenius norm overflows"):
            Model(kind=kind, m_mat=mats["M"], n_mat=mats["N"],
                  s_mat=mats["S"])


SYNTHESIZE = {"passive": synthesize_passive, "general": synthesize_general}

#: malformed (M, N, S) made from a well-formed model of each kind
MALFORMED = {
    "M_not_square": lambda mats: {**mats, "M": mats["M"][:, :-1]},
    "M_1d": lambda mats: {**mats, "M": mats["M"][0]},
    "N_1d": lambda mats: {**mats, "N": mats["N"][0]},
    "S_wrong_size": lambda mats: {**mats, "S": np.eye(len(mats["S"]) + 2)},
    # a 3x3 Hermitian M cannot be doubled-up
    "M_odd": lambda mats: {**mats, "M": np.diag([1.0, 2.0, 3.0]),
                           "N": mats["N"][:, :3]},
}


@pytest.mark.parametrize("kind, case", [
    *(("passive", case) for case in MALFORMED if case != "M_odd"),
    *(("general", case) for case in MALFORMED)])
def test_malformed_model_is_a_structure_error(kind, case):
    # Model is the one input check: synthesis raises what it raises, before
    # numpy sees a shape it cannot use
    rng = np.random.default_rng(98)
    if kind == "passive":
        mats = dict(zip("MNS", random_passive_model(3, 2, rng)))
    else:
        m_mat, n_mat = random_general_model(2, 2, rng)
        mats = {"M": m_mat, "N": n_mat, "S": np.eye(4)}
    mats = MALFORMED[case](mats)
    with pytest.raises(StructureError):
        SYNTHESIZE[kind](mats["M"], mats["N"], mats["S"])
    with pytest.raises(StructureError):
        Model(kind=kind, m_mat=mats["M"], n_mat=mats["N"], s_mat=mats["S"])


def test_general_coupling_must_be_doubled_up():
    # Model is the one input check, so verification refuses what synthesis
    # refuses
    m_mat, n_mat = random_general_model(3, 2, np.random.default_rng(0))
    n_mat[0, 0] += 0.5
    for check in (lambda: Model("general", m_mat, n_mat),
                  lambda: synthesize_general(m_mat, n_mat)):
        with pytest.raises(StructureError,
                           match="coupling matrix is not doubled-up"):
            check()


@pytest.mark.parametrize("kind", ["passive", "general"])
def test_overflowing_feedback_generator(kind):
    # at a rate of 1e-320 X = -2 Ntilde^-1 drift Ntilde^-1 overflows, and
    # the error must say so rather than call X not skew or not doubled-up
    rng = np.random.default_rng(0)
    mats = (random_passive_model(3, 2, rng) if kind == "passive"
            else random_general_model(2, 2, rng))
    with pytest.raises(NumericalError, match=r"^the feedback generator X "
                       r"overflowed at interconnect rates from 1e-320 to "
                       r"1e-320$"):
        SYNTHESIZE[kind](*mats, interconnect_kappa=1e-320)


def dense_eval(ss, s):
    """G(s) = C (sI - A)^-1 B + D by a dense solve, the reference for the
    Schur-form evaluator."""
    shifted = s * np.eye(ss.a.shape[0]) - ss.a
    return ss.c @ np.linalg.solve(shifted, ss.b) + ss.d


ROT = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])


def pair_and_reals():
    """A real 4 x 4 matrix with a 2 x 2 block for the eigenvalues
    -0.5 +- i sqrt(6) and a triangular block for 1 and -2, in a random
    orthonormal basis."""
    q = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 4)))[0]
    return q @ block_diag([[-0.5, 2.0], [-3.0, -0.5]],
                          [[1.0, 4.0], [0.0, -2.0]]) @ q.T


def complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


#: the points at which ``eval`` is compared with ``dense_eval``
POINTS = (0.0, 2.5j, 0.1 - 40j, 3.0 + 0.5j, 1e4j)


def assert_matches_dense(a, rng):
    """``eval`` of A with B, C and D drawn from ``rng`` agrees with
    ``dense_eval`` to 1e-12 relative at every one of ``POINTS``."""
    n = a.shape[0]
    ss = StateSpace(a=a, b=complex_normal(rng, n, 3),
                    c=complex_normal(rng, 7, n), d=complex_normal(rng, 7, 3))
    for s in POINTS:
        expected = dense_eval(ss, s)
        got = ss.eval(s)
        assert got.shape == (7, 3)
        assert (np.linalg.norm(got - expected)
                <= 1e-12 * np.linalg.norm(expected))


def doubled_up_drift(n, seed):
    """A random doubled-up n x n A whose spectrum lies left of the points
    in ``POINTS``."""
    rng = np.random.default_rng(seed)
    return random_doubled_up(n // 2, n // 2, rng) / np.sqrt(n) - np.eye(n)


def nearly_doubled_up_drift(n, seed):
    """``doubled_up_drift`` moved off the doubled-up structure by about
    1e-10 relative, far more than the n eps ||A||_F the real route
    allows."""
    a = doubled_up_drift(n, seed)
    bump = complex_normal(np.random.default_rng(seed + 1), n, n)
    a = a + 1e-10 * np.linalg.norm(a) / np.linalg.norm(bump) * bump
    assert doubled_up_residual(a) > 1e-11 * np.linalg.norm(a)
    return a


@pytest.fixture
def schur_routes(monkeypatch):
    return recorded_schur_routes(monkeypatch)


class TestStateSpace:
    @pytest.mark.parametrize("n", [1, 5, 64])
    def test_matches_dense_solve(self, n):
        rng = np.random.default_rng(600 + n)
        assert_matches_dense(
            complex_normal(rng, n, n) / np.sqrt(n) - np.eye(n), rng)

    @pytest.mark.parametrize("n", [2, 4, 64])
    def test_doubled_up_takes_the_real_route(self, n, schur_routes):
        assert_matches_dense(doubled_up_drift(n, 700 + n),
                             np.random.default_rng(800 + n))
        assert schur_routes == ["real"]

    def test_nearly_doubled_up_takes_the_complex_route(self, schur_routes):
        assert_matches_dense(nearly_doubled_up_drift(64, 764),
                             np.random.default_rng(864))
        assert schur_routes == ["complex"]

    @pytest.mark.parametrize("route", ["real", "complex"])
    def test_reduction_is_triangular_and_unitary(self, route, schur_routes):
        a = (doubled_up_drift(64, 900) if route == "real"
             else nearly_doubled_up_drift(64, 900))
        t, z = schur_form(a)
        assert schur_routes == [route]
        assert np.all(np.tril(t, -1) == 0)
        assert np.linalg.norm(z.conj().T @ z - np.eye(64)) <= 1e-13
        assert (np.linalg.norm(z @ t @ z.conj().T - a)
                <= 1e-13 * np.linalg.norm(a))

    @pytest.mark.parametrize("a, poles", [
        (np.array([[1.0, 2.0, 3.0], [0.0, -1j, 1.0], [0.0, 0.0, 4.0]]),
         (1.0, -1j, 4.0)),
        # [[2, 1], [0, 3]] conjugated by a rotation: no longer triangular, so
        # its Schur form holds the eigenvalues only to rounding
        (ROT @ np.array([[2.0, 1.0], [0.0, 3.0]]) @ ROT.T, (2.0, 3.0)),
        # doubled-up, so reduced through its real form, whose Schur form
        # keeps the pair as a 2 x 2 block until the rotation
        (phi_to_doubled(pair_and_reals()),
         (-0.5 + 6 ** 0.5 * 1j, -0.5 - 6 ** 0.5 * 1j, 1.0, -2.0)),
    ], ids=["triangular", "rotated", "doubled-up"])
    def test_pole_at_each_eigenvalue(self, a, poles):
        n = a.shape[0]
        ss = StateSpace(a=a, b=np.ones((n, 2)), c=np.ones((2, n)),
                        d=np.zeros((2, 2)))
        for pole in poles:
            with pytest.raises(PoleError):
                ss.eval(pole)
        assert np.all(np.isfinite(ss.eval(1j)))

    @pytest.mark.parametrize("kind", ["passive", "general"])
    def test_no_modes(self, kind, capfd):
        # G(s) = S; no LAPACK call, which would print an error for a
        # 0 x 0 system
        model = Model(kind=kind, m_mat=np.zeros((0, 0)),
                      n_mat=np.zeros((2, 0)))
        assert np.array_equal(model.tf(1j), np.eye(2))
        assert capfd.readouterr() == ("", "")

    def test_non_finite_a_is_a_pole(self):
        # a NaN read from a netlist must not reach the Schur reduction
        ss = StateSpace(a=np.array([[np.nan, 0.0], [0.0, 1.0]]),
                        b=np.eye(2), c=np.eye(2), d=np.zeros((2, 2)))
        with pytest.raises(PoleError):
            ss.eval(1j)

    def test_eval_is_defined_on_the_class(self):
        # the benchmark's tracer wraps StateSpace.__dict__["eval"]
        assert "eval" in StateSpace.__dict__

    def test_eval(self):
        ss = StateSpace(a=np.array([[-1.0]]), b=np.array([[1.0]]),
                        c=np.array([[1.0]]), d=np.array([[0.0]]))
        assert ss.eval(1.0)[0, 0] == pytest.approx(0.5)

    def test_pole(self):
        ss = StateSpace(a=np.array([[2.0]]), b=np.array([[1.0]]),
                        c=np.array([[1.0]]), d=np.array([[0.0]]))
        with pytest.raises(PoleError):
            ss.eval(2.0)


@pytest.fixture(scope="module")
def real():
    rng = np.random.default_rng(81)
    m_mat, n_mat, s_mat = random_passive_model(3, 2, rng)
    return synthesize_passive(m_mat, n_mat, s_mat)


def closed_by_elimination(kind, real):
    """The closed cavity bank with the loop U_int = R Y_int solved
    directly in the state space, A - Ntilde^b Ntilde / 2
    - Ntilde^b (I - R)^-1 R Ntilde, with no Cayley transform: the
    reference for ``close_feedback``'s Cayley form.
    """
    nhat, ntilde, r = real.nhat, real.ntilde, real.r_feedback
    nh_adj = adjoint(kind, nhat)
    nt_adj = adjoint(kind, ntilde)
    loop = np.linalg.solve(np.eye(len(r)) - r, r @ ntilde)
    a = (drift(kind, real.m_conc) - 0.5 * nh_adj @ nhat
         - 0.5 * nt_adj @ ntilde - nt_adj @ loop)
    return StateSpace(a=a, b=-nh_adj, c=nhat,
                      d=np.eye(nhat.shape[0], dtype=complex))


class TestFeedbackClosure:

    def test_methods_agree(self, real):
        rng = np.random.default_rng(82)
        cayley_form = close_feedback("passive", real.nhat, real.m_conc,
                                     real.ntilde, real.r_feedback)
        eliminated = closed_by_elimination("passive", real)
        for _ in range(5):
            s = complex(abs(rng.normal()), rng.normal() * 5)
            gap = cayley_form.eval(s) - eliminated.eval(s)
            assert np.linalg.norm(gap) < 1e-10

    def test_open_network_shape(self, real):
        open_net = assemble_open_network("passive", real.nhat, real.m_conc,
                                         real.ntilde)
        n = real.m_conc.shape[0]
        m = real.nhat.shape[0]
        g = open_net.eval(1.0 + 1.0j)
        assert g.shape == (m + n, m + n)

    def test_closing_matches_open_plus_loop(self, real):
        # closing the interconnect ports of the open network by hand must
        # reproduce close_feedback, for both kinds
        rng = np.random.default_rng(82)
        m_mat, n_mat = random_general_model(3, 2, rng)
        general = synthesize_general(m_mat, n_mat)
        for kind, case in (("passive", real), ("general", general)):
            closed = close_feedback(kind, case.nhat, case.m_conc,
                                    case.ntilde, case.r_feedback)
            for _ in range(5):
                s = complex(abs(rng.normal()), rng.normal() * 5)
                gap = closed.eval(s) - closed_by_hand(kind, case, s)
                assert np.linalg.norm(gap) < 1e-10


class TestFrequencyGrid:
    def test_size_and_determinism(self):
        pts1 = frequency_grid(np.eye(3), 20, seed=42)
        pts2 = frequency_grid(np.eye(3), 20, seed=42)
        assert len(pts1) == 40  # imaginary axis + offset copies
        assert np.allclose(pts1, pts2)

    def test_single_frequency(self):
        pts = frequency_grid(np.eye(2), 1, seed=0)
        assert len(pts) == 2

    def test_scales_with_hamiltonian(self):
        small = frequency_grid(np.eye(2), 5, seed=1)
        big = frequency_grid(100.0 * np.eye(2), 5, seed=1)
        assert np.max(np.abs(big)) > 10 * np.max(np.abs(small))


class TestVerifyRealization:
    def test_pass_report(self):
        rng = np.random.default_rng(83)
        m_mat, n_mat, s_mat = random_passive_model(2, 2, rng)
        real = synthesize_passive(m_mat, n_mat, s_mat)
        model = Model(kind="passive", m_mat=m_mat, n_mat=n_mat, s_mat=s_mat)
        report = verify_realization(model, real, num_freqs=10, tol=1e-8)
        assert report.passed
        assert len(report.errors) == 20
        assert "PASS" in report.summary()

    def test_fail_on_perturbed_feedback(self):
        rng = np.random.default_rng(84)
        m_mat, n_mat, s_mat = random_passive_model(2, 2, rng)
        real = synthesize_passive(m_mat, n_mat, s_mat)
        real.r_feedback = real.r_feedback * np.exp(0.05j)
        model = Model(kind="passive", m_mat=m_mat, n_mat=n_mat, s_mat=s_mat)
        report = verify_realization(model, real, tol=1e-8)
        assert not report.passed
        assert "FAIL" in report.summary()

    @pytest.mark.parametrize("kind", ["passive", "general"])
    def test_errors_match_explicit_reference(self, kind):
        # random unitary pre and post networks make every error O(1), so the
        # comparison is relative
        rng = np.random.default_rng(86)
        if kind == "passive":
            m_mat, n_mat, s_mat = random_passive_model(4, 3, rng)
            real = synthesize_passive(m_mat, n_mat, s_mat)
        else:
            m_mat, n_mat = random_general_model(3, 2, rng)
            s_mat = np.eye(4, dtype=complex)
            real = synthesize_general(m_mat, n_mat, s_mat)
        ports = n_mat.shape[0]
        real.pre = random_unitary(ports, rng)
        real.post = random_unitary(ports, rng)
        model = Model(kind=kind, m_mat=m_mat, n_mat=n_mat, s_mat=s_mat)
        report = verify_realization(model, real, num_freqs=6)
        closed = close_feedback(kind, real.nhat, real.m_conc, real.ntilde,
                                real.r_feedback)
        expected = []
        for s in report.points:
            g_model = dense_eval(model.statespace(), s)
            g_real = real.post @ dense_eval(closed, s) @ real.pre
            expected.append(np.linalg.norm(g_model - g_real)
                            / (1.0 + np.linalg.norm(g_model)))
        assert min(expected) > 1e-2
        assert np.allclose(report.errors, expected, rtol=1e-10, atol=0)
        assert not report.passed

    @pytest.fixture(params=["serial", "threaded"])
    def route(self, request, monkeypatch):
        use_route(monkeypatch, request.param)
        overlaps = guard_overlapping_evals(monkeypatch)
        yield request.param
        assert not overlaps, "an instance was evaluated on two threads at once"

    def test_two_evals_per_point(self, route, monkeypatch):
        rng = np.random.default_rng(87)
        m_mat, n_mat, s_mat = random_passive_model(5, 4, rng)
        real = synthesize_passive(m_mat, n_mat, s_mat)
        model = Model(kind="passive", m_mat=m_mat, n_mat=n_mat, s_mat=s_mat)
        calls = []
        original = StateSpace.eval

        def counted(self, s):
            calls.append(s)
            return original(self, s)

        monkeypatch.setattr(StateSpace, "eval", counted)
        report = verify_realization(model, real, num_freqs=7)
        # no point was nudged off a pole
        assert report.points == list(frequency_grid(m_mat, 7, 42))
        assert len(calls) == 2 * len(report.points)

    def test_point_on_a_pole_is_nudged(self, route, monkeypatch):
        # mode 0 is coupled to no port and no other mode, so A has the
        # eigenvalue -i omega; a grid point there must be moved off it
        rng = np.random.default_rng(89)
        omega = 2.5
        m_mat, n_mat, s_mat = random_passive_model(4, 3, rng)
        m_mat[0, :] = m_mat[:, 0] = 0.0
        m_mat[0, 0] = omega
        n_mat[:, 0] = 0.0
        model = Model(kind="passive", m_mat=m_mat, n_mat=n_mat, s_mat=s_mat)
        assert np.min(np.abs(np.linalg.eigvals(model.statespace().a)
                             + 1j * omega)) < 1e-12
        with pytest.raises(PoleError):
            model.tf(-1j * omega)
        real = synthesize_passive(m_mat, n_mat, s_mat)
        grid = np.array([0.5j, -1j * omega, 3.0 + 1j])
        monkeypatch.setattr(statespace, "frequency_grid",
                            lambda m_mat, num_freqs, seed: grid)
        report = verify_realization(model, real)
        assert report.points[0] == grid[0] and report.points[2] == grid[2]
        moved = report.points[1]
        assert abs(moved + 1j * omega) > 1e-3
        assert moved == -1j * omega * 1.0137 + 1e-3j
        assert report.passed, report.summary()

    def test_worst_point(self, route):
        rng = np.random.default_rng(88)
        m_mat, n_mat, s_mat = random_passive_model(3, 3, rng)
        real = synthesize_passive(m_mat, n_mat, s_mat)
        real.r_feedback = real.r_feedback * np.exp(0.05j)
        model = Model(kind="passive", m_mat=m_mat, n_mat=n_mat, s_mat=s_mat)
        report = verify_realization(model, real, num_freqs=5)
        worst = report.points[int(np.argmax(report.errors))]
        assert report.worst_point == worst
        assert report.errors[report.points.index(worst)] == report.max_error
        assert f"at s = {worst.real:.6g}{worst.imag:+.6g}j" in report.summary()

    @pytest.mark.parametrize("kind", ["passive", "general"])
    def test_routes_give_identical_reports(self, kind, monkeypatch):
        # both models are at least as large as the gate, so they take the
        # threaded route unpatched
        rng = np.random.default_rng(0)
        if kind == "passive":
            m_mat, n_mat, s_mat = random_passive_model(128, 128, rng)
        else:
            m_mat, n_mat = random_general_model(64, 64, rng)
            s_mat = np.eye(128)
        model = Model(kind, m_mat, n_mat, s_mat)
        real = synthesize(model)
        assert model.statespace().b.size >= statespace.THREADED_SWEEP_MIN_SIZE
        reports = {}
        for route in ("serial", "threaded"):
            use_route(monkeypatch, route)
            reports[route] = verify_realization(model, real)
        serial, threaded = reports["serial"], reports["threaded"]
        assert threaded.points == serial.points
        assert threaded.errors == serial.errors
        assert threaded.max_error == serial.max_error
        assert threaded.passed == serial.passed

    @pytest.mark.parametrize("side", ["model", "realized", "both"])
    @pytest.mark.parametrize("at", [0, 5])
    @pytest.mark.parametrize("slow", ["model", "realized"])
    def test_failing_side_raises_as_on_the_serial_route(self, side, at, slow,
                                                        monkeypatch):
        # an eval that fails at the grid point ``at`` on one side or both;
        # the model side's instance is the one holding the model's S as D.
        # A slow model side leaves the worker done with the points ahead when
        # the caller raises, a slow realized side leaves it mid-point.
        rng = np.random.default_rng(87)
        m_mat, n_mat, s_mat = random_passive_model(5, 4, rng)
        real = synthesize_passive(m_mat, n_mat, s_mat)
        model = Model(kind="passive", m_mat=m_mat, n_mat=n_mat, s_mat=s_mat)
        failing_point = frequency_grid(m_mat, 20, 42)[at]
        original = StateSpace.eval

        def failing(self, s):
            which = "model" if self.d is model.s_mat else "realized"
            if side in (which, "both") and s == failing_point:
                raise NumericalError(f"{which} side failed at {s}")
            if which == slow:
                time.sleep(0.005)
            return original(self, s)

        monkeypatch.setattr(StateSpace, "eval", failing)
        overlaps = guard_overlapping_evals(monkeypatch)
        raised = {}
        for route in ("serial", "threaded"):
            use_route(monkeypatch, route)
            with pytest.raises(NumericalError) as info:
                returns_promptly(lambda: verify_realization(model, real))
            raised[route] = str(info.value)
        assert raised["threaded"] == raised["serial"]
        assert raised["serial"].startswith(
            "realized" if side == "realized" else "model")
        assert not overlaps

    def test_failure_at_a_model_pole_is_not_raised(self, monkeypatch):
        # at grid point 5 the model side has a pole and the realized side
        # fails: the serial route nudges the point off the pole before it
        # evaluates the realized side there, and so must the threaded route,
        # which has evaluated it ahead
        rng = np.random.default_rng(87)
        m_mat, n_mat, s_mat = random_passive_model(5, 4, rng)
        real = synthesize_passive(m_mat, n_mat, s_mat)
        model = Model(kind="passive", m_mat=m_mat, n_mat=n_mat, s_mat=s_mat)
        failing_point = frequency_grid(m_mat, 20, 42)[5]
        original = StateSpace.eval

        def failing(self, s):
            if s == failing_point:
                if self.d is model.s_mat:
                    raise PoleError(s)
                raise NumericalError(f"realized side failed at {s}")
            return original(self, s)

        monkeypatch.setattr(StateSpace, "eval", failing)
        overlaps = guard_overlapping_evals(monkeypatch)
        reports = {}
        for route in ("serial", "threaded"):
            use_route(monkeypatch, route)
            reports[route] = returns_promptly(
                lambda: verify_realization(model, real))
        serial, threaded = reports["serial"], reports["threaded"]
        assert serial.points[5] == failing_point * 1.0137 + 1e-3j
        assert threaded.points == serial.points
        assert threaded.errors == serial.errors
        assert serial.passed, serial.summary()
        assert not overlaps

    def test_worker_keeps_at_most_two_points_ahead(self, monkeypatch):
        # each realized G(s) is dropped once its error is formed: when an
        # error is formed, alive are that point's and at most two evaluated
        # ahead of it
        rng = np.random.default_rng(87)
        m_mat, n_mat, s_mat = random_passive_model(5, 4, rng)
        real = synthesize_passive(m_mat, n_mat, s_mat)
        model = Model(kind="passive", m_mat=m_mat, n_mat=n_mat, s_mat=s_mat)
        use_route(monkeypatch, "threaded")
        outputs, alive = [], []
        original_eval, original_error = StateSpace.eval, statespace._error

        def recorded(self, s):
            out = original_eval(self, s)
            if self.d is not model.s_mat:
                outputs.append(weakref.ref(out))
            return out

        def counted(g_model, g_real):
            alive.append(sum(ref() is not None for ref in outputs))
            return original_error(g_model, g_real)

        monkeypatch.setattr(StateSpace, "eval", recorded)
        monkeypatch.setattr(statespace, "_error", counted)
        report = returns_promptly(lambda: verify_realization(model, real))
        assert len(alive) == len(report.points) == 40
        assert max(alive) <= 3, alive

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}])
    def test_worker_only_with_two_cpus(self, cpus, monkeypatch):
        rng = np.random.default_rng(87)
        m_mat, n_mat, s_mat = random_passive_model(5, 4, rng)
        real = synthesize_passive(m_mat, n_mat, s_mat)
        model = Model(kind="passive", m_mat=m_mat, n_mat=n_mat, s_mat=s_mat)
        use_route(monkeypatch, "serial")
        expected = verify_realization(model, real)
        use_route(monkeypatch, "threaded")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                            raising=False)
        built = []

        def executor(*args, **kwargs):
            built.append(args)
            return ThreadPoolExecutor(*args, **kwargs)

        monkeypatch.setattr(statespace, "ThreadPoolExecutor", executor)
        report = verify_realization(model, real)
        assert len(built) == (len(cpus) > 1)
        assert report.points == expected.points
        assert report.errors == expected.errors

    def test_concurrent_threaded_sweeps(self, monkeypatch):
        # more sweeping threads than cores, switching as often as the
        # interpreter allows: a lost or reordered hand-off changes a report
        rng = np.random.default_rng(87)
        m_mat, n_mat, s_mat = random_passive_model(5, 4, rng)
        real = synthesize_passive(m_mat, n_mat, s_mat)
        model = Model(kind="passive", m_mat=m_mat, n_mat=n_mat, s_mat=s_mat)
        use_route(monkeypatch, "serial")
        expected = verify_realization(model, real)
        use_route(monkeypatch, "threaded")
        reports = []

        def sweep():
            for _ in range(5):
                reports.append(verify_realization(model, real))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            returns_promptly(lambda: run_concurrently(sweep, 3))
        finally:
            sys.setswitchinterval(interval)
        assert len(reports) == 15
        for report in reports:
            assert report.points == expected.points
            assert report.errors == expected.errors

    @pytest.fixture
    def general4(self):
        m_mat, n_mat = random_general_model(4, 4, np.random.default_rng(90))
        s_mat = np.eye(8, dtype=complex)
        model = Model(kind="general", m_mat=m_mat, n_mat=n_mat, s_mat=s_mat)
        return model, synthesize_general(m_mat, n_mat, s_mat)

    def test_one_rate_per_mode(self, general4):
        model, real = general4
        real.kappas_tilde = real.kappas_tilde[:3]
        with pytest.raises(ParameterError,
                           match="3 interconnect rates, but a model with 4"):
            verify_realization(model, real)

    @pytest.mark.parametrize("rate", [-1.0, 0.0, np.inf, np.nan])
    def test_rates_positive_and_finite(self, general4, rate):
        model, real = general4
        real.kappas_tilde = real.kappas_tilde.copy()
        real.kappas_tilde[1] = rate
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any sqrt
            with pytest.raises(ParameterError, match="positive and finite"):
                verify_realization(model, real)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-8])
    def test_tolerance_finite_and_nonnegative(self, general4, tol):
        model, real = general4
        with pytest.raises(ParameterError, match="tol must be a finite"):
            verify_realization(model, real, tol=tol)

    def test_kind_mismatch(self):
        rng = np.random.default_rng(85)
        m_mat, n_mat, s_mat = random_passive_model(2, 2, rng)
        real = synthesize_passive(m_mat, n_mat, s_mat)
        model = Model(kind="general", m_mat=np.zeros((2, 2)),
                      n_mat=np.zeros((2, 2)), s_mat=np.eye(2))
        with pytest.raises(ParameterError):
            verify_realization(model, real)


def use_route(monkeypatch, route):
    """Send ``verify_realization`` to the serial or the threaded sweep
    whatever the model's size and the CPUs the process may run on."""
    monkeypatch.setattr(statespace, "THREADED_SWEEP_MIN_SIZE",
                        0 if route == "threaded" else np.inf)
    if route == "threaded":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)


def guard_overlapping_evals(monkeypatch):
    """Wrap ``StateSpace.eval`` to record every call that starts while
    another thread is inside ``eval`` on the same instance; the list it
    records into.

    Each call that returns holds its instance for a millisecond after the
    evaluation, so that an overlap the code allows is likely to happen.
    """
    busy, overlaps, lock = Counter(), [], threading.Lock()
    wrapped = StateSpace.eval

    def guarded(self, s):
        with lock:
            busy[id(self)] += 1
            if busy[id(self)] > 1:
                overlaps.append(s)
        try:
            out = wrapped(self, s)
            time.sleep(1e-3)
            return out
        finally:
            with lock:
                busy[id(self)] -= 1

    monkeypatch.setattr(StateSpace, "eval", guarded)
    return overlaps


def returns_promptly(call, timeout=30.0):
    """call() on a helper thread: its result, or its exception raised here.

    Fails when the call has not returned within ``timeout`` seconds, or when
    it leaves a thread running.
    """
    before = threading.active_count()
    outcome = {}

    def target():
        try:
            outcome["result"] = call()
        except BaseException as exc:  # raised below, on the test's thread
            outcome["error"] = exc

    helper = threading.Thread(target=target, daemon=True)
    helper.start()
    helper.join(timeout)
    assert not helper.is_alive(), f"no return within {timeout} s"
    assert threading.active_count() == before
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


def run_concurrently(work, threads):
    """work() on ``threads`` threads at once; the first exception raised."""
    errors = []

    def target():
        try:
            work()
        except BaseException as exc:  # raised below
            errors.append(exc)

    workers = [threading.Thread(target=target) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    if errors:
        raise errors[0]


def doubled_passive(n, m):
    """A passive model and the general model diag(M, conj M),
    diag(N, conj N), diag(S, conj S) built from it (N2 = 0)."""
    rng = np.random.default_rng(100 * n + m)
    m_mat, n_mat, s_mat = random_passive_model(n, m, rng)
    passive = Model(kind="passive", m_mat=m_mat, n_mat=n_mat, s_mat=s_mat)
    general = Model(kind="general",
                    m_mat=block_diag(m_mat, m_mat.conj()),
                    n_mat=block_diag(n_mat, n_mat.conj()),
                    s_mat=block_diag(s_mat, s_mat.conj()))
    return passive, general


@pytest.mark.parametrize("n, m", [(3, 2), (8, 8), (16, 12)])
def test_passive_tf_is_general_tf_with_n2_zero(n, m):
    passive, general = doubled_passive(n, m)
    for s in (0.3 + 1.0j, 2.0 - 0.5j, 7.0j, 0.05):
        expected = block_diag(passive.tf(s), passive.tf(np.conj(s)).conj())
        assert np.abs(general.tf(s) - expected).max() <= 1e-12


@pytest.mark.parametrize("n, m", [(3, 2), (8, 8), (16, 12)])
def test_general_synthesis_of_passive_model_verifies(n, m):
    _, general = doubled_passive(n, m)
    real = synthesize_general(general.m_mat, general.n_mat, general.s_mat)
    report = verify_realization(general, real)
    assert report.passed, report.summary()
