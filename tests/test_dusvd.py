"""Tests for the Bogoliubov singular-value-type factorization."""

import zlib

import numpy as np
import pytest

from helpers import multiset_distance, planted_coupling, recorded_callers
from lqss import dusvd
from lqss.dusvd import (
    SIGMA2,
    _degenerate_v_columns,
    bogoliubov_svd,
    degenerate_factor,
    jordan2_factor,
    pair_weights,
    symplectic_svd,
)
from lqss.errors import (
    DegeneracyError,
    NumericalError,
    StructureError,
    UnsupportedStructureError,
)
from lqss.krein import (
    bogoliubov_residual,
    flat_adjoint,
    jmat,
    phi_to_doubled,
    sharp_adjoint,
)
from test_spectral import JORDAN3_WITNESS, MIXED, nonneutral_coupling


def gram_of(nbar1, nbar2):
    nhat = np.block([[nbar1, nbar2], [np.conj(nbar2), np.conj(nbar1)]])
    return flat_adjoint(nhat) @ nhat


class TestPairWeights:
    def test_three_four(self):
        # alpha^2 - beta^2 = 3, 2 alpha beta = 4
        alpha, beta = pair_weights(3.0 + 4.0j)
        assert alpha == pytest.approx(2.0, abs=1e-12)
        assert beta == pytest.approx(1.0, abs=1e-12)

    def test_defining_equations(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            lam = complex(rng.normal(), abs(rng.normal()) + 0.1)
            alpha, beta = pair_weights(lam)
            assert alpha ** 2 - beta ** 2 == pytest.approx(lam.real, abs=1e-10)
            assert 2 * alpha * beta == pytest.approx(lam.imag, abs=1e-10)

    def test_negative_axis_rejected(self):
        with pytest.raises(Exception):
            pair_weights(-2.0 + 0.0j)

    def test_canonical_block_gram(self):
        lam = 3.0 + 4.0j
        alpha, beta = pair_weights(lam)
        g = gram_of(alpha * np.eye(2), -beta * SIGMA2)
        evals = sorted(np.linalg.eigvals(g), key=lambda z: z.imag)
        assert abs(evals[0] - np.conj(lam)) < 1e-10
        assert abs(evals[1] - np.conj(lam)) < 1e-10
        assert abs(evals[2] - lam) < 1e-10
        assert abs(evals[3] - lam) < 1e-10


class TestJordan2Factor:
    @pytest.mark.parametrize("lam", [1.3, 0.4, 0.0, -0.7, -2.0])
    def test_gram_is_jordan(self, lam):
        nbar1, nbar2, _ = jordan2_factor(lam)
        g = gram_of(nbar1, nbar2)
        shifted = g - lam * np.eye(4)
        assert np.linalg.norm(shifted @ shifted) < 1e-12
        assert np.linalg.norm(shifted) > 0.1  # genuinely defective

    def test_branches(self):
        # the lam < 0 parametrization flips the sign of W's second column
        assert jordan2_factor(0.5)[2] == 1.0
        assert jordan2_factor(-0.5)[2] == -1.0
        assert jordan2_factor(0.0, in_kernel=True)[2] == 1.0

    def test_kernel_variant_rank_one(self):
        nbar1, nbar2, _ = jordan2_factor(0.0, in_kernel=True)
        nhat = np.block([[nbar1, nbar2], [np.conj(nbar2), np.conj(nbar1)]])
        assert np.linalg.matrix_rank(nhat) == 2
        g = gram_of(nbar1, nbar2)
        assert np.linalg.norm(g @ g) < 1e-12

    def test_kernel_variant_requires_zero(self):
        with pytest.raises(StructureError):
            jordan2_factor(1.0, in_kernel=True)


class TestDegenerateFactor:
    def test_nonneutral_image_rejected(self):
        n = nonneutral_coupling()
        z = np.array([1.0, 0.0], dtype=complex)  # J-positive candidate
        with pytest.raises(DegeneracyError):
            degenerate_factor(n, [z])


def reconstruction_residual(coupling, res):
    recon = res.v @ res.nhat @ flat_adjoint(res.w)
    return np.linalg.norm(recon - coupling) / max(1.0,
                                                  np.linalg.norm(coupling))


class TestBogoliubovSvd:
    def test_identity(self):
        res = bogoliubov_svd(np.eye(4, dtype=complex))
        assert res.r == 2
        assert res.residual < 1e-12

    def test_zero_coupling(self):
        res = bogoliubov_svd(np.zeros((4, 6), dtype=complex))
        assert res.r == 0
        assert np.linalg.norm(res.nhat) == 0.0
        assert bogoliubov_residual(res.v) < 1e-10
        assert bogoliubov_residual(res.w) < 1e-10

    def test_requires_doubled_up(self):
        with pytest.raises(StructureError):
            bogoliubov_svd(np.arange(16.0).reshape(4, 4))

    @pytest.mark.parametrize("specs", [
        [("pos", 2.5)],
        [("neg", -1.5)],
        [("pair", 1.0 + 2.0j)],
        [("pos", 3.0), ("neg", -0.5)],
        [("pos", 2.0), ("pair", 0.7 + 1.3j)],
        [("deg", [1.5])],
        [("deg", [2.0, 0.7])],
        [("pos", 1.2), ("deg", [0.9])],
    ])
    def test_planted_semisimple(self, specs):
        # crc32, unlike hash, does not change with PYTHONHASHSEED
        rng = np.random.default_rng(zlib.crc32(repr(specs).encode()))
        coupling, expected, _, _ = planted_coupling(
            specs, rng, extra_modes=1)
        res = bogoliubov_svd(coupling)
        assert res.residual < 1e-8
        assert bogoliubov_residual(res.v) < 1e-8
        assert bogoliubov_residual(res.w) < 1e-8
        computed = np.linalg.eigvals(flat_adjoint(coupling) @ coupling)
        assert multiset_distance(expected, computed) < 1e-8

    @pytest.mark.parametrize("lam", [1.1, -0.8, 0.3])
    def test_planted_jordan(self, lam):
        rng = np.random.default_rng(int(abs(lam) * 1000))
        coupling, _, _, _ = planted_coupling([("jordan", lam)], rng)
        res = bogoliubov_svd(coupling)
        assert res.residual < 1e-7
        (block,) = [b for b in res.blocks if b.kind == "jordan2"]
        assert abs(block.value - lam) < 1e-5

    @pytest.mark.parametrize("lam", [1.3, -0.8])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_planted_double_jordan(self, lam, seed):
        # two size-2 Jordan blocks at one eigenvalue: the generalized
        # directions span four dimensions, and no single candidate column
        # need carry a nonzero normalization constant
        coupling, _, _, _ = planted_coupling([("jordan", lam)] * 2,
                                             np.random.default_rng(seed))
        res = bogoliubov_svd(coupling)
        assert res.residual < 1e-12
        assert bogoliubov_residual(res.v) < 1e-8
        assert bogoliubov_residual(res.w) < 1e-8
        blocks = [b for b in res.blocks if b.kind == "jordan2"]
        assert len(blocks) == 2
        assert all(abs(b.value - lam) < 1e-5 for b in blocks)

    def test_planted_tied_degenerate(self):
        # equal degenerate weights exercise the tie-group rotation
        rng = np.random.default_rng(33)
        coupling, _, _, _ = planted_coupling([("deg", [1.0, 1.0])], rng)
        res = bogoliubov_svd(coupling)
        assert res.residual < 1e-8

    def test_nhat_is_canonical(self):
        rng = np.random.default_rng(34)
        coupling, _, m, n = planted_coupling(
            [("pos", 2.0), ("neg", -1.0)], rng, extra_modes=1)
        res = bogoliubov_svd(coupling)
        nhat1 = res.nhat[:m, :n]
        nhat2 = res.nhat[:m, n:]
        assert nhat1[0, 0] == pytest.approx(np.sqrt(2.0), abs=1e-8)
        assert nhat2[1, 1] == pytest.approx(1.0, abs=1e-8)
        # everything else vanishes
        assert abs(nhat1[0, 0]) + abs(nhat2[1, 1]) == pytest.approx(
            np.sum(np.abs(nhat1)) + np.sum(np.abs(nhat2)), abs=1e-8)

    def test_jordan3_raises(self):
        with pytest.raises(UnsupportedStructureError):
            bogoliubov_svd(phi_to_doubled(JORDAN3_WITNESS))

    def test_nonneutral_degenerate_raises(self):
        with pytest.raises(DegeneracyError):
            bogoliubov_svd(nonneutral_coupling())

    def test_gram_diagonalized(self):
        # W^b (N^b N) W must equal the Gram of the canonical coupling
        rng = np.random.default_rng(35)
        coupling, _, _, _ = planted_coupling(
            [("pair", 0.5 + 0.8j), ("pos", 1.7)], rng)
        res = bogoliubov_svd(coupling)
        gram = flat_adjoint(coupling) @ coupling
        lhs = flat_adjoint(res.w) @ gram @ res.w
        rhs = flat_adjoint(res.nhat) @ res.nhat
        assert np.linalg.norm(lhs - rhs) < 1e-8


DEGENERATE_CASES = {f"deg{len(h)}": [("deg", h)] for h in (
    [0.7], [0.7, 1.1], [0.5, 0.9, 1.3], [0.4, 0.8, 1.2, 1.6])}
DEGENERATE_CASES["tied"] = [("deg", [1.0, 1.0])]
DEGENERATE_CASES.update({f"mixed-x{k}": MIXED * k for k in (1, 2, 3)})


class TestDegenerateVColumns:
    @pytest.mark.parametrize("specs", DEGENERATE_CASES.values(),
                             ids=DEGENERATE_CASES.keys())
    def test_one_null_space(self, specs, monkeypatch):
        # one null space completes V: it holds the port vectors of the
        # degenerate block, which are J-orthonormal to every column of V and
        # every partner
        coupling, _, m, _ = planted_coupling(specs,
                                             np.random.default_rng(0))
        spaces = recorded_callers(monkeypatch, dusvd, "null_space")
        res = bogoliubov_svd(coupling)
        assert spaces == ["_v_columns"]
        # V's first-half columns follow the non-kernel blocks in order
        kinds = np.array([b.kind for b in res.blocks if b.kind != "kernel"
                          for _ in range(b.size)])
        deg = np.flatnonzero(kinds == "degenerate_zero")
        assert deg.size == sum(len(s[1]) for s in specs if s[0] == "deg")
        idx = np.r_[deg, m + deg]
        jm = jmat(2 * m)
        forms = res.v.conj().T @ jm @ res.v
        assert np.abs(forms[idx] - jm[idx]).max() < 1e-10

    def test_singular_pairing_raises(self):
        # the neutral image p = e0 + e2 lies in the span of the placed
        # column e0 and its partner e2, so no direction of their
        # J-orthogonal complement, spanned by e1 and e3, pairs with it
        basis = np.eye(4, dtype=complex)[:, [1, 3]]
        p = np.array([[1.0], [0.0], [1.0], [0.0]], dtype=complex)
        with pytest.raises(NumericalError, match="singular"):
            _degenerate_v_columns(basis, p)


class TestSymplecticSvd:
    def test_real_factors(self):
        rng = np.random.default_rng(36)
        x = rng.normal(size=(4, 4))
        res = symplectic_svd(x)
        assert res.residual < 1e-8
        assert np.isrealobj(res.v) and np.isrealobj(res.w)
        eye = np.eye(4)
        assert np.linalg.norm(res.v @ sharp_adjoint(res.v) - eye) < 1e-8
        assert np.linalg.norm(res.w @ sharp_adjoint(res.w) - eye) < 1e-8

    def test_rectangular(self):
        rng = np.random.default_rng(37)
        x = rng.normal(size=(2, 6))
        res = symplectic_svd(x)
        assert res.residual < 1e-8
        assert res.xhat.shape == (2, 6)

    def test_jordan3_raises(self):
        with pytest.raises(UnsupportedStructureError,
                           match="Jordan block of size > 2"):
            symplectic_svd(JORDAN3_WITNESS)


def test_random_sweep():
    rng = np.random.default_rng(38)
    worst = 0.0
    for _ in range(30):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        n1 = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        n2 = 0.5 * (rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))
        coupling = np.block([[n1, n2], [n2.conj(), n1.conj()]])
        res = bogoliubov_svd(coupling)
        worst = max(worst, res.residual)
    assert worst < 1e-8
