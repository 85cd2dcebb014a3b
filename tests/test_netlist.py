"""Tests for static-network decomposition into device schedules."""

from functools import reduce

import numpy as np
import pytest

from helpers import random_unitary
from lqss.errors import NumericalError, StructureError
from lqss.krein import bogoliubov_residual, random_bogoliubov
from lqss.netlist import (
    Device,
    DeviceSchedule,
    beamsplitter_matrix,
    beamsplitter_params,
    bloch_messiah,
    reck_decompose,
    schedule_static,
    squeezer_matrix,
    takagi,
)


class TestTakagi:
    def test_distinct_singular_values(self):
        rng = np.random.default_rng(61)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = (a + a.T) / 2
        s, u = takagi(a)
        assert np.all(s >= 0)
        assert np.linalg.norm(u @ u.conj().T - np.eye(3)) < 1e-10
        assert np.linalg.norm(u @ np.diag(s) @ u.T - a) < 1e-8

    def test_repeated_singular_values(self):
        # a real orthogonal symmetric matrix: all singular values equal 1
        a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        s, u = takagi(a)
        assert np.allclose(s, 1.0)
        assert np.linalg.norm(u @ np.diag(s) @ u.T - a) < 1e-8

    def test_zero_matrix(self):
        s, u = takagi(np.zeros((2, 2), dtype=complex))
        assert np.allclose(s, 0.0)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(StructureError):
            takagi(np.array([[0.0, 1.0], [2.0, 0.0]]))


class TestBlochMessiah:
    @pytest.mark.parametrize("seed", [62, 63, 64])
    def test_factorization(self, seed):
        r = random_bogoliubov(3, seed=seed)
        u2, x, u1 = bloch_messiah(r)
        m = 3
        assert np.all(x >= 0)
        assert np.linalg.norm(u1 @ u1.conj().T - np.eye(m)) < 1e-8
        assert np.linalg.norm(u2 @ u2.conj().T - np.eye(m)) < 1e-8
        mid = np.block([
            [np.diag(np.cosh(x)), np.diag(np.sinh(x))],
            [np.diag(np.sinh(x)), np.diag(np.cosh(x))],
        ])
        left = np.block([[u2, np.zeros((m, m))],
                         [np.zeros((m, m)), u2.conj()]])
        right = np.block([[u1, np.zeros((m, m))],
                          [np.zeros((m, m)), u1.conj()]])
        assert np.linalg.norm(left @ mid @ right - r) < 1e-7

    def test_identity_has_no_squeezing(self):
        _, x, _ = bloch_messiah(np.eye(4, dtype=complex))
        assert np.allclose(x, 0.0)

    def test_rejects_non_bogoliubov(self):
        with pytest.raises(StructureError):
            bloch_messiah(2.0 * np.eye(4))


class TestBeamsplitter:
    def test_matrix_is_unitary(self):
        g = beamsplitter_matrix(0.7, 0.3, -0.2, 0.9)
        assert np.linalg.norm(g @ g.conj().T - np.eye(2)) < 1e-12

    def test_params_roundtrip(self):
        rng = np.random.default_rng(65)
        for _ in range(20):
            g = random_unitary(2, rng)
            params = beamsplitter_params(g)
            assert np.linalg.norm(beamsplitter_matrix(**params) - g) < 1e-8

    def test_stacked_params_match_single(self):
        rng = np.random.default_rng(66)
        stack = np.array([random_unitary(2, rng) for _ in range(12)])
        stacked = beamsplitter_params(stack)
        for j, g in enumerate(stack):
            single = beamsplitter_params(g)
            for key, value in single.items():
                assert stacked[key][j] == pytest.approx(value, abs=1e-15)
        assert np.allclose(beamsplitter_matrix(**stacked), stack, atol=1e-12)

    def test_stack_with_nonunitary_member_rejected(self):
        rng = np.random.default_rng(67)
        stack = np.array([random_unitary(2, rng) for _ in range(5)])
        stack[3, 0, 1] += 1e-3
        with pytest.raises(NumericalError):
            beamsplitter_params(stack)


class TestReck:
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_random_unitary(self, m):
        rng = np.random.default_rng(100 + m)
        u = random_unitary(m, rng)
        schedule = reck_decompose(u)
        assert schedule.residual(u) < 1e-8
        n_bs = sum(1 for d in schedule.devices if d.kind == "beamsplitter")
        assert n_bs <= m * (m - 1) // 2

    def test_diagonal_input_gives_phases_only(self):
        u = np.diag(np.exp(1j * np.array([0.3, -1.2, 2.0])))
        schedule = reck_decompose(u)
        assert all(d.kind == "phase" for d in schedule.devices)
        assert schedule.residual(u) < 1e-10

    def test_rejects_nonunitary(self):
        with pytest.raises(StructureError):
            reck_decompose(np.ones((2, 2)))


class TestDevices:
    def test_phase_embed(self):
        d = Device(kind="phase", channels=(1,), params={"theta": np.pi / 2})
        mat = d.embed(3, doubled=False)
        assert mat[1, 1] == pytest.approx(1j, abs=1e-12)

    def test_squeezer_needs_doubled(self):
        d = Device(kind="squeezer", channels=(0,), params={"x": 0.5})
        with pytest.raises(StructureError):
            d.embed(2, doubled=False)
        mat = d.embed(2, doubled=True)
        blk = mat[np.ix_([0, 2], [0, 2])]
        assert np.allclose(blk, squeezer_matrix(0.5), atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(StructureError):
            Device(kind="mirror", channels=(0,)).embed(1, False)

    def test_missing_parameter(self):
        d = Device(kind="beamsplitter", channels=(0, 1), params={"phi": 0.1})
        with pytest.raises(StructureError, match="theta"):
            d.embed(2, doubled=False)

    def test_empty_schedule_is_identity(self):
        sched = DeviceSchedule(channels=2, doubled=False)
        assert np.allclose(sched.matrix(), np.eye(2))


def _embedded_product(schedule):
    """Reference for ``matrix()``: the dense product of the embeddings."""
    dim = 2 * schedule.channels if schedule.doubled else schedule.channels
    return reduce(np.matmul,
                  [d.embed(schedule.channels, schedule.doubled)
                   for d in schedule.devices], np.eye(dim, dtype=complex))


class TestScheduleMatrix:
    def test_unitary_schedule_matches_embedded_product(self):
        u = random_unitary(9, np.random.default_rng(68))
        schedule = reck_decompose(u)
        assert len(schedule.devices) >= 9 * 8 // 2
        assert np.abs(schedule.matrix()
                      - _embedded_product(schedule)).max() < 1e-12

    def test_bogoliubov_schedule_matches_embedded_product(self):
        r = random_bogoliubov(4, seed=69)
        schedule = schedule_static(r)
        assert {d.kind for d in schedule.devices} == {
            "beamsplitter", "phase", "squeezer"}
        assert np.abs(schedule.matrix()
                      - _embedded_product(schedule)).max() < 1e-12

    def test_descending_channels(self):
        params = {"theta": 0.4, "phi": 0.3, "psi": -1.1, "zeta": 0.2}
        down = DeviceSchedule(channels=3, doubled=True, devices=[Device(
            kind="beamsplitter", channels=(2, 0), params=params)])
        assert np.abs(down.matrix() - _embedded_product(down)).max() < 1e-15
        g = beamsplitter_matrix(**params)
        assert np.allclose(down.matrix()[np.ix_([2, 0], [2, 0])], g)

    @pytest.mark.parametrize("doubled", [False, True])
    def test_perturbed_splitter_exceeds_gate(self, doubled):
        if doubled:
            target = random_bogoliubov(4, seed=70)
            schedule = schedule_static(target)
        else:
            target = random_unitary(9, np.random.default_rng(70))
            schedule = reck_decompose(target)
        assert schedule.residual(target) < 1e-8
        splitter = next(d for d in schedule.devices
                        if d.kind == "beamsplitter")
        splitter.params["theta"] += 1e-6
        assert schedule.residual(target) > 1e-8


class TestScheduleStatic:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_unitary_schedule(self, m):
        rng = np.random.default_rng(70 + m)
        u = random_unitary(m, rng)
        schedule = schedule_static(u, kind="unitary")
        assert not schedule.doubled
        assert schedule.residual(u) < 1e-8

    @pytest.mark.parametrize("seed", [71, 72, 73])
    def test_bogoliubov_schedule(self, seed):
        r = random_bogoliubov(2, seed=seed)
        schedule = schedule_static(r)
        assert schedule.doubled
        assert schedule.residual(r) < 1e-7
        kinds = {d.kind for d in schedule.devices}
        assert "squeezer" in kinds  # generic R is actively squeezing

    def test_autodetect_prefers_bogoliubov(self):
        r = random_bogoliubov(2, seed=74)
        assert bogoliubov_residual(r) < 1e-8
        assert schedule_static(r).doubled

    def test_kind_mismatch(self):
        r = random_bogoliubov(2, seed=75)
        with pytest.raises(StructureError):
            schedule_static(r, kind="unitary")

    def test_unknown_kind(self):
        with pytest.raises(StructureError):
            schedule_static(np.eye(2), kind="squeezed")

    def test_arbitrary_matrix_rejected(self):
        with pytest.raises(StructureError):
            schedule_static(np.ones((2, 2)))


def test_schedule_sweep():
    rng = np.random.default_rng(76)
    worst = 0.0
    for k in range(10):
        m = int(rng.integers(1, 4))
        if k % 2:
            target = random_unitary(m, rng)
        else:
            target = random_bogoliubov(m, seed=int(rng.integers(2 ** 31)))
        schedule = schedule_static(target)
        worst = max(worst, schedule.residual(target))
    assert worst < 1e-7
