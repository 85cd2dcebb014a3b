"""Tests for static-network decomposition into device schedules."""

from functools import reduce

import numpy as np
import orjson
import pytest
from scipy.linalg import block_diag

from helpers import (
    bogoliubov_reference,
    random_bogoliubov,
    random_general_model,
    random_unitary,
    reck_reference,
    records_matrix,
    schedule_residual,
    squeezer_matrix,
)
from lqss import modelio, netlist, synthesize_general
from lqss.errors import NumericalError, StructureError
from lqss.krein import bogoliubov_residual
from lqss.netlist import (
    BEAMSPLITTER,
    PHASE,
    SQUEEZER,
    DeviceSchedule,
    beamsplitter_matrix,
    bloch_messiah,
    reck_decompose,
    schedule_static,
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


def _bloch_messiah_product(u2, x, u1):
    """diag(U2, U2#) S(x) diag(U1, U1#)."""
    cosh, sinh = np.diag(np.cosh(x)), np.diag(np.sinh(x))
    return (block_diag(u2, u2.conj()) @ np.block([[cosh, sinh], [sinh, cosh]])
            @ block_diag(u1, u1.conj()))


#: strongly squeezing networks, largest x 8.2-9.9, as (m, k) of
#: ``random_bogoliubov(m, seed=k, scale=0.2 + k / 30)``: their Reck
#: schedules exist only while both Bloch-Messiah factors stay unitary to
#: about 1e-8
STRONG_SQUEEZING = [(36, 20), (36, 27), (25, 28), (21, 29)]


def strongly_squeezing(m, k):
    return random_bogoliubov(m, seed=k, scale=0.2 + k / 30)


class TestBlochMessiah:
    @pytest.mark.parametrize("seed", [62, 63, 64])
    def test_factorization(self, seed):
        r = random_bogoliubov(3, seed=seed)
        u2, x, u1 = bloch_messiah(r)
        m = 3
        assert np.all(x >= 0)
        assert np.linalg.norm(u1 @ u1.conj().T - np.eye(m)) < 1e-12
        assert np.linalg.norm(u2 @ u2.conj().T - np.eye(m)) < 1e-12
        assert np.linalg.norm(_bloch_messiah_product(u2, x, u1) - r) < 1e-7

    @pytest.mark.parametrize("planted", [(1.3, 1.3, 1.3, 0.4, 0.0, 0.0),
                                         (9.0, 9.0, 0.1)])
    def test_tied_squeezing(self, planted):
        # a group of equal x is one group of equal cosh x, inside which the
        # SVD of R1 picks any basis; the Takagi factorization realigns it
        planted = np.array(planted)
        m = len(planted)
        rng = np.random.default_rng(65)
        r = _bloch_messiah_product(random_unitary(m, rng), planted,
                                   random_unitary(m, rng))
        u2, x, u1 = bloch_messiah(r)
        assert np.abs(x - planted).max() < 1e-12
        assert np.linalg.norm(u1 @ u1.conj().T - np.eye(m)) < 1e-13
        assert np.linalg.norm(u2 @ u2.conj().T - np.eye(m)) < 1e-13
        assert (np.linalg.norm(_bloch_messiah_product(u2, x, u1) - r)
                < 1e-12 * np.linalg.norm(r))

    @pytest.mark.parametrize("m, k", STRONG_SQUEEZING)
    def test_strong_squeezing_schedules(self, m, k):
        r = strongly_squeezing(m, k)
        schedule = schedule_static(r)
        assert schedule.doubled and schedule.residual <= 1e-12
        assert schedule_residual(schedule, r) <= 1e-12

    def test_identity_has_no_squeezing(self):
        _, x, _ = bloch_messiah(np.eye(4, dtype=complex))
        assert np.allclose(x, 0.0)

    def test_rejects_non_bogoliubov(self):
        with pytest.raises(StructureError):
            bloch_messiah(2.0 * np.eye(4))


class TestBeamsplitter:
    def test_matrix_is_unitary(self):
        g = beamsplitter_matrix(0.7, -0.2)
        assert np.linalg.norm(g @ g.conj().T - np.eye(2)) < 1e-12

    @pytest.mark.parametrize("g, entry", [
        (np.array([[np.cos(0.4), -np.sin(0.4)],
                   [np.sin(0.4), np.cos(0.4)]]), (0, 1)),
        (np.array([[np.cos(0.4), np.sin(0.4)],
                   [np.sin(0.4), -np.cos(0.4)]]), (0, 1)),
        (np.array([[1j * np.cos(1e-3), np.sin(1e-3)],
                   [np.sin(1e-3), 1j * np.cos(1e-3)]]), (1, 0)),
        (np.eye(3)[[1, 2, 0]], (0, 0)),
    ], ids=["rotation", "reflection", "quarter-turn", "swap"])
    def test_rounding_on_the_branch_cut(self, g, entry):
        # the reflection's output phase is pi, the quarter turn's pair has
        # arg(a) - arg(b) = pi/2 -+ 1e-14, on both sides of the cut of psi,
        # and the swap's a = +-1e-17j has the angle of a zero; a
        # rounding-level change of sign in an imaginary part must not move
        # a parameter by pi or 2 pi, nor add or drop a device
        plus, minus = g.astype(complex), g.astype(complex)
        plus[entry] += 1e-17j
        minus[entry] -= 1e-17j
        lists = [reck_decompose(h).devices for h in (plus, minus)]
        assert ([(d["kind"], d["channels"]) for d in lists[0]]
                == [(d["kind"], d["channels"]) for d in lists[1]])
        for one, other in zip(*lists):
            for key in one["params"].keys() | other["params"].keys():
                assert one["params"].get(key, 0.0) == pytest.approx(
                    other["params"].get(key, 0.0), abs=1e-12), key


class TestReck:
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_random_unitary(self, m):
        rng = np.random.default_rng(100 + m)
        u = random_unitary(m, rng)
        schedule = reck_decompose(u)
        assert schedule_residual(schedule, u) < 1e-8
        kinds = [d["kind"] for d in schedule.devices]
        assert kinds.count("beamsplitter") <= m * (m - 1) // 2
        assert kinds.count("phase") <= m
        # Reck's count: theta and psi per beamsplitter, one output phase
        # per channel
        assert sum(len(d["params"]) for d in schedule.devices) <= m * m

    def test_real_orthogonal_network_writes_no_psi(self):
        rng = np.random.default_rng(104)
        q, _ = np.linalg.qr(rng.normal(size=(7, 7)))
        for u in (q, q @ np.diag([1, -1, 1, 1, -1, 1, 1]), np.eye(7)[::-1]):
            schedule = reck_decompose(u)
            devices = schedule.devices
            assert all(d["params"].keys() == {"theta"} for d in devices)
            assert all(d["params"]["theta"] == np.pi for d in devices
                       if d["kind"] == "phase")
            assert schedule_residual(schedule, u) < 1e-12

    def test_diagonal_input_gives_phases_only(self):
        u = np.diag(np.exp(1j * np.array([0.3, -1.2, 2.0])))
        schedule = reck_decompose(u)
        assert all(d["kind"] == "phase" for d in schedule.devices)
        assert schedule_residual(schedule, u) < 1e-10

    def test_rejects_nonunitary(self):
        with pytest.raises(StructureError):
            reck_decompose(np.ones((2, 2)))

    def test_output_phase_on_the_branch_cut(self):
        lists = [reck_decompose(np.diag([-1 + im, 1.0])).devices
                 for im in (1e-17j, -1e-17j)]
        assert lists[0] == lists[1]


class TestReckReference:
    """``reck_decompose`` eliminates a column per step; the reference
    rotates one pair at a time.  Both give the same device list."""

    @staticmethod
    def assert_close(got, ref):
        assert ([(d["kind"], d["channels"]) for d in got]
                == [(d["kind"], d["channels"]) for d in ref])
        for dev, want in zip(got, ref):
            assert dev["params"].keys() == want["params"].keys()
            for key, value in want["params"].items():
                assert dev["params"][key] == pytest.approx(value, abs=1e-12)

    @classmethod
    def assert_same_devices(cls, u):
        cls.assert_close(reck_decompose(u).devices, reck_reference(u))

    @pytest.mark.parametrize("m", [1, 2, 3, 9, 33, 96])
    def test_haar_unitary(self, m):
        self.assert_same_devices(
            random_unitary(m, np.random.default_rng(200 + m)))

    @pytest.mark.parametrize("u", [
        np.eye(4),
        np.eye(5)[[3, 0, 4, 1, 2]],
        np.diag([-1 + 1e-13j, 1.0]),
        block_diag(random_unitary(3, np.random.default_rng(210)),
                   random_unitary(1, np.random.default_rng(211)),
                   random_unitary(4, np.random.default_rng(212))),
    ], ids=["identity", "permutation", "phase-near-pi", "block-diagonal"])
    def test_skipped_pairs(self, u):
        self.assert_same_devices(u)


def embed(code, channels, params, m):
    """Matrix of one beamsplitter or phase on m channels: a kind code, its
    channels and its parameters in the order of its kind."""
    table = np.zeros((1, 2))
    table[0, :len(params)] = params
    return DeviceSchedule(m, False, [code], [[channels[0], channels[-1]]],
                          table).matrix()


def _embedded(code, channels, params, m, doubled):
    """Matrix of one device on m channels, 2m x 2m when doubled: a unitary
    device's ``embed`` and its conjugate on the doubled channels, or a
    squeezer's block on the rows (i, i + m)."""
    if code == SQUEEZER:
        out = np.eye(2 * m, dtype=complex)
        rows = [channels[0], channels[0] + m]
        out[np.ix_(rows, rows)] = squeezer_matrix(params[0])
        return out
    unitary = embed(code, channels, params, m)
    return block_diag(unitary, unitary.conj()) if doubled else unitary


class TestDevices:
    def test_phase_embed(self):
        mat = embed(PHASE, [1], [np.pi / 2], 3)
        assert mat[1, 1] == pytest.approx(1j, abs=1e-12)

    def test_squeezer_embed(self):
        mat = records_matrix(2, True, [{"kind": "squeezer", "channels": [0],
                                        "params": {"x": 0.5}}])
        blk = mat[np.ix_([0, 2], [0, 2])]
        assert np.allclose(blk, [[np.cosh(0.5), np.sinh(0.5)],
                                 [np.sinh(0.5), np.cosh(0.5)]], atol=1e-12)
        rest = [1, 3]
        assert np.allclose(mat[np.ix_(rest, rest)], np.eye(2))
        assert not mat[np.ix_([0, 2], rest)].any()

    def test_empty_schedule_is_identity(self):
        sched = DeviceSchedule(2, False, np.zeros(0), np.zeros((0, 2)),
                               np.zeros((0, 2)))
        assert np.allclose(sched.matrix(), np.eye(2))

    def test_doubled_schedule_is_not_multiplied_out(self):
        # a Bogoliubov network's product is formed from its unitary factors
        schedule = schedule_static(random_bogoliubov(2, seed=69))
        assert schedule.doubled
        with pytest.raises(StructureError, match="only a unitary device "
                           "schedule is multiplied out"):
            schedule.matrix()


def _embedded_product(schedule):
    """Reference for ``matrix()`` and ``records_matrix``: the dense product
    of the embeddings."""
    dim = 2 * schedule.channels if schedule.doubled else schedule.channels
    return reduce(np.matmul,
                  [_embedded(code, wires, params, schedule.channels,
                             schedule.doubled)
                   for code, wires, params in zip(
                       schedule.kinds, schedule.wires, schedule.params)],
                  np.eye(dim, dtype=complex))


def _unitary_part(schedule, picked):
    """The unitary schedule of the devices ``picked`` (a slice) of a
    doubled one."""
    return DeviceSchedule(schedule.channels, False, schedule.kinds[picked],
                          schedule.wires[picked], schedule.params[picked])


class TestScheduleMatrix:
    def test_unitary_schedule_matches_embedded_product(self):
        u = random_unitary(9, np.random.default_rng(68))
        schedule = reck_decompose(u)
        assert len(schedule.devices) >= 9 * 8 // 2
        assert np.abs(schedule.matrix()
                      - _embedded_product(schedule)).max() < 1e-12

    def test_bogoliubov_schedule_matches_embedded_product(self):
        # the records multiply out to diag(P2, P2#) S(x) diag(P1, P1#), with
        # P2 and P1 the products of the unitary schedules on either side of
        # the squeezers
        r = random_bogoliubov(4, seed=69)
        schedule = schedule_static(r)
        assert {d["kind"] for d in schedule.devices} == {
            "beamsplitter", "phase", "squeezer"}
        squeezed = np.flatnonzero(schedule.kinds == SQUEEZER)
        lo, hi = squeezed[0], squeezed[-1] + 1
        assert (schedule.kinds[lo:hi] == SQUEEZER).all()
        p2 = _unitary_part(schedule, slice(lo)).matrix()
        p1 = _unitary_part(schedule, slice(hi, None)).matrix()
        x = np.zeros(4)
        x[schedule.wires[lo:hi, 0]] = schedule.params[lo:hi, 0]
        cosh, sinh = np.diag(np.cosh(x)), np.diag(np.sinh(x))
        want = (block_diag(p2, p2.conj()) @ np.block([[cosh, sinh],
                                                      [sinh, cosh]])
                @ block_diag(p1, p1.conj()))
        assert np.abs(records_matrix(4, True, schedule.devices)
                      - want).max() < 1e-12
        assert np.abs(_embedded_product(schedule) - want).max() < 1e-12

    def test_descending_channels(self):
        theta, psi = 0.4, -1.1
        g = beamsplitter_matrix(theta, psi)
        down = DeviceSchedule(3, False, [BEAMSPLITTER], [[2, 0]],
                              [[theta, psi]])
        assert np.abs(down.matrix() - _embedded_product(down)).max() < 1e-15
        assert np.allclose(down.matrix()[np.ix_([2, 0], [2, 0])], g)
        # on doubled-up channels the conjugate block acts on (5, 3)
        doubled = records_matrix(3, True, [{
            "kind": "beamsplitter", "channels": [2, 0],
            "params": {"theta": theta, "psi": psi}}])
        assert np.allclose(doubled[np.ix_([2, 0], [2, 0])], g)
        assert np.allclose(doubled[np.ix_([5, 3], [5, 3])], g.conj())
        assert np.allclose(doubled[np.ix_([1, 4], [1, 4])], np.eye(2))

    @pytest.mark.parametrize("doubled", [False, True])
    def test_random_device_list_matches_embedded_product(self, doubled):
        # overlapping, descending and non-adjacent splitters, phases and
        # squeezers in arbitrary order: the layers of ``matrix()``, or the
        # records that ``records_matrix`` applies one at a time, must keep
        # the order of every two devices that share a channel
        rng = np.random.default_rng(77 + doubled)
        codes = [BEAMSPLITTER, PHASE] + [SQUEEZER] * doubled
        kinds = np.zeros(240, dtype=int)
        wires = np.zeros((240, 2), dtype=int)
        params = np.zeros((240, 2))
        for k in range(240):
            kinds[k] = code = codes[rng.integers(len(codes))]
            if code == BEAMSPLITTER:
                wires[k] = rng.choice(6, size=2, replace=False)
                params[k] = rng.uniform(-np.pi, np.pi, 2)
            elif code == PHASE:
                wires[k] = int(rng.integers(6))
                params[k, 0] = rng.uniform(-np.pi, np.pi)
            else:
                wires[k] = int(rng.integers(6))
                params[k, 0] = rng.uniform(0.0, 0.1)
        i, j = wires[kinds == BEAMSPLITTER].T
        assert (i > j).any()
        assert (abs(i - j) > 1).any()
        schedule = DeviceSchedule(6, doubled, kinds, wires, params)
        backwards = DeviceSchedule(6, doubled, kinds[::-1], wires[::-1],
                                   params[::-1])
        if doubled:
            got, reversed_ = (records_matrix(6, True, s.devices)
                              for s in (schedule, backwards))
        else:
            got, reversed_ = schedule.matrix(), backwards.matrix()
        want = _embedded_product(schedule)
        assert np.abs(got - want).max() < 1e-12 * max(
            1.0, np.abs(want).max())
        # the order matters: the reversed list is a different product
        assert np.abs(reversed_ - want).max() > 1e-3

    @pytest.mark.parametrize("doubled", [False, True])
    def test_perturbed_splitter_exceeds_gate(self, doubled):
        if doubled:
            target = random_bogoliubov(4, seed=70)
            schedule = schedule_static(target)
        else:
            target = random_unitary(9, np.random.default_rng(70))
            schedule = reck_decompose(target)
        assert schedule_residual(schedule, target) < 1e-8
        splitter = np.flatnonzero(schedule.kinds == BEAMSPLITTER)[0]
        schedule.params[splitter, 0] += 1e-6
        assert schedule_residual(schedule, target) > 1e-8


def _bits(devices) -> list:
    """(kind, channels, parameters) of each device record, floats by their
    bits."""
    return [(d["kind"], d["channels"],
             {key: float(value).hex() for key, value in d["params"].items()})
            for d in devices]


def _records(schedule) -> list:
    """The device records of a schedule built one device at a time from its
    arrays: each lists its first parameter, and the others only when they
    are not zero."""
    names = {BEAMSPLITTER: ("beamsplitter", 2, ("theta", "psi")),
             PHASE: ("phase", 1, ("theta",)),
             SQUEEZER: ("squeezer", 1, ("x",))}
    out = []
    for code, wires, row in zip(schedule.kinds.tolist(),
                                schedule.wires.tolist(),
                                schedule.params.tolist()):
        name, count, keys = names[code]
        params = {key: value for i, (key, value) in enumerate(zip(keys, row))
                  if i == 0 or value}
        out.append({"kind": name, "channels": wires[:count],
                    "params": params})
    return out


def _written(schedule, devices) -> bytes:
    """A schedule file as written from a list of device records."""
    return orjson.dumps({
        "schema_version": 1,
        "kind": "bogoliubov" if schedule.doubled else "unitary",
        "channels": schedule.channels,
        "devices": [{"kind": d["kind"], "channels": d["channels"],
                     "params": {k: float(v) for k, v in d["params"].items()}}
                    for d in devices]})


class TestArraySchedules:
    """Schedules are arrays.  Their device lists are those of the reference
    decomposition one rotation at a time, and their device lists and files
    are, to the bit, those built from the arrays one record at a time."""

    @pytest.mark.parametrize("m", [16, 48, 96])
    @pytest.mark.parametrize("kind", ["unitary", "bogoliubov"])
    def test_same_devices_and_file(self, kind, m):
        if kind == "unitary":
            target = random_unitary(m, np.random.default_rng(300 + m))
            reference = reck_reference(target)
        else:
            target = random_bogoliubov(m, seed=300 + m)
            reference = bogoliubov_reference(target)
        schedule = schedule_static(target, kind=kind)
        TestReckReference.assert_close(schedule.devices, reference)
        records = _records(schedule)
        assert _bits(schedule.devices) == _bits(records)
        assert (orjson.dumps(modelio.schedule_to_dict(schedule))
                == _written(schedule, records))

    @pytest.mark.parametrize("m", [16, 48])
    @pytest.mark.parametrize("kind", ["unitary", "bogoliubov"])
    def test_file_round_trip(self, kind, m):
        if kind == "unitary":
            target = random_unitary(m, np.random.default_rng(320 + m))
        else:
            target = random_bogoliubov(m, seed=320 + m)
        schedule = schedule_static(target, kind=kind)
        back = orjson.loads(orjson.dumps(modelio.schedule_to_dict(schedule)))
        assert (back["channels"], back["kind"]) == (m, kind)
        assert _bits(back["devices"]) == _bits(schedule.devices)

    def test_each_factor_is_multiplied_out_once(self, monkeypatch):
        products = []
        matrix = DeviceSchedule.matrix

        def counted(schedule):
            products.append(schedule.doubled)
            return matrix(schedule)

        monkeypatch.setattr(DeviceSchedule, "matrix", counted)
        schedule_static(random_bogoliubov(6, seed=310))
        assert products == [False, False]

    def test_perturbed_u2_splitter_trips_factor_gate(self, monkeypatch):
        calls = []
        eliminate = netlist._eliminate

        def perturbed(u):
            rows, theta, psi, diagonal = eliminate(u)
            if not calls:  # the first factor scheduled is U2
                theta[0] += 1e-6
            calls.append(len(u))
            return rows, theta, psi, diagonal

        monkeypatch.setattr(netlist, "_eliminate", perturbed)
        with pytest.raises(NumericalError, match="triangular unitary "
                           "decomposition residual too large"):
            schedule_static(random_bogoliubov(6, seed=311))
        assert len(calls) == 1

    def test_perturbed_squeezer_trips_network_gate(self, monkeypatch):
        factor = netlist.bloch_messiah

        def perturbed(r):
            u2, x, u1 = factor(r)
            assert x[0] > 1e-3
            x = x.copy()
            x[0] += 1e-5
            return u2, x, u1

        target = random_bogoliubov(6, seed=312)
        assert schedule_residual(schedule_static(target), target) < 1e-12
        monkeypatch.setattr(netlist, "bloch_messiah", perturbed)
        with pytest.raises(NumericalError, match="static network schedule "
                           "residual too large"):
            schedule_static(target)


class TestScheduleStatic:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_unitary_schedule(self, m):
        rng = np.random.default_rng(70 + m)
        u = random_unitary(m, rng)
        schedule = schedule_static(u, kind="unitary")
        assert not schedule.doubled
        assert schedule_residual(schedule, u) < 1e-8

    @pytest.mark.parametrize("seed", [71, 72, 73])
    def test_bogoliubov_schedule(self, seed):
        r = random_bogoliubov(2, seed=seed)
        schedule = schedule_static(r)
        assert schedule.doubled
        assert schedule_residual(schedule, r) < 1e-7
        kinds = {d["kind"] for d in schedule.devices}
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


def test_general_model_networks_schedule_to_rounding():
    # the 48x48 general model of the benchmark's cli-general panel, whose
    # pre and post networks squeeze with cosh x up to 135: the schedules'
    # residual must not grow with the squeezing
    real = synthesize_general(
        *random_general_model(48, 48, np.random.default_rng(3)))
    for network in (real.pre, real.post, real.r_feedback):
        schedule = schedule_static(network, kind="bogoliubov")
        assert schedule_residual(schedule, network) <= 1e-13


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
        worst = max(worst, schedule_residual(schedule, target))
    for target in (random_unitary(32, rng),
                   random_bogoliubov(32, seed=int(rng.integers(2 ** 31)))):
        schedule = schedule_static(target)
        worst = max(worst, schedule_residual(schedule, target))
    assert worst < 1e-7
