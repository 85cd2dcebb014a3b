"""Tests for the eigenvalue classification of coupling Gram matrices."""

import json
import logging

import numpy as np
import pytest

from helpers import (
    jordan_pairs,
    multiset_distance,
    pair_counts,
    planted_coupling,
    random_bogoliubov,
    random_general_model,
    recorded_callers,
    recorded_schur_routes,
)
from lqss import krein, spectral
from lqss.dusvd import bogoliubov_svd
from lqss.errors import (
    DegeneracyError,
    NumericalError,
    UnsupportedStructureError,
)
from lqss.general import synthesize
from lqss.krein import (
    doubled_up_residual,
    j_inner,
    jmat,
    phi_to_doubled,
    swap_conj,
)
from lqss.spectral import (
    TOL_RANK,
    _cluster,
    _jordan_pairs,
    check_degeneracy,
    j_gram,
    j_positive_vectors,
    krein_spectrum,
    null_space,
)
from lqss.statespace import Model, verify_realization
from test_general import N4

# real 6x6 matrix whose doubled-up image has (X^s X) nilpotent of index 3;
# exercises the Jordan-block size limit
JORDAN3_WITNESS = np.array([
    [0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0],
    [0, 0, -1, 0, 0, 0],
    [0, 0, 0, 0, 0, 1],
    [1, 0, 0, 0, 0, -1],
    [0, 0, -1, 0, 0, 0],
], dtype=float)

# one cavity coupled to 3 channels with equal passive and active weights:
# the Gram vanishes but N does not, and its image is J-neutral
_KAPPA = np.sqrt(np.array([1.0, 2.0, 3.0])).reshape(3, 1)
CRITERION3 = np.block([[_KAPPA, _KAPPA], [_KAPPA, _KAPPA]]).astype(complex)


def nonneutral_coupling():
    # doubled-up image of a real 4x2 matrix with extra Gram-kernel
    # directions whose image is not J-neutral (P P^b != 0)
    x = np.zeros((4, 2))
    x[0, 0] = 1.0
    x[1, 1] = 1.0
    return phi_to_doubled(x)


def passive_doubled(n1):
    """Doubled-up coupling with no active half-block."""
    return np.block([[n1, np.zeros_like(n1)],
                     [np.zeros_like(n1), np.conj(n1)]])


class TestUtilities:
    def test_null_space_of_projector(self):
        a = np.diag([1.0, 1.0, 0.0])
        ns = null_space(a)
        assert ns.shape == (3, 1)
        assert np.linalg.norm(a @ ns) < 1e-12

    def test_null_space_external_scale(self):
        # a tiny residue matrix has full "relative" rank but no kernel
        # relative to the problem scale
        a = 1e-14 * np.ones((2, 2))
        assert null_space(a, scale=1.0).shape[1] == 2


class TestJPositiveVectors:
    def test_full_space(self):
        basis = np.eye(4, dtype=complex)
        vecs = j_positive_vectors(basis, 2)
        assert len(vecs) == 2
        for i, z in enumerate(vecs):
            assert abs(j_inner(z, z) - 1.0) < 1e-10
            for w in vecs[:i]:
                assert abs(j_inner(z, w)) < 1e-8
                assert abs(j_inner(z, swap_conj(w))) < 1e-8

    def test_exhaustion(self):
        with pytest.raises(NumericalError):
            j_positive_vectors(np.eye(4, dtype=complex), 3)

    def test_degenerate_subspace(self):
        # span{e1 + e3, e2 + e4} is swap-invariant and J-neutral
        basis = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=complex)
        with pytest.raises(DegeneracyError):
            j_positive_vectors(basis, 1)

    def test_multi_pair_from_one_eigh(self, monkeypatch):
        # three of the five pairs of a random Bogoliubov matrix span a
        # swap-invariant subspace; hand it over in a scrambled basis
        rng = np.random.default_rng(7)
        k, p = 5, 3
        t = random_bogoliubov(k, seed=8)
        span = np.column_stack([t[:, :p], t[:, k:k + p]])
        mix = rng.normal(size=(2 * p, 2 * p)) + 1j * rng.normal(
            size=(2 * p, 2 * p))
        calls = []
        eigh = np.linalg.eigh

        def spy(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        zmat = np.column_stack(j_positive_vectors(span @ mix, p))
        monkeypatch.undo()
        assert calls == [(2 * p, 2 * p)]
        j = jmat(2 * k)
        assert np.linalg.norm(zmat.conj().T @ j @ zmat - np.eye(p)) < 1e-10
        partners = swap_conj(zmat)
        assert np.linalg.norm(zmat.conj().T @ j @ partners) < 1e-10
        # inside the subspace, and as short as a J-orthonormal basis of it
        # can be: 1 / sqrt of the smallest positive eigenvalue of the
        # subspace's J-Gram in an orthonormal basis
        q, _ = np.linalg.qr(span)
        assert np.linalg.norm(zmat - q @ (q.conj().T @ zmat)) < 1e-10
        d = np.linalg.eigvalsh(q.conj().T @ j @ q)
        assert np.linalg.norm(zmat, 2) == pytest.approx(
            1 / np.sqrt(d[-p]), rel=1e-10)


class TestClassification:
    def test_passive_coupling_all_positive(self):
        rng = np.random.default_rng(22)
        n1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        n = passive_doubled(n1)
        spec = krein_spectrum(j_gram(n), n)
        assert pair_counts(spec) == (3, 0, 0, 0, 0)

    def test_active_coupling_all_negative(self):
        rng = np.random.default_rng(23)
        n2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        z = np.zeros_like(n2)
        n = np.block([[z, n2], [np.conj(n2), z]])
        spec = krein_spectrum(j_gram(n), n)
        assert pair_counts(spec).r_plus == 0
        assert pair_counts(spec).r_minus == 2

    def test_kernel_modes_counted(self):
        rng = np.random.default_rng(24)
        n1 = np.zeros((2, 3), dtype=complex)
        n1[:, :2] = rng.normal(size=(2, 2))
        n = passive_doubled(n1)
        spec = krein_spectrum(j_gram(n), n)
        assert pair_counts(spec).r_plus == 2
        assert pair_counts(spec).r_0_kernel == 1
        assert pair_counts(spec).r_0_off_kernel == 0

    def test_planted_complex_pair(self):
        rng = np.random.default_rng(25)
        n, expected, _, _ = planted_coupling([("pair", 1.5 + 2.0j)], rng)
        spec = krein_spectrum(j_gram(n), n)
        assert pair_counts(spec).r_c == 1
        (cls,) = [c for c in spec.classes if c.kind == "complex_pair"]
        assert abs(cls.value - (1.5 + 2.0j)) < 1e-8
        # pair normalization: <z1, z2> = 1, self-inner-products vanish
        z1, z2 = cls.vectors[0]
        assert abs(j_inner(z1, z2) - 1.0) < 1e-8
        assert abs(j_inner(z1, z1)) < 1e-8
        assert abs(j_inner(z2, z2)) < 1e-8

    def test_planted_mixed_signs(self):
        rng = np.random.default_rng(26)
        n, _, _, _ = planted_coupling(
            [("pos", 2.0), ("neg", -3.0)], rng, extra_modes=1)
        spec = krein_spectrum(j_gram(n), n)
        counts = pair_counts(spec)
        assert (counts.r_plus, counts.r_minus, counts.r_0_kernel) == (1, 1, 1)

    def test_real_eigenvector_normalization(self):
        rng = np.random.default_rng(27)
        n, _, _, _ = planted_coupling([("pos", 4.0), ("pos", 1.0)], rng)
        gram = j_gram(n)
        spec = krein_spectrum(gram, n)
        assert {(c.kind, c.jordan_size) for c in spec.classes} == {
            ("real_positive", 1)}
        for cls in spec.classes:
            for z in cls.vectors:
                assert abs(j_inner(z, z) - 1.0) < 1e-8
                assert np.linalg.norm(gram @ z - cls.value * z) < 1e-7

    def test_planted_jordan_pair_detected(self):
        rng = np.random.default_rng(28)
        n, _, _, _ = planted_coupling([("jordan", 1.3)], rng)
        gram = j_gram(n)
        spec = krein_spectrum(gram, n)
        pairs = jordan_pairs(spec)
        assert len(pairs) == 1
        (z1, z2) = pairs[0].vectors[0]
        lam = pairs[0].value
        shifted = gram - lam * np.eye(gram.shape[0])
        # z2 is the generalized vector: (G - lam) z2 = z1, (G - lam) z1 = 0
        assert np.linalg.norm(shifted @ z2 - z1) < 1e-5
        assert np.linalg.norm(shifted @ z1) < 1e-5
        assert abs(j_inner(z1, z2) - 1.0) < 1e-5
        assert abs(j_inner(z2, z2)) < 1e-5

    def test_jordan3_rejected(self):
        n = phi_to_doubled(JORDAN3_WITNESS)
        with pytest.raises(UnsupportedStructureError,
                           match="Jordan block of size > 2"):
            krein_spectrum(j_gram(n), n)

    def test_degenerate_zero_split(self):
        # one-mode cavity coupled to 3 channels with equal passive and
        # active weights: the Gram vanishes but N does not
        kappa = np.sqrt(np.array([1.0, 2.0, 3.0]))
        n1 = kappa.reshape(3, 1)
        n = np.block([[n1, n1], [n1, n1]]).astype(complex)
        spec = krein_spectrum(j_gram(n), n)
        assert pair_counts(spec).r_0_off_kernel == 1
        assert pair_counts(spec).r_0_kernel == 0


class TestCheckDegeneracy:
    def test_nondegenerate(self):
        rng = np.random.default_rng(29)
        n1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert check_degeneracy(passive_doubled(n1)) == "nondegenerate"

    def test_special(self):
        assert check_degeneracy(CRITERION3) == "degenerate_special"

    def test_unsupported(self):
        n = nonneutral_coupling()
        result = check_degeneracy(n)
        assert result == "degenerate_unsupported"

    @pytest.mark.parametrize("coupling, verdict, error", [
        (N4, "nondegenerate", None),
        (CRITERION3, "degenerate_special", None),
        (nonneutral_coupling(), "degenerate_unsupported",
         UnsupportedStructureError),
        # ||P P^b|| = 1.4e-8 for the zero mode of Gram eigenvalue 1e-8
        (passive_doubled(np.diag([1.0, 1e-4])), "degenerate_unsupported",
         DegeneracyError),
        # small semisimple eigenvalues 1e-6 and 9e-8, above the kernel
        # cutoff but inside the cluster band
        (passive_doubled(np.diag([1.0, 1e-3])), "nondegenerate", None),
        (passive_doubled(np.diag([1.0, 3e-4])), "nondegenerate", None),
    ], ids=["N4", "criterion3", "nonneutral", "sigma1e-4", "sigma1e-3",
            "sigma3e-4"])
    def test_agrees_with_synthesis(self, coupling, verdict, error):
        # the verdict and the factorization read one classification:
        # a refusal is "degenerate_unsupported", a supported kernel verifies
        assert check_degeneracy(coupling) == verdict
        model = Model(kind="general",
                      m_mat=np.zeros((coupling.shape[1],) * 2),
                      n_mat=coupling)
        if error is not None:
            with pytest.raises(error):
                synthesize(model)
            return
        report = verify_realization(model, synthesize(model))
        assert report.passed, report.summary()


def test_spectrum_dimension_accounting():
    rng = np.random.default_rng(30)
    n, _, _, nn = planted_coupling(
        [("pos", 3.0), ("pair", 0.5 + 1.0j), ("neg", -1.2)], rng,
        extra_modes=1, extra_ports=1)
    spec = krein_spectrum(j_gram(n), n)
    counts = pair_counts(spec)
    total_pairs = (counts.r_plus + counts.r_minus + 2 * counts.r_c
                   + counts.r_0_off_kernel + counts.r_0_kernel)
    assert total_pairs == nn


class TestCluster:
    def test_transitive_chain(self):
        # a~b and b~c, but |a - c| > tol: one group through the chain
        values = np.array([0.0, 0.9, 5.0, 0.9 + 0.9j])
        assert _cluster(values, 1.0) == [[0, 1, 3], [2]]
        assert abs(values[0] - values[3]) > 1.0

    def test_groups_ordered_by_smallest_member(self):
        values = np.array([5.0, 0.0, 5.0 + 1e-9, 7.0, 1e-9j])
        assert _cluster(values, 1e-6) == [[0, 2], [1, 4], [3]]

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_matches_union_find(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=60) + 1j * rng.normal(size=60)
        values[::3] = values[1::3] + 0.01 * rng.normal(size=20)
        for tol in (1e-3, 0.05, 0.3):
            assert _cluster(values, tol) == _cluster_union_find(values, tol)


def _cluster_union_find(values, tol):
    """Loop reference for _cluster: union-find over all close pairs."""
    n = len(values)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(n):
        for k in range(i + 1, n):
            if abs(values[i] - values[k]) < tol:
                ri, rk = find(i), find(k)
                if ri != rk:
                    parent[max(ri, rk)] = min(ri, rk)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


PLANTED_SEMISIMPLE = [
    [("pos", 2.0), ("neg", -1.5)],
    [("pair", 1.0 + 2.0j), ("pos", 0.6)],
    [("deg", [0.7, 1.1]), ("neg", -0.4)],
    [("pos", 2.0), ("neg", -1.5), ("pair", 1.0 + 2.0j), ("deg", [0.7])],
]


class TestEigenvectorFastPath:
    """Every eigenspace comes from the cluster's leading Schur vectors after
    one reordering of one complex Schur form."""

    def _check(self, coupling, expected):
        """Each semisimple vector z of eigenvalue mu has ||G z - mu z|| at
        most the kernel cutoff times ||z||, and the classified eigenvalues,
        with their multiplicities, are ``expected``."""
        gram = j_gram(coupling)
        scale = max(1.0, np.linalg.norm(gram, 2))
        spec = krein_spectrum(gram, coupling)
        values = []
        for cls in spec.classes:
            lam = cls.value
            if cls.jordan_size == 2:
                values += [lam] * 4 * cls.pair_count
                continue
            if cls.kind == "complex_pair":
                # z1 belongs to lam and z2 to its conjugate
                eigen = [(z, mu) for pair in cls.vectors
                         for z, mu in zip(pair, (lam, np.conj(lam)))]
            else:
                eigen = [(z, lam) for z in cls.vectors]
            for z, mu in eigen:
                resid = np.linalg.norm(gram @ z - mu * z)
                assert resid <= TOL_RANK * scale * np.linalg.norm(z)
                values += [mu, np.conj(mu)]
        assert multiset_distance(expected, values) < 1e-6 * scale
        return spec

    @pytest.mark.parametrize("n,m", [(16, 16), (24, 16), (32, 32)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_general_models(self, n, m, seed):
        _, coupling = random_general_model(n, m,
                                           np.random.default_rng(seed))
        expected = np.linalg.eigvals(j_gram(coupling))
        spec = self._check(coupling, expected)
        assert 0.0 < spec.certificate_ratio <= 1.0

    @pytest.mark.parametrize("specs", PLANTED_SEMISIMPLE)
    def test_planted(self, specs):
        rng = np.random.default_rng(len(specs))
        coupling, expected, _, _ = planted_coupling(specs, rng, extra_modes=1,
                                                    extra_ports=1)
        spec = self._check(coupling, expected)
        assert pair_counts(spec).r_0_kernel == 1

    def test_jordan_takes_svd_fallback(self):
        rng = np.random.default_rng(40)
        coupling, expected, _, _ = planted_coupling(
            [("pos", 2.0), ("jordan", 1.3)], rng)
        spec = self._check(coupling, expected)
        (pair,) = jordan_pairs(spec)
        assert pair.jordan_size == 2
        assert abs(pair.value - 1.3) < 1e-5

    def test_one_schur_form_and_no_full_size_svd(self, monkeypatch):
        # the scale ||G||_2 is one more SVD, inside np.linalg.norm, which
        # this spy does not see
        rng = np.random.default_rng(40)
        coupling, _, _, _ = planted_coupling(
            [("pos", 2.0), ("jordan", 1.3)], rng)
        gram = j_gram(coupling)
        schurs, svds = [], []
        real_schur, real_svd = krein.schur, np.linalg.svd

        def spy_schur(a, *args, **kwargs):
            schurs.append(a.shape)
            return real_schur(a, *args, **kwargs)

        def spy_svd(a, *args, **kwargs):
            svds.append(a.shape)
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(krein, "schur", spy_schur)
        monkeypatch.setattr(np.linalg, "svd", spy_svd)
        spec = krein_spectrum(gram, coupling)
        assert len(jordan_pairs(spec)) == 1
        assert schurs == [gram.shape]
        assert svds and gram.shape not in svds


class TestSchurRoute:
    """The Gram matrix is reduced by ``krein.schur_form``: in real
    arithmetic when it is doubled-up, which G = N^b N of a doubled-up N is
    to rounding, and by the complex Schur form otherwise."""

    @staticmethod
    def _summary(spec):
        return sorted((c.kind, c.jordan_size, c.pair_count)
                      for c in spec.classes)

    @staticmethod
    def _values(spec):
        return np.array([c.value for c in spec.classes])

    @pytest.mark.parametrize("n, m, seed",
                             [(8, 6, 3), (16, 16, 0), (32, 32, 46)])
    def test_doubled_up_gram_takes_the_real_route(self, n, m, seed,
                                                  monkeypatch):
        _, coupling = random_general_model(n, m, np.random.default_rng(seed))
        routes = recorded_schur_routes(monkeypatch)
        krein_spectrum(j_gram(coupling), coupling)
        assert routes == ["real"]

    @pytest.mark.parametrize("planted", [False, True])
    def test_nearly_doubled_up_gram_takes_the_complex_route(self, planted,
                                                            monkeypatch):
        # the bump J H, H Hermitian, keeps G J-Hermitian but moves it about
        # 1e-10 relative off the doubled-up structure; a semisimple
        # spectrum moves by about as much, far inside TOL_CLUSTER.  G is
        # then no longer N^b N, so no zero mode is planted: deciding
        # whether one lies in Ker N takes N z below 1e-10 ||N||.
        rng = np.random.default_rng(11)
        if planted:
            coupling, _, _, _ = planted_coupling(
                [("pos", 2.0), ("neg", -1.5), ("pair", 1 + 2j)], rng,
                extra_ports=1)
        else:
            _, coupling = random_general_model(16, 16, rng)
        gram = j_gram(coupling)
        dim = gram.shape[0]
        herm = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        bump = jmat(dim) @ (herm + herm.conj().T)
        bumped = gram + (1e-10 * np.linalg.norm(gram)
                         / np.linalg.norm(bump)) * bump
        assert doubled_up_residual(bumped) > 1e-11 * np.linalg.norm(gram)
        routes = recorded_schur_routes(monkeypatch)
        real = krein_spectrum(gram, coupling)
        cplx = krein_spectrum(bumped, coupling)
        assert routes == ["real", "complex"]
        assert self._summary(cplx) == self._summary(real)
        scale = max(1.0, np.linalg.norm(gram, 2))
        assert (np.abs(self._values(cplx) - self._values(real)).max()
                <= 1e-8 * scale)


MIXED = [("pos", 2.0), ("neg", -1.5), ("pair", 1 + 2j), ("jordan", 1.3),
         ("deg", [0.7, 1.1])]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mixed_structure_factors(k, seed):
    # every planted Jordan block has size 2, however many share lam = 1.3;
    # each "deg" block plants two zero modes outside Ker N
    coupling, _, _, _ = planted_coupling(MIXED * k,
                                         np.random.default_rng(seed))
    spec = krein_spectrum(j_gram(coupling), coupling)
    assert pair_counts(spec) == (k, k, k, 2 * k, 0)
    (pair,) = jordan_pairs(spec)
    assert (pair.kind, pair.pair_count) == ("real_positive", k)
    assert bogoliubov_svd(coupling).residual < 1e-8


JORDAN_CASES = {f"mixed-x{k}": MIXED * k for k in (2, 3, 4)}
JORDAN_CASES.update({f"jordan{lam}-x3": [("jordan", lam)] * 3
                     for lam in (1.3, -0.8)})


@pytest.mark.parametrize("specs", JORDAN_CASES.values(),
                         ids=JORDAN_CASES.keys())
def test_jordan_pairs_from_one_eigh(specs, monkeypatch):
    # every pair of the cluster comes from one eigh of the pairing form,
    # and one J-projection takes all pairs off the eigenspace
    coupling, _, _, _ = planted_coupling(specs, np.random.default_rng(0))
    eighs = recorded_callers(monkeypatch, np.linalg, "eigh")
    projections = recorded_callers(monkeypatch, spectral, "j_project_off")
    spec = krein_spectrum(j_gram(coupling), coupling)
    (cls,) = jordan_pairs(spec)
    assert len([c for c in eighs if c != "j_positive_vectors"]) == 1
    assert len(projections) == 1
    k = cls.pair_count
    assert k == sum(s[0] == "jordan" for s in specs)
    z1, z2 = (np.column_stack(z) for z in zip(*cls.vectors))
    cols = np.column_stack([z1, z2, swap_conj(z1), swap_conj(z2)])
    one, nil = np.eye(k), np.zeros((k, k))
    # <z1_i, z2_j> = delta_ij, partners carry the opposite sign, and every
    # other J-product among the pairs and their partners vanishes, each to
    # 1e-10 of the product of the two vectors' norms (the Gram of MIXED * 4
    # has norm ~500, and rounding in it leaves ~1e-9 absolute)
    expected = np.block([[nil, one, nil, nil], [one, nil, nil, nil],
                         [nil, nil, nil, -one], [nil, nil, -one, nil]])
    forms = cols.conj().T @ jmat(cols.shape[0]) @ cols
    norms = np.linalg.norm(cols, axis=0)
    assert (np.abs(forms - expected) / np.outer(norms, norms)).max() < 1e-10


class TestSpectrumDiagnostics:
    def test_fields_and_debug_line(self, caplog):
        _, coupling = random_general_model(8, 8, np.random.default_rng(4))
        with caplog.at_level(logging.DEBUG, logger="lqss"):
            spec = krein_spectrum(j_gram(coupling), coupling)
        assert 0.0 < spec.certificate_ratio <= 1.0
        (record,) = [r for r in caplog.records
                     if r.getMessage().startswith("krein_spectrum")]
        assert record.levelno == logging.DEBUG
        fields = json.loads(record.getMessage().split(" ", 1)[1])
        assert "svd_fallbacks" not in fields
        assert fields["certificate_ratio"] == spec.certificate_ratio


def test_jordan_pairing_rejects_non_hermitian_form():
    # G = [[0, 1], [0, 0]] is not J-Hermitian, so the pairing form
    # cand^dag J G cand has an anti-Hermitian part
    gram = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NumericalError, match="non-real"):
        _jordan_pairs(gram, np.eye(2, dtype=complex))


def test_non_finite_gram_is_refused():
    # a coupling that passes the model check (and j_gram's doubled-up
    # check) has a finite Gram matrix; a library caller's overflowing
    # N^b N is refused by name, before its Schur form
    _, n = random_general_model(3, 2, np.random.default_rng(0))
    big = n * 1e160
    with np.errstate(over="ignore", invalid="ignore"):
        gram = krein.flat_adjoint(big) @ big
    with pytest.raises(NumericalError, match="Gram matrix N\\^b N is not "
                       "finite"):
        krein_spectrum(gram, big)
