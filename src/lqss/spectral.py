"""Eigenvalue classification of coupling Gram matrices in the J-geometry.

For a doubled-up coupling matrix N (2m x 2n), the Gram matrix G = N^b N is
doubled-up and J-Hermitian (G^b = G).  Its eigenvalues come in the patterns

* real positive / real negative: eigenvectors appear in pairs (z, Sigma z#)
  with J-norms +1 / -1,
* complex conjugate quadruples: for each lambda with Im > 0 a pair
  (z1, z2) with <z1, z2> = 1 and all self-J-norms zero,
* zeros, split by whether the eigenvector is annihilated by N itself.

The routines here compute that classification and produce J-orthonormalized
eigenvectors in the normalizations required by the factorization code in
``dusvd``.  One Schur form G = Q T Q^dag, from ``krein.schur_form``, gives
every eigenvalue cluster.  G is doubled-up to rounding, so in practice it
passes that reduction's guard and is reduced in real arithmetic, through
the real Schur form of Phi G Phi^dag: real eigenvalues come out exactly
real, and each conjugate pair comes from one real 2 x 2 block.  A G that
fails the guard takes the complex Schur form.  Reordering the form
(LAPACK ``ztrsen``) to put a cluster's eigenvalues first makes the leading
Schur vectors Q1 an orthonormal basis of the cluster's invariant subspace,
and every structural decision is taken on the cluster's own block
B = T11 - lam I, with G Q1 = Q1 T11.  The eigenspace is
Q1 times the right singular vectors of B below the kernel cutoff, and the
right singular vectors above it span the generalized directions.  Real
eigenvalues carrying 2 x 2 Jordan blocks are returned as
generalized-eigenvector pairs, all of a cluster's pairs from one
eigendecomposition (``_jordan_pairs``), and larger Jordan blocks (B^2 not
zero) are rejected.  Every cutoff is a constant, so the coupling alone
fixes the classification (``krein_spectrum(gram, coupling)``).

Real clusters, Ker N and the zero modes outside it take their J-orthonormal
vectors from ``j_positive_vectors``: with E orthonormal and E^dag J E =
U D U^dag, one eigendecomposition, the best-conditioned basis E U+ D+^(-1/2).
A one-pair cluster gets the vector of earlier versions, a cluster of several
pairs another basis of the same span, so such models' netlists differ.

A real cluster is zero when its mean lies within the kernel cutoff TOL_RANK
of the origin; a larger eigenvalue, however small, is real positive or
negative.  Zero modes outside Ker N are supported only when their image
under N is J-neutral, the one test ``neutral_image``.  The classes of
``krein_spectrum`` answer every question asked of the spectrum: the
factorization in ``dusvd`` builds one block per class in their canonical
order, and ``check_degeneracy`` reads its verdict off the
``zero_off_kernel`` classes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import orjson

from .errors import (
    DegeneracyError,
    NumericalError,
    UnsupportedStructureError,
)
from .krein import (
    check_doubled_up,
    flat_adjoint,
    j_inner,
    jmat,
    schur_form,
    swap_conj,
)
from .lapack import ztrsen

# Classification bands, relative to max(1, ||G||_2).  Eigenvalues within
# TOL_CLUSTER of each other form one cluster, and a cluster within TOL_CLUSTER
# of the real axis is treated as real.  The band is wider than the kernel
# cutoff TOL_RANK because the eigenvalues of a defective (Jordan) matrix
# split like sqrt(machine eps) under rounding; 1e-8 would fail to re-merge
# them.  A real cluster is zero only within TOL_RANK of the origin, the
# cutoff at which its generalized directions are read.
TOL_RANK = 1e-8
TOL_CLUSTER = 1e-6

log = logging.getLogger("lqss")


@dataclass
class EigenClass:
    """One classified eigenvalue of the Gram matrix.

    ``vectors`` holds one entry per mode pair: a single J-normalized vector z
    (partner Sigma z# implied) for real and zero eigenvalues, or a tuple
    (z1, z2) for complex pairs and size-2 Jordan blocks.
    """

    kind: str  # real_positive | real_negative | complex_pair |
    #            zero_in_kernel | zero_off_kernel
    value: complex
    vectors: list = field(default_factory=list)
    jordan_size: int = 1

    @property
    def pair_count(self) -> int:
        return len(self.vectors)


@dataclass
class KreinSpectrum:
    """Classified spectrum of a Gram matrix G = N^b N, read off one Schur
    form (``krein.schur_form``: by the real route when G is doubled-up to
    within its guard, else the complex one) that is reordered once per
    eigenvalue cluster."""

    classes: list
    #: largest ||(G - lam I) E||_2 / (TOL_RANK * scale) over the semisimple
    #: clusters, each read off as ||B||_2 (at most 1)
    certificate_ratio: float


def j_gram(n: np.ndarray) -> np.ndarray:
    """Gram matrix N^b N of a doubled-up coupling matrix."""
    check_doubled_up(n, what="coupling matrix")
    return flat_adjoint(n) @ n


def null_space(a: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Orthonormal basis of the (numerical) kernel of a.

    The cutoff is ``1e-10 * scale``; by default ``scale`` is the largest
    singular value of ``a`` itself.  Pass an external scale when ``a`` is a
    shifted matrix that may be close to zero as a whole.
    """
    u, s, vh = np.linalg.svd(a)
    if scale is None:
        scale = s[0] if s.size else 0.0
    rank = int(np.sum(s > 1e-10 * scale))
    return vh[rank:].conj().T


def _orthonormal_columns(cols: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span, dropping near-null directions.

    The cutoff is absolute: callers pass unit-norm columns, so directions
    with singular value below 1e-8 are deflation residue, not signal.
    """
    if cols.size == 0:
        return cols.reshape(cols.shape[0], 0)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return cols[:, :0]
    return u[:, s > 1e-8]


def j_project_off(cols: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Remove from each column its J-orthogonal projection onto span(span).

    Requires the J-Gram of ``span`` to be invertible.
    """
    if span.shape[1] == 0:
        return cols
    j = jmat(span.shape[0])
    gram = span.conj().T @ j @ span
    coeff = np.linalg.solve(gram, span.conj().T @ j @ cols)
    return cols - span @ coeff


def j_positive_vectors(basis: np.ndarray, count: int | None) -> list:
    """J-orthonormal vectors of J-norm +1 from one eigendecomposition.

    ``basis`` must span a Sigma#-invariant subspace.  With ``work`` an
    orthonormal basis of it and work^dag J work = U D U^dag, z = work u /
    sqrt(<z, z>_J) for the ``count`` largest eigenvalues d, largest first:
    any ``count`` J-orthonormal vectors in the subspace have spectral norm at
    least 1 / sqrt(min d), which these attain.  The coefficients of each
    partner Sigma z# lie in the eigenspace of -d, so the vectors are
    J-orthogonal to one another and to every partner.
    ``count=None`` takes every eigenvalue above 1e-7, as the subspace may also
    hold J-neutral directions.  Raises ``NumericalError`` when ``count``
    exceeds half the dimension, ``DegeneracyError`` when a needed eigenvalue
    is at or below 1e-8.
    """
    work = _orthonormal_columns(np.asarray(basis, dtype=complex))
    gram = work.conj().T @ jmat(work.shape[0]) @ work
    gram = (gram + gram.conj().T) / 2
    evals, evecs = np.linalg.eigh(gram)
    if count is None:
        count = int(np.sum(evals > 1e-7))
    if 2 * count > work.shape[1]:
        raise NumericalError(
            f"subspace of dimension {work.shape[1]} holds fewer than the "
            f"{count} requested positive vectors")
    if count and evals[-count] <= 1e-8:
        raise DegeneracyError(
            "too few J-positive directions in subspace; the restricted "
            "inner product is degenerate")
    cols = (work @ evecs[:, -k] for k in range(1, count + 1))
    return [z / np.sqrt(j_inner(z, z).real) for z in cols]


def _cluster(values: np.ndarray, tol: float) -> list:
    """Group scalars linked by chains of pairwise distances below tol.

    Groups are the connected components of the distance graph, ordered by
    their smallest member index, with members in ascending order.  Each
    member's label falls to the smallest label among its neighbours (and to
    the label of that label) until it settles at the smallest index of its
    component.
    """
    values = np.asarray(values)
    if values.size == 0:
        return []
    near = np.abs(values[:, None] - values[None, :]) < tol
    np.fill_diagonal(near, True)
    labels = np.arange(values.size)
    while True:
        settled = np.where(near, labels, values.size).min(axis=1)
        settled = settled[settled]
        if np.array_equal(settled, labels):
            break
        labels = settled
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order])) + 1
    return [g.tolist() for g in np.split(order, starts)]


def _jordan_pairs(shifted: np.ndarray, cand: np.ndarray) -> tuple:
    """All size-2 Jordan pairs of a real cluster from one eigendecomposition.

    ``shifted`` is G - lam I and ``cand`` an orthonormal basis of the
    complement of the eigenspace in the cluster's invariant subspace.  For
    z2 = cand c the normalization constant <z2, (G - lam) z2>_J is the
    Hermitian form c^dag H c with H = cand^dag J (G - lam) cand (Hermitian
    because G is J-Hermitian).  Its eigenvectors c for the largest half of
    its eigenvalues g give z2 = cand c / sqrt(g) and z1 = (G - lam) z2, so
    <z1_i, z2_j>_J = delta_ij; a partner's coefficients lie in the
    eigenspace of -g, so each z2 is J-orthogonal to the partners Sigma z1#.
    Subtracting Z1 (Z2^dag J Z2) / 2 + Sigma Z1# conj(Z2^dag J Sigma Z2#) / 2
    from Z2 then makes the z2 J-neutral to one another and to every partner
    Sigma z2#.  Returns (Z1, Z2), one column per pair.
    """
    jm = jmat(shifted.shape[0])
    form = cand.conj().T @ jm @ shifted @ cand
    skew = np.linalg.norm(form - form.conj().T) / 2
    if skew > 1e-6 * max(1.0, np.linalg.norm(form)):
        raise NumericalError(
            "generalized eigenvector pairing produced a non-real "
            "normalization constant")
    evals, evecs = np.linalg.eigh((form + form.conj().T) / 2)
    count = cand.shape[1] // 2
    g = evals[::-1][:count]
    if g[-1] < 1e-8:
        raise NumericalError(
            "Jordan pair normalization constant is numerically zero")
    z2 = cand @ evecs[:, ::-1][:, :count] / np.sqrt(g)
    z1 = shifted @ z2
    z2 = (z2 - z1 @ (z2.conj().T @ jm @ z2) / 2
          - swap_conj(z1) @ np.conj(z2.conj().T @ jm @ swap_conj(z2)) / 2)
    return z1, z2


def _real_cluster_classes(gram, coupling, lam, scale, e1, cand, block):
    """Classify one real (possibly zero) eigenvalue cluster with eigenspace
    basis ``e1``, on whose invariant subspace G - lam I acts as ``block``.

    ``cand``, the orthonormal complement of ``e1`` in that subspace, holds
    one generalized direction per Jordan pair and partner.  Every pair comes
    from one ``_jordan_pairs`` call, and one J-projection takes the pairs
    and their partners off the eigenspace, leaving its semisimple part.
    """
    classes = []
    n_jordan = cand.shape[1]
    zero = lam == 0.0
    if n_jordan > 0:
        if np.linalg.norm(block @ block, 2) > 1e-6 * scale ** 2:
            raise UnsupportedStructureError(
                f"eigenvalue {lam:.6g} of the Gram matrix carries a "
                "Jordan block of size > 2")
        if n_jordan % 2:
            raise UnsupportedStructureError(
                f"eigenvalue {lam:.6g} has odd Jordan deficiency; only "
                "size-2 blocks in conjugate pairs are supported")
        z1, z2 = _jordan_pairs(gram - lam * np.eye(gram.shape[0]), cand)
        span = np.column_stack([z1, z2, swap_conj(z1), swap_conj(z2)])
        e1 = _orthonormal_columns(j_project_off(e1, span))
        pairs = list(zip(z1.T, z2.T))
        if zero:
            nnorm = max(1.0, np.linalg.norm(coupling))
            for pair in pairs:
                in_ker = np.linalg.norm(coupling @ pair[0]) <= 1e-7 * nnorm
                classes.append(EigenClass(
                    kind="zero_in_kernel" if in_ker else "zero_off_kernel",
                    value=0.0, vectors=[pair], jordan_size=2))
        else:
            kind = "real_positive" if lam > 0 else "real_negative"
            classes.append(EigenClass(kind=kind, value=lam,
                                      vectors=pairs, jordan_size=2))

    # remaining semisimple part of the eigenspace
    semi = e1.shape[1]
    if semi == 0:
        return classes
    if semi % 2:
        raise NumericalError(
            f"eigenspace of {lam:.6g} has odd dimension {semi} after "
            "Jordan extraction")

    if not zero:
        kind = "real_positive" if lam > 0 else "real_negative"
        vecs = j_positive_vectors(e1, semi // 2)
        classes.append(EigenClass(kind=kind, value=lam, vectors=vecs))
        return classes

    # zero eigenvalue: split by membership of the image under N
    classes.extend(_zero_semisimple_classes(coupling, e1))
    return classes


def _zero_semisimple_classes(coupling, e1):
    """Split semisimple kernel directions of the Gram matrix into modes in
    Ker N and modes outside it (the J-degenerate situation)."""
    classes = []
    semi = e1.shape[1]
    nnorm = max(1.0, np.linalg.norm(coupling))

    # kernel modes are J-positive directions killed by N and (after the
    # conjugation swap) by N again.  That swap-invariant space also picks
    # up J-neutral combinations contributed by off-kernel modes with a
    # neutral image, so the kernel pair count is the positive signature of
    # J restricted to it, not half its dimension.
    kn = _orthonormal_columns(
        e1 @ null_space(coupling @ e1, scale=nnorm))
    kn2 = _orthonormal_columns(
        kn @ null_space(coupling @ swap_conj(kn), scale=nnorm))
    # genuine kernel pairs contribute a +/- eigenvalue pair of magnitude
    # bounded away from zero; neutral pollution sits at machine precision
    kernel_vecs = j_positive_vectors(kn2, None)
    r_off = semi // 2 - len(kernel_vecs)
    if r_off < 0:
        raise NumericalError(
            "inconsistent rank margins while splitting the Gram kernel; "
            "the degeneracy structure is not numerically resolvable")

    if kernel_vecs:
        classes.append(EigenClass(kind="zero_in_kernel", value=0.0,
                                  vectors=kernel_vecs))
    if r_off > 0:
        work = e1
        if kernel_vecs:
            span = np.column_stack(
                [np.column_stack([z, swap_conj(z)]) for z in kernel_vecs])
            work = _orthonormal_columns(j_project_off(e1, span))
        off_vecs = j_positive_vectors(work, r_off)
        classes.append(EigenClass(kind="zero_off_kernel", value=0.0,
                                  vectors=off_vecs))
    return classes


def _complex_cluster_class(lam, mult, e_lam):
    """Build the paired-vector class for a complex eigenvalue (Im > 0) with
    eigenspace basis ``e_lam``."""
    dim = e_lam.shape[0]
    if e_lam.shape[1] != mult:
        raise UnsupportedStructureError(
            f"complex eigenvalue {lam:.6g} is not semisimple; Jordan "
            "structure at complex eigenvalues is not supported")
    # Skew bilinear pairing h(v, w) = (Sigma v#)^dag J w = v^T (Sigma J) w
    # between E_lam and itself; nondegenerate by J-nondegeneracy of the
    # eigenspace pairing.  A Darboux basis of h yields the required pairs.
    half = dim // 2

    def h(v, w):
        return complex(np.concatenate([v[half:], -v[:half]]) @ w)

    work = [e_lam[:, i] for i in range(e_lam.shape[1])]
    pairs = []
    while work:
        p = work.pop(0)
        if not work:
            raise NumericalError(
                "odd leftover dimension while pairing a complex eigenspace")
        vals = [abs(h(p, w)) for w in work]
        k = int(np.argmax(vals))
        if vals[k] < 1e-10:
            raise NumericalError(
                "degenerate skew pairing in complex eigenspace")
        q = work[k] / h(p, work[k])
        work.pop(k)
        new_work = []
        for u in work:
            u = u - h(p, u) * q + h(q, u) * p
            nu = np.linalg.norm(u)
            if nu > 1e-10:
                new_work.append(u)
        work = new_work
        z1 = p
        z2 = -swap_conj(q)
        pairs.append((z1, z2))
    return EigenClass(kind="complex_pair", value=lam, vectors=pairs)


def krein_spectrum(gram: np.ndarray, coupling: np.ndarray) -> KreinSpectrum:
    """Classify the spectrum of G = N^b N and return prepared eigenvectors.

    Raises UnsupportedStructureError for Jordan blocks of size > 2 and
    NumericalError when the classification is not numerically resolvable.
    """
    gram = np.asarray(gram, dtype=complex)
    if not np.isfinite(gram).all():
        raise NumericalError("Gram matrix N^b N is not finite: the coupling "
                             "is too large to square")
    dim = gram.shape[0]
    scale = max(1.0, float(np.linalg.norm(gram, 2)))
    cutoff = TOL_RANK * scale
    # Fortran order, so that no ztrsen call has to transpose T or Q
    t, q = map(np.asfortranarray, schur_form(gram))
    evals = t.diagonal()
    groups = _cluster(evals, TOL_CLUSTER * scale)

    classes = []
    worst = 0.0
    for idx in groups:
        lam = complex(np.mean(evals[idx]))
        mult = len(idx)
        real = abs(lam.imag) < TOL_CLUSTER * scale
        if real:
            lam = lam.real
            if abs(lam) < cutoff:
                lam = 0.0
        elif lam.imag < 0:
            # Im < 0 clusters are the conjugates of the Im > 0 ones; skip.
            continue
        elif mult % 2:
            raise NumericalError(
                f"complex eigenvalue {lam:.6g} has odd multiplicity")
        select = np.zeros(dim, dtype=np.int32)
        select[idx] = 1
        ts, qs = ztrsen(select, t, q)[:2]
        q1 = qs[:, :mult]
        block = ts[:mult, :mult] - lam * np.eye(mult)
        _, sv, vh = np.linalg.svd(block)
        rank = int(np.sum(sv > cutoff))
        if rank:
            basis = _orthonormal_columns(q1 @ vh[rank:].conj().T)
        else:
            basis = _orthonormal_columns(q1)
            worst = max(worst, float(sv[0]) / cutoff)
        if real:
            classes.extend(_real_cluster_classes(
                gram, coupling, lam, scale, basis,
                q1 @ vh[:rank].conj().T, block))
        else:
            classes.append(_complex_cluster_class(lam, mult, basis))

    _order_classes(classes)
    spec = KreinSpectrum(classes=classes, certificate_ratio=worst)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("krein_spectrum %s", orjson.dumps({
            "dim": dim, "clusters": len(groups), "classes": len(classes),
            "certificate_ratio": worst}).decode())
    # each real/zero pair covers 2 dimensions (z and its swap-conjugate);
    # complex pairs and Jordan pairs cover 4 (two columns plus partners)
    total = 2 * sum(
        c.pair_count
        * (2 if (c.jordan_size == 2 or c.kind == "complex_pair") else 1)
        for c in classes)
    if total != dim:
        raise NumericalError(
            f"classified multiplicities sum to {total}, expected {dim}; "
            "eigenvalue clustering failed")
    return spec


def _order_classes(classes: list) -> None:
    """Deterministic canonical ordering of classes and of vectors inside."""
    rank = {"real_positive": 0, "real_negative": 1, "complex_pair": 2,
            "zero_off_kernel": 4, "zero_in_kernel": 5}

    def key(c):
        primary = rank[c.kind] if c.jordan_size == 1 else 3
        return (primary, -abs(c.value), -np.real(c.value), -np.imag(c.value))

    classes.sort(key=key)


def neutral_image(coupling: np.ndarray, z_off: list) -> np.ndarray:
    """The image P = N [Z, Sigma Z#] of the zero modes z outside Ker N.

    It must be J-neutral, ||P P^b||_F <= 1e-8 max(1, ||P||_F)^2; otherwise
    no canonical factorization exists and ``DegeneracyError`` is raised.
    """
    zmat = np.column_stack(z_off)
    p = coupling @ np.column_stack([zmat, swap_conj(zmat)])
    neutral = float(np.linalg.norm(p @ flat_adjoint(p)))
    if not neutral <= 1e-8 * max(1.0, float(np.linalg.norm(p))) ** 2:
        raise DegeneracyError(
            "zero modes outside Ker N have a non-neutral image "
            f"(||P P^b|| = {neutral:.3e}); no canonical factorization exists")
    return p


def check_degeneracy(coupling: np.ndarray) -> str:
    """Classify the kernel structure of a coupling matrix.

    Reads the classes of ``krein_spectrum``, so it agrees with the
    factorization: 'nondegenerate' when no class is ``zero_off_kernel``
    (Ker(N^b N) = Ker N), 'degenerate_unsupported' when every such class is
    a Jordan block, and otherwise 'degenerate_special' or
    'degenerate_unsupported' as the semisimple zero modes outside Ker N
    pass or fail ``neutral_image`` (P P^b = 0).  Raises what
    ``krein_spectrum`` raises.
    """
    coupling = np.asarray(coupling, dtype=complex)
    off = [c for c in krein_spectrum(j_gram(coupling), coupling).classes
           if c.kind == "zero_off_kernel"]
    if not off:
        return "nondegenerate"
    z_off = [z for c in off if c.jordan_size == 1 for z in c.vectors]
    if not z_off:
        return "degenerate_unsupported"
    try:
        neutral_image(coupling, z_off)
    except DegeneracyError:
        return "degenerate_unsupported"
    return "degenerate_special"
