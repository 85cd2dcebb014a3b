"""The compiled LAPACK routines of the toolkit, called without the GIL.

scipy's extension ``linalg/cython_lapack`` exports every LAPACK routine of
scipy's library as a C function pointer, one PyCapsule per routine in its
``__pyx_capi__``.  This module imports only the top-level ``scipy``
package, which on Windows also registers the folder of scipy's bundled
OpenBLAS, and loads the extension file itself, once, at import, as
``lqss.cython_lapack``: the ``scipy.linalg`` package, whose array-API layer
loads ``numpy.f2py``, ``numpy.testing`` and more, would cost more than half
of a cold start of the CLI.  The seven routines lqss calls are bound with
``ctypes.CFUNCTYPE``, which releases the GIL for the duration of each
call, so that two threads reduce or solve at once.

A raw pointer carries no shape, so each wrapper checks its inputs and
passes LAPACK only buffers of the routine's dtype, aligned, in Fortran
order and of the sizes LAPACK reads, copying the input where it is not so
and always where LAPACK overwrites it.  Input that does not fit raises
``ValueError`` before the call: no illegal argument reaches LAPACK.  Each
wrapper returns the tuple of the f2py wrapper of the same name in
``scipy.linalg.lapack``, with the options lqss uses fixed, and makes the
same LAPACK call with the same workspace, so every result is bit for bit
the one scipy gives:

* ``ztrtrs(a, b)``: an upper triangular solve, b one column or several;
* ``ztrsen(select, t, q)``: the reordering of a complex Schur form
  (``job="N"``);
* ``zgetrf(a)``, ``zgecon(a, anorm)`` (1-norm) and ``zgetrs(lu, piv, b)``,
  with scipy's 0-based pivots;
* ``gees(a)``: ``dgees`` for a real A, ``zgees`` for a complex one, a
  workspace query and then the unsorted Schur reduction;
* ``schur``, what ``scipy.linalg.schur(a)`` computes, from ``gees``;
* ``sqrtm``, the principal square root from the complex Schur form
  (Bjorck and Hammarling, Linear Algebra Appl. 52, 127, 1983).

The checks and ctypes cost each call 8 to 10 us more than scipy's f2py
wrapper takes (best of 5 x 2000 calls of ``ztrtrs`` at n = 4 to 48 on a
2-vCPU Xeon VM): under 1 ms in the 80 solves of a verify.

The same locator finds the OpenBLAS copies that numpy and scipy bundle,
whose thread-count setters the CLI calls.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import os
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np
import scipy

from .errors import NumericalError


def _installed(package, pattern: str) -> list:
    """The files that match ``pattern``, a glob relative to the folder of
    the installed ``package``, sorted."""
    folder = os.path.dirname(package.__file__)
    return sorted(glob.glob(os.path.join(folder, pattern)))


def _load_cython_lapack():
    pattern = os.path.join("linalg", "cython_lapack")
    paths = [p for suffix in EXTENSION_SUFFIXES
             for p in _installed(scipy, pattern + suffix)]
    if not paths:
        missing = os.path.join(os.path.dirname(scipy.__file__),
                               pattern + EXTENSION_SUFFIXES[0])
        raise ImportError(f"scipy's compiled LAPACK is missing: {missing}",
                          path=missing)
    # the module name must end in the extension's own name, cython_lapack
    spec = importlib.util.spec_from_file_location(
        f"{__package__}.cython_lapack", paths[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _bind(module, name: str):
    """The routine ``name`` of ``module.__pyx_capi__`` as a ctypes function
    that takes one address per parameter and releases the GIL.

    The capsule's name is the routine's C signature; one that is not a
    ``void`` function of pointers alone is an ``ImportError``.
    """
    capsule = module.__pyx_capi__[name]
    signature = _capsule_name(capsule)
    params = signature.removeprefix(b"void (").removesuffix(b")").split(b", ")
    if not signature.startswith(b"void (") or not all(
            p.endswith(b"*") for p in params):
        raise ImportError(f"scipy's LAPACK {name} has the unexpected "
                          f"signature {signature.decode()}")
    prototype = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * len(params))
    return prototype(_capsule_pointer(capsule, signature))


def _openblas_setters(package, symbol: str) -> list:
    """The ctypes function ``symbol`` of each OpenBLAS in the package's
    ``<package>.libs`` folder; a library or symbol that is not there is
    left out."""
    setters = []
    pattern = os.path.join(os.pardir, f"{package.__name__}.libs",
                           "libscipy_openblas*")
    for path in _installed(package, pattern):
        try:
            setter = getattr(ctypes.CDLL(path), symbol)
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setters.append(setter)
    return setters


_cython_lapack = _load_cython_lapack()
#: the bound routines, looked up at each call
_ROUTINES = {name: _bind(_cython_lapack, name) for name in (
    "dgees", "zgees", "ztrtrs", "ztrsen", "zgetrf", "zgecon", "zgetrs")}

#: the thread-count setters of the OpenBLAS pools that numpy and scipy
#: each bundle
OPENBLAS_THREAD_SETTERS = tuple(
    _openblas_setters(np, "scipy_openblas_set_num_threads64_")
    + _openblas_setters(scipy, "scipy_openblas_set_num_threads"))


def _call(name: str, *args) -> int:
    """Call the bound routine ``name`` and return its ``info``, the last
    argument, which the caller leaves out.

    An array is passed by the address of its data and an int or float by
    the address of a C copy; bytes (a LAPACK option letter) and None (a
    null pointer) pass as they are.  The caller holds every array until
    the call returns.
    """
    info = ctypes.c_int(0)
    scalars = []  # the C copies, alive until the call returns
    addresses = []
    for arg in args:
        kind = type(arg)
        if kind is np.ndarray:
            arg = arg.ctypes.data
        elif kind is int or kind is float:
            scalars.append((ctypes.c_int if kind is int else ctypes.c_double)(
                arg))
            arg = ctypes.addressof(scalars[-1])
        addresses.append(arg)
    _ROUTINES[name](*addresses, ctypes.addressof(info))
    return info.value


def _array(value, dtype, name: str, ndim=(2,), copy: bool = False):
    """``value`` as an aligned Fortran-ordered array of ``dtype``, a new one
    when ``copy`` (LAPACK overwrites it) or when ``value`` is not such an
    array already; ``ValueError`` when its entries do not convert without
    loss or it does not have ``ndim`` dimensions."""
    arr = np.asarray(value)
    if arr.ndim not in ndim:
        raise ValueError(f"{name} has {arr.ndim} dimensions, not "
                         f"{' or '.join(map(str, ndim))}")
    if arr.dtype != dtype:
        if not np.can_cast(arr.dtype, dtype, "same_kind"):
            raise ValueError(f"{name} has {arr.dtype} entries, not "
                             f"{np.dtype(dtype)}")
    elif not copy and arr.flags.f_contiguous and arr.flags.aligned:
        return arr
    return np.array(arr, dtype=dtype, order="F")


def _square(value, dtype, name: str, copy: bool = False):
    a = _array(value, dtype, name, copy=copy)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} is {a.shape[0]} x {a.shape[1]}, not square")
    return a


def _right_side(value, rows: int) -> tuple:
    """A copy of the right-hand side b, one column or several, of a system
    of ``rows`` equations, and its number of columns."""
    b = _array(value, complex, "b", ndim=(1, 2), copy=True)
    if b.shape[0] != rows:
        raise ValueError(f"b has {b.shape[0]} rows, not {rows}")
    return b, b.shape[1] if b.ndim == 2 else 1


def gees(a) -> tuple:
    """The unsorted Schur reduction of a copy of a square A with its
    optimal workspace, which a query finds first: ``dgees`` for a real A,
    ``zgees`` for a complex one, returning the tuple of scipy's wrapper,
    (T, sdim, wr, wi, Z, work, info) or (T, sdim, w, Z, work, info)."""
    real = not np.iscomplexobj(a)
    dtype = float if real else complex
    t = _square(a, dtype, "a", copy=True)
    n = len(t)
    lead = max(1, n)
    sdim = np.zeros(1, np.int32)
    values = [np.zeros(n), np.zeros(n)] if real else [np.zeros(n, complex)]
    z = np.zeros((lead, n), dtype, order="F")
    rwork = [] if real else [np.zeros(lead)]
    bwork = np.zeros(lead, np.int32)

    def reduce(work, lwork):
        return _call("dgees" if real else "zgees", b"V", b"N", None, n, t,
                     lead, sdim, *values, z, lead, work, lwork, *rwork,
                     bwork)

    query = np.zeros(1, dtype)
    reduce(query, -1)
    lwork = int(query[0].real)
    work = np.zeros(max(1, lwork), dtype)
    info = reduce(work, lwork)
    return (t, int(sdim[0]), *values, z, work, info)


def ztrtrs(a, b) -> tuple:
    """(X, info): the solution of A X = B for an upper triangular A, X of
    B's shape; info > 0 names a zero diagonal entry, and X is then B."""
    a = _square(a, complex, "a")
    n = len(a)
    x, columns = _right_side(b, n)
    info = _call("ztrtrs", b"U", b"N", b"N", n, columns, a, max(1, n), x,
                 max(1, n))
    return x, info


def ztrsen(select, t, q) -> tuple:
    """(T', Q', w, m, s, sep, info): the Schur form T = Q^dag A Q reordered
    so that the m eigenvalues that ``select`` marks come first, with Q
    updated; s and sep are not computed and read 0."""
    t = _square(t, complex, "t", copy=True)
    q = _square(q, complex, "q", copy=True)
    select = _array(select, np.int32, "select", ndim=(1,))
    n = len(t)
    if q.shape != t.shape or select.shape != (n,):
        raise ValueError(f"t, q and select do not fit: {t.shape}, "
                         f"{q.shape}, {select.shape}")
    w = np.zeros(n, complex)
    m, s, sep = np.zeros(1, np.int32), np.zeros(1), np.zeros(1)
    lwork = max(1, n)
    info = _call("ztrsen", b"N", b"V", select, n, t, lwork, q, lwork, w, m,
                 s, sep, np.zeros(lwork, complex), lwork)
    return t, q, w, int(m[0]), float(s[0]), float(sep[0]), info


def zgetrf(a) -> tuple:
    """(LU, piv, info): the LU factors of A with partial pivoting, row i
    swapped with row piv[i] (0-based); info > 0 names a zero pivot."""
    lu = _array(a, complex, "a", copy=True)
    rows, cols = lu.shape
    piv = np.zeros(min(rows, cols), np.int32)
    info = _call("zgetrf", rows, cols, lu, max(1, rows), piv)
    piv -= 1
    return lu, piv, info


def zgecon(a, anorm) -> tuple:
    """(rcond, info): the reciprocal 1-norm condition estimate of A from its
    LU factors ``a`` and the 1-norm ``anorm`` of A."""
    a = _square(a, complex, "a")
    n = len(a)
    anorm = float(anorm)
    if anorm < 0:
        raise ValueError(f"anorm is {anorm}, not a norm")
    rcond = np.zeros(1)
    info = _call("zgecon", b"1", n, a, max(1, n), anorm, rcond,
                 np.zeros(max(1, 2 * n), complex), np.zeros(max(1, 2 * n)))
    return float(rcond[0]), info


def zgetrs(lu, piv, b) -> tuple:
    """(X, info): the solution of A X = B from the LU factors and 0-based
    pivots that ``zgetrf`` gives, X of B's shape."""
    lu = _square(lu, complex, "lu")
    n = len(lu)
    piv = _array(piv, np.int32, "piv", ndim=(1,))
    if piv.shape != (n,) or not np.all((piv >= 0) & (piv < n)):
        raise ValueError(f"piv must hold {n} row indices from 0 to {n - 1}")
    x, columns = _right_side(b, n)
    info = _call("zgetrs", b"N", n, columns, lu, max(1, n), piv + 1, x,
                 max(1, n))
    return x, info


def schur(a: np.ndarray) -> tuple:
    """(T, Z) with A = Z T Z^dag: the real Schur form of a real A, the
    complex one of a complex A, as ``scipy.linalg.schur(a)`` gives them."""
    a = np.asarray(a)
    complex_input = np.iscomplexobj(a)
    if not np.isfinite(a).all():
        raise NumericalError("Schur form of a matrix with non-finite entries")
    if a.size == 0:
        empty = np.empty_like(a, dtype=complex if complex_input else float)
        return empty, empty.copy()
    result = gees(a)
    if result[-1]:
        raise NumericalError(
            f"Schur form of a {len(a)} x {len(a)} matrix not found "
            f"(LAPACK {'z' if complex_input else 'd'}gees info "
            f"{result[-1]})")
    return result[0], result[-3]


def sqrtm(a: np.ndarray) -> np.ndarray:
    """Principal square root of a square matrix A = Z T Z^dag.

    The root of the triangular T is R with the principal roots of T's
    diagonal on its diagonal.  R^2 = T fixes R's columns in turn: above
    the diagonal, column j solves (R_{<j,<j} + r_jj I) x = t_{<j,j}, one
    triangular solve.  A 1 x 1 matrix takes ``np.sqrt`` alone.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape == (1, 1):
        return np.sqrt(a)
    t, z = schur(a)
    root = np.diag(np.sqrt(t.diagonal()))
    for j in range(1, len(t)):
        shifted = root[:j, :j] + root[j, j] * np.eye(j)
        root[:j, j], info = ztrtrs(shifted, t[:j, j])
        if info:
            raise NumericalError(
                "no principal square root: r_ii + r_jj = 0 for a zero or "
                "negative real eigenvalue")
    return z @ root @ z.conj().T
