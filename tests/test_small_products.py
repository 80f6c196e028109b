"""The small matrix products of a ``simulate`` run go through numpy's own loops, not BLAS.

The photon model's gates, the oracle frames' site gates, the unitarity check
and the round-table compile multiply 2x2 to 4x4 matrices.  Through ``@``,
``np.dot`` or ``np.tensordot`` each is a BLAS call, and a matrix-matrix one is
OpenBLAS's level-3 ``zgemm``, which nothing else in the run calls: its code and
buffers raise the peak RSS, and its sums follow the BLAS library.  ``np.einsum`` without ``optimize`` sums in its
own loops (with ``optimize`` it may hand the product to ``tensordot``).
"""

import ast
import inspect
import textwrap

import numpy as np
import pytest

from mfsim import loss, statevec
from mfsim.errors import UsageError
from mfsim.statevec import StateVector, _apply, _check_unitary

SMALL_PRODUCTS = [statevec._apply, statevec._check_unitary, loss._stage, loss._round_outcomes,
                  loss._outcome_stack, loss.round_tables]
BLAS_CALLS = {"dot", "matmul", "tensordot"}


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-random unitary: the QR factor Q of a complex Gaussian, its columns' phases fixed."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def blas_products(source: str) -> list[tuple[int, str]]:
    """(line, form) of each ``@``, ``dot``, ``matmul``, ``tensordot`` and ``einsum(..., optimize=)``."""
    found = []
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BLAS_CALLS:
                found.append((node.lineno, name))
            elif name == "einsum" and any(kw.arg == "optimize" for kw in node.keywords):
                found.append((node.lineno, "einsum optimize"))
    return sorted(found)


def test_the_scan_sees_every_blas_form():
    source = ("def f(u, v):\n    w = u @ v\n    w @= v\n    np.dot(u, v)\n    u.dot(v)\n"
              "    np.matmul(u, v)\n    np.tensordot(u, v, 1)\n"
              "    np.einsum('ij,j->i', u, v, optimize=True)\n    np.einsum('ij,j->i', u, v)\n")
    assert blas_products(source) == [(2, "@"), (3, "@"), (4, "dot"), (5, "dot"), (6, "matmul"),
                                     (7, "tensordot"), (8, "einsum optimize")]


@pytest.mark.parametrize("func", SMALL_PRODUCTS, ids=lambda f: f"{f.__module__}.{f.__name__}")
def test_small_products_make_no_blas_call(func):
    assert blas_products(inspect.getsource(func)) == []


@pytest.mark.parametrize("n", range(2, 7))
def test_apply_equals_the_matrix_product(n):
    rng = np.random.default_rng(n)
    for k in (1, 2, 3):
        if k > n:
            continue
        for _ in range(4):
            qubits = tuple(int(q) for q in rng.permutation(n)[:k])
            u = haar_unitary(1 << k, rng)
            psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            psi /= np.linalg.norm(psi)
            idx = statevec._subset_index(n, qubits)
            expected = np.empty_like(psi)
            expected[idx] = u @ psi[idx]
            got = _apply(StateVector(psi), qubits, u).amplitudes
            assert np.abs(got - expected).max() <= 1e-15


@pytest.mark.parametrize("dim", [2, 4])
def test_check_unitary_still_rejects_nan_and_non_unitary(dim):
    u = haar_unitary(dim, np.random.default_rng(dim))
    assert _check_unitary(u, dim) is not None
    bad = u.copy()
    bad[0, 0] = np.nan
    with pytest.raises(UsageError, match="is not unitary"):
        _check_unitary(bad, dim)
    with pytest.raises(UsageError, match="is not unitary"):
        _check_unitary(1.01 * u, dim)
