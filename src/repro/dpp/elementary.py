"""Size distributions and k-DPP normalization via elementary symmetric polynomials.

For an ensemble matrix ``L`` with eigenvalues ``λ``:

* the DPP's size distribution is ``P[|S| = t] = e_t(λ) / det(I + L)``;
* the k-DPP's partition function is ``e_k(λ)`` [KT12b];
* the k-DPP's marginals admit the spectral formula
  ``P[i ∈ S] = Σ_j (v_{ji}^2 λ_j e_{k-1}(λ_{-j})) / e_k(λ)``.

The ``e_{k-1}(λ_{-j})`` terms come from prefix and suffix ESP tables, combined
without division (numerically safer than the division recurrence when
eigenvalues repeat or vanish).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.linalg.esp import elementary_symmetric_polynomials
from repro.pram.tracker import current_tracker
from repro.utils.validation import check_square


def dpp_size_distribution(L: np.ndarray) -> np.ndarray:
    """``P[|S| = t]`` for ``t = 0..n`` for the (symmetric) DPP with ensemble ``L``."""
    a = check_square(L, "L")
    n = a.shape[0]
    current_tracker().charge_determinant(n)
    if n == 0:
        return np.array([1.0])
    eigenvalues = np.linalg.eigvalsh(0.5 * (a + a.T)) if np.allclose(a, a.T) else np.real(np.linalg.eigvals(a))
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    esp = elementary_symmetric_polynomials(eigenvalues)
    total = esp.sum()
    if total <= 0:
        raise ValueError("ensemble matrix defines a zero measure")
    return esp / total


def kdpp_normalization(L: np.ndarray, k: int) -> float:
    """k-DPP partition function ``e_k(λ(L)) = Σ_{|S|=k} det(L_S)``."""
    a = check_square(L, "L")
    n = a.shape[0]
    if k < 0 or k > n:
        return 0.0
    current_tracker().charge_determinant(n)
    if np.allclose(a, a.T):
        eigenvalues = np.linalg.eigvalsh(a)
    else:
        eigenvalues = np.linalg.eigvals(a)
    coeffs = np.poly(-eigenvalues)  # prod (t + lambda_i); coeff of t^{n-k} is e_k
    return float(np.real_if_close(coeffs[k], tol=1e8).real)


def leave_one_out_esp(values: np.ndarray, order: int) -> np.ndarray:
    """``e_order(values with entry j removed)`` for every ``j`` (vector of length n).

    With prefix ESPs ``pre_j[a] = e_a(values[:j])`` and suffix ESPs
    ``suf_j[b] = e_b(values[j:])``, ``loo_j = Σ_a pre_j[a] · suf_{j+1}[order - a]``:
    ``O(n · order)`` with no division.  Each table is built one order at a
    time, ``pre_{j+1}[a] = pre_j[a] + x_j · pre_j[a - 1]``, as cumulative sums
    over ``j``.
    """
    vals = np.asarray(values, dtype=float).ravel()
    n = vals.size
    if order < 0 or order > n - 1:
        return np.zeros(n)
    prefix = np.zeros((n + 1, order + 1))
    suffix = np.zeros((n + 1, order + 1))
    prefix[:, 0] = suffix[:, 0] = 1.0
    for a in range(1, order + 1):
        prefix[1:, a] = np.cumsum(vals * prefix[:-1, a - 1])
        suffix[:-1, a] = np.cumsum((vals * suffix[1:, a - 1])[::-1])[::-1]
    return np.einsum("ja,ja->j", prefix[:-1], suffix[1:, ::-1])


def kdpp_marginals_spectral(L: np.ndarray, k: int) -> np.ndarray:
    """All marginals ``P[i ∈ S]`` of the k-DPP with symmetric PSD ensemble ``L``.

    One eigendecomposition plus an ``O(n k)`` post-processing; charged as a
    single batched-oracle round.
    """
    a = check_square(L, "L")
    n = a.shape[0]
    if not (0 <= k <= n):
        raise ValueError(f"k must lie in [0, {n}], got {k}")
    tracker = current_tracker()
    tracker.charge_determinant(n)
    if k == 0:
        return np.zeros(n)
    if k == n:
        return np.ones(n)
    eigenvalues, vectors = np.linalg.eigh(0.5 * (a + a.T))
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    ek = elementary_symmetric_polynomials(eigenvalues, max_order=k)[k]
    if ek <= 0:
        raise ValueError(f"k-DPP with k={k} has zero partition function (rank too small)")
    loo = leave_one_out_esp(eigenvalues, k - 1)
    weights = eigenvalues * loo / ek  # probability eigenvector j is selected
    marginals = (vectors ** 2) @ weights
    return np.clip(marginals, 0.0, 1.0)
