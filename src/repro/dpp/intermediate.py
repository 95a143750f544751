"""Exact intermediate sampling for low-rank DPPs — the sublinear front end.

For ``L = B Bᵀ`` with ``B`` of rank ``k`` (``k ≪ n``), the HKPV sampler's
mixture decomposition still applies, but every mixture component is a
*projection* DPP of rank at most ``k`` — so a sample touches at most ``k``
elements, and running phase 2 against all ``n`` rows wastes almost all of the
work.  The intermediate-sampling scheme of Derezinski et al. (and the
sublinear-time samplers of PAPERS.md: Barthelmé–Tremblay–Amblard 2210.17358,
Anari–Liu–Vuong 2204.02570) fixes this *exactly*:

1. **dual phase 1** — eigendecompose the ``k x k`` Gram ``C = BᵀB`` (its
   spectrum is the nonzero spectrum of ``L``) and select the mixture
   component: Bernoulli ``λ/(1+λ)`` per eigenvalue for the DPP,
   the elementary-symmetric-polynomial recursion
   (:func:`repro.dpp.spectral.select_kdpp_eigenvectors`) for the k-DPP.
   Selected component: the projection DPP on the rows of the whitened
   coordinates ``U = B V_sel Λ_sel^{-1/2}`` (``m`` columns).
2. **candidates** — draw an intermediate set ``A`` by independent Bernoullis
   ``q_i = min(1, β·ℓ_i)`` where ``ℓ_i = ||c_i||²`` are the dual leverage
   scores (``Σ ℓ_i = rank``, so ``E|A| ≤ β·k`` — the ``O(k log k)``-sized
   candidate set).
3. **acceptance correction** — accept ``A`` with probability
   ``det(W̃ᵀW̃) / det(G_mask)`` where ``W̃`` are the candidate rows rescaled
   by ``1/√q`` and ``G_mask = Σ_i c_i c_iᵀ / q_i ⪰ I``.  A short calculation
   (``Σ_{A ⊇ S} P[A]·α(A)·P_phase2[S | A] = det(U_S U_Sᵀ)/det(G_mask)``)
   shows the output conditioned on acceptance is *exactly* the selected
   projection DPP — no approximation parameter anywhere.  By Cauchy–Binet
   ``E[det(W̃ᵀW̃)] = Σ_{|T|=m} det(U_T)² = 1``, so the *expected* acceptance
   is exactly ``exp(-log det G_mask)`` — a computable certificate.  When it
   predicts near-certain rejection (``log det G_mask`` above a small
   threshold) the proposal is skipped *without consuming randomness* and
   ``β`` doubles; rejected draws escalate the same way.  Each trial is exact
   conditioned on its own acceptance and the skip rule is a deterministic
   function of the proposal parameters, so escalation preserves the law.
   After ``max_rounds`` escalations ``q ≡ 1`` makes ``A = [n]`` and
   ``α = 1``, degrading gracefully to the direct route.  (For strongly
   non-uniform leverages — the realistic quality/diversity regime — small
   candidate sets accept at Θ(1) rate; perfectly flat leverages carry no
   sublinear structure and the sampler walks straight to the direct route.)
4. **phase 2 on the reduced kernel** — restrict to the candidates: by
   Cauchy–Binet the ``m``-DPP on ``L_red = W̃ W̃ᵀ`` (``|A| x |A|``) is
   precisely the required volume sampling over candidate rows.  Small pools
   run the existing exact sampler
   :func:`repro.dpp.spectral.sample_kdpp_spectral` on the materialized
   reduced kernel; pools past ``_REDUCED_DENSE_MAX`` rows instead
   orthonormalize ``W̃``'s columns (``m x m`` eigh) and run the exact
   Gram–Schmidt projection chain (:func:`_projection_chain`) — the same law,
   ``O(|A|·m²)`` work, never an ``|A| x |A|`` matrix.

Per-sample cost is ``O(n·k)`` for the Bernoulli/leverage pass plus the
reduced phase 2 (``O(|A|·k²)``, worst case ``O(n·k²)`` on the direct route),
after a one-time ``O(n·k² + k³)`` whitening that the serving layer caches;
memory never exceeds ``O(n·k)``.  All randomness is consumed from one
generator in the driver in a fixed order, so fixed-seed samples are
byte-identical across execution backends, fused or not.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro import obs
from repro.dpp.spectral import sample_kdpp_spectral, select_kdpp_eigenvectors
from repro.engine import BackendLike
from repro.pram.tracker import current_tracker
from repro.utils.rng import SeedLike, as_generator
from repro.utils.subsets import subset_key

__all__ = [
    "lowrank_intermediate_basis",
    "sample_dpp_intermediate",
    "sample_kdpp_intermediate",
]

#: relative threshold below which a dual eigenvalue counts as zero
_RANK_TOL = 1e-10

#: skip a candidate proposal (and escalate β) when ``log det G_mask`` exceeds
#: this — the expected acceptance ``exp(-log det G_mask)`` would be < ~5%
_SKIP_LOGDET = 3.0

#: largest candidate pool whose reduced kernel is materialized for the dense
#: spectral sampler; bigger pools use the O(|A|·m²) projection chain instead
_REDUCED_DENSE_MAX = 1024

#: precomputed ``(dual eigenvalues, whitened coordinates)`` pair
WhitenedBasis = Tuple[np.ndarray, np.ndarray]


def lowrank_intermediate_basis(factor: np.ndarray, *,
                               dual: Optional[Tuple[np.ndarray, np.ndarray]] = None,
                               tol: float = _RANK_TOL) -> WhitenedBasis:
    """One-time whitening of a factor: ``(λ, U)`` with ``U = B V Λ^{-1/2}``.

    ``λ`` are the numerically nonzero eigenvalues of the dual Gram ``BᵀB``
    (ascending) — equal to the nonzero spectrum of ``L = B Bᵀ`` — and the
    columns of ``U`` (``n x r``) are the corresponding orthonormal
    eigenvectors of ``L``, computed without ever forming ``L``.  ``dual``
    optionally supplies a precomputed ``(eigenvalues, vectors)`` pair of the
    Gram (e.g. from a warm factorization cache); the whitening then costs one
    ``n x k`` matmul and draws identical samples downstream.

    This is the cacheable preprocessing of the intermediate sampler:
    ``O(n·k² + k³)`` once, ``O(n·k)`` memory.  The samplers charge it
    (:func:`_resolve_whitening`) whether it was computed or cached.
    """
    B = np.asarray(factor, dtype=float)
    if B.ndim != 2:
        raise ValueError(f"factor must be 2-D, got shape {B.shape}")
    n, k = B.shape
    if dual is None:
        gram = B.T @ B
        eigenvalues, vectors = np.linalg.eigh(0.5 * (gram + gram.T))
        eigenvalues = np.clip(eigenvalues, 0.0, None)
    else:
        eigenvalues = np.clip(np.asarray(dual[0], dtype=float), 0.0, None)
        vectors = np.asarray(dual[1], dtype=float)
        if eigenvalues.shape != (k,) or vectors.shape != (k, k):
            raise ValueError(
                f"precomputed dual has shapes {eigenvalues.shape}/{vectors.shape}, "
                f"expected ({k},)/({k}, {k})")
    top = float(eigenvalues.max(initial=0.0))
    keep = eigenvalues > tol * max(top, 1.0) if top > 0 else np.zeros(k, dtype=bool)
    kept = eigenvalues[keep]
    coords = (B @ vectors[:, keep]) / np.sqrt(kept)[None, :] if kept.size \
        else np.zeros((n, 0))
    return kept, coords


def _resolve_whitening(factor: np.ndarray,
                       whitened: Optional[WhitenedBasis]) -> WhitenedBasis:
    """The whitened basis (cached or computed here), charged either way.

    One Gram ``eigh`` of order ``k`` plus the ``n x k`` whitening matmul, so
    a draw reports the same work whether a warm cache supplied the basis.
    """
    eigenvalues, coords = whitened if whitened is not None \
        else lowrank_intermediate_basis(factor)
    n, k = np.shape(factor)
    tracker = current_tracker()
    tracker.charge_determinant(k)
    tracker.charge(work=float(n) * k * max(int(eigenvalues.size), 1))
    return eigenvalues, coords


def _default_oversample(rank: int) -> float:
    """Default β: candidate sets of expected size ``O(k log k)``."""
    return max(4.0, 2.0 * math.log(rank + 2.0))


def _projection_chain(basis: np.ndarray, rng: np.random.Generator) -> Tuple[int, ...]:
    """Exact sample from the projection DPP of ``basis`` (orthonormal columns).

    The Gram–Schmidt conditional chain: with ``Y`` (``n' x m``) having
    orthonormal columns, ``P[S] = det(Y_S)²`` for ``|S| = m``; the chain rule
    picks row ``j`` with probability (residual norm²)/(remaining size), then
    removes the chosen direction from every row.  ``O(n'·m²)`` work and
    ``O(n'·m)`` memory — never an ``n' x n'`` matrix.  One uniform per step,
    drawn driver-side, so the sample is backend-independent.
    """
    rows, m = basis.shape
    residual = np.einsum("ij,ij->i", basis, basis)
    chosen = []
    for _step in range(m):
        weights = np.clip(residual, 0.0, None)
        weights[chosen] = 0.0
        total = weights.sum()
        if total <= 0:                               # pragma: no cover — numerics
            raise RuntimeError("projection chain ran out of residual mass")
        draw = float(rng.random()) * total
        j = int(np.searchsorted(np.cumsum(weights), draw, side="right"))
        j = min(j, rows - 1)
        chosen.append(j)
        # rows are kept projected onto the unchosen span, so the current row
        # j IS the new Gram–Schmidt direction (up to normalization)
        direction = basis[j] / np.linalg.norm(basis[j])
        component = basis @ direction
        basis -= np.outer(component, direction)
        residual -= component * component
    return tuple(chosen)


def _sample_projection_intermediate(coords: np.ndarray, mask: np.ndarray,
                                    rng: np.random.Generator, *,
                                    oversample: Optional[float],
                                    max_rounds: int,
                                    backend: BackendLike) -> Tuple[int, ...]:
    """Exact sample from the projection DPP on ``coords[:, mask]`` rows.

    The candidate/accept/reduce loop described in the module docstring.  All
    randomness comes from ``rng`` in a fixed order: per *attempted* proposal
    ``n`` uniforms for the candidate draw and one for the acceptance, then
    the reduced sampler's own consumption — skipped proposals consume none,
    and the skip rule depends only on ``(coords, mask, β)``, so fixed-seed
    samples are deterministic.
    """
    n, _r = coords.shape
    m = int(mask.sum())
    if m == 0:
        return ()
    selected = coords[:, mask]                       # (n, m) orthonormal columns
    leverages = np.einsum("ij,ij->i", selected, selected)
    tracker = current_tracker()
    beta = float(oversample) if oversample is not None \
        else _default_oversample(selected.shape[1])
    for attempt in range(max_rounds + 1):
        final = attempt == max_rounds
        if final:
            q = np.ones(n)                           # graceful direct-route cap
        else:
            q = np.clip(beta * leverages, None, 1.0)
        safe_q = np.maximum(q, 1e-300)
        # cheap certificate first: log det G_mask >= log(tr(G_mask)/m) since
        # G_mask ⪰ I, and the expected acceptance is exp(-log det G_mask)
        trace_mask = float(np.sum(leverages / safe_q))
        if not final and math.log(max(trace_mask / m, 1.0)) > _SKIP_LOGDET:
            # recording consumes no randomness: the skip rule is a
            # deterministic function of (coords, mask, β)
            obs.record_intermediate("skipped_trace", beta=beta, attempt=attempt)
            beta *= 2.0
            continue
        with tracker.round("intermediate-candidates"):
            tracker.charge(machines=float(n), work=float(n) * m * m)
            # G_mask = Σ_i c_i c_iᵀ / q_i  ⪰ I_m, so log det D >= 0
            scaled = selected / safe_q[:, None]
            G_mask = selected.T @ scaled
            _sign_d, logdet_d = np.linalg.slogdet(G_mask)
            certificate = math.exp(-max(logdet_d, 0.0))
            if not final and logdet_d > _SKIP_LOGDET:
                obs.record_intermediate("skipped_certificate",
                                        certificate=certificate, beta=beta,
                                        attempt=attempt)
                beta *= 2.0                          # hopeless: skip the draw
                continue
            candidates = np.flatnonzero(rng.random(n) < q)
            accept_draw = float(rng.random())
            if candidates.size >= m:
                reduced = selected[candidates] / np.sqrt(q[candidates])[:, None]
                inner_gram = reduced.T @ reduced
                sign_n, logdet_n = np.linalg.slogdet(inner_gram)
                log_alpha = (logdet_n - logdet_d) if sign_n > 0 else -np.inf
            else:
                log_alpha = -np.inf                  # α = 0: certain rejection
        if math.log(max(accept_draw, 1e-300)) < log_alpha:
            obs.record_intermediate("direct" if final else "accepted",
                                    certificate=certificate,
                                    pool=int(candidates.size), beta=beta,
                                    attempt=attempt)
            # phase 2 (Cauchy–Binet: the m-DPP on W̃W̃ᵀ is the volume
            # sampling law over candidate rows)
            if candidates.size <= _REDUCED_DENSE_MAX:
                kernel_reduced = reduced @ reduced.T
                inner = sample_kdpp_spectral(kernel_reduced, m, rng,
                                             validate=False, backend=backend)
            else:
                # same law without the |A| x |A| kernel: orthonormalize the
                # columns of W̃ (det(Y_S)² ∝ det(W̃_S)²) and run the chain
                gram_eigenvalues, gram_vectors = np.linalg.eigh(
                    0.5 * (inner_gram + inner_gram.T))
                orthonormal = reduced @ (gram_vectors
                                         / np.sqrt(gram_eigenvalues)[None, :])
                inner = _projection_chain(orthonormal, rng)
            return subset_key(int(candidates[i]) for i in inner)
        obs.record_intermediate("rejected", certificate=certificate,
                                pool=int(candidates.size), beta=beta,
                                attempt=attempt)
        beta *= 2.0
    raise RuntimeError("intermediate sampler failed to accept at q ≡ 1 "
                       "(unreachable: α = 1 there)")  # pragma: no cover


def sample_dpp_intermediate(kernel, seed: SeedLike = None, *,
                            oversample: Optional[float] = None,
                            max_rounds: int = 6,
                            whitened: Optional[WhitenedBasis] = None,
                            backend: BackendLike = None) -> Tuple[int, ...]:
    """Exact sample from ``DPP(B Bᵀ)`` without materializing the ``n x n`` kernel.

    ``kernel`` is a :class:`~repro.distributions.lowrank.LowRankKernel` or a
    raw ``n x k`` factor array.  ``whitened`` optionally supplies the cached
    :func:`lowrank_intermediate_basis` pair; ``oversample`` is the candidate
    set's β knob (``E|A| ≤ β·k``; default ``max(4, 2 ln k)``), escalated
    automatically on rejection so the output law never depends on it.
    ``backend`` routes the reduced sampler's phase-2 engine rounds —
    wall-clock only, never the sample.
    """
    factor = getattr(kernel, "factor", kernel)
    eigenvalues, coords = _resolve_whitening(factor, whitened)
    rng = as_generator(seed)
    mask = rng.random(eigenvalues.size) < eigenvalues / (1.0 + eigenvalues)
    return _sample_projection_intermediate(
        coords, mask, rng, oversample=oversample, max_rounds=max_rounds,
        backend=backend)


def sample_kdpp_intermediate(kernel, k: int, seed: SeedLike = None, *,
                             oversample: Optional[float] = None,
                             max_rounds: int = 6,
                             whitened: Optional[WhitenedBasis] = None,
                             backend: BackendLike = None) -> Tuple[int, ...]:
    """Exact sample from the k-DPP of ``B Bᵀ`` without materializing it.

    Phase 1 runs the elementary-symmetric-polynomial eigenvector selection
    over the dual spectrum (the zero eigenvalues of ``L`` contribute nothing
    to any ESP, so the ``k``-sized dual recursion is exact); the rest matches
    :func:`sample_dpp_intermediate`.
    """
    factor = getattr(kernel, "factor", kernel)
    eigenvalues, coords = _resolve_whitening(factor, whitened)
    if k == 0:
        return ()
    if k > eigenvalues.size:
        raise ValueError(
            f"k-DPP with k={k} has zero mass: factor rank is {eigenvalues.size} < k")
    rng = as_generator(seed)
    mask = select_kdpp_eigenvectors(eigenvalues, k, rng)
    return _sample_projection_intermediate(
        coords, mask, rng, oversample=oversample, max_rounds=max_rounds,
        backend=backend)
