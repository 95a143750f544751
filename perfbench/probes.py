"""Oracle probes: the program's normalizers against independent references.

References use none of the program's oracle code:

* symmetric / low-rank k-DPP: the elementary symmetric polynomial e_k of the
  eigenvalues, by the textbook recursion; the sum of all e_j must match
  ``slogdet(I + L)``, which validates the reference itself;
* nonsymmetric k-DPP: the same recursion over the complex eigenvalues;
* Partition-DPP: the coefficient of ``z1^c1 z2^c2`` in ``det(I + diag(z) L)``,
  read off a 2-D DFT of the polynomial on the roots of unity (unit-modulus
  nodes, so no Vandermonde conditioning), and cross-checked by brute force
  over all feasible subsets where there are few enough.

A probe whose relative error exceeds :data:`TOLERANCE` counts as a failure.
Failures are reported, never hidden; the Theorem 9 interpolation oracle fails
from about 20 items up, a known defect this benchmark exposes and does not fix.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.distributions.lowrank import LowRankKDPP
from repro.dpp.nonsymmetric import NonsymmetricKDPP
from repro.dpp.partition import PartitionDPP
from repro.dpp.symmetric import SymmetricKDPP
from repro.workloads.kernels import clustered_ensemble

from common import seed_for

#: relative normalizer error above which a probe fails
TOLERANCE = 1e-6
#: brute-force a Partition-DPP normalizer when it has at most this many terms
BRUTE_FORCE_TERMS = 60_000
#: the partition ladder: (cluster size, count) pairs; two equal clusters each
LADDER_SIZES = (10, 12, 14, 16, 18, 20)
LADDER_COUNTS = (2, 3, 4)


def _esp(values: np.ndarray, order: int) -> np.ndarray:
    """e_0 .. e_order of ``values`` by the one-element-at-a-time recursion."""
    table = np.zeros(order + 1, dtype=values.dtype)
    table[0] = 1.0
    for value in values:
        table[1:] = table[1:] + value * table[:-1]
    return table


def _rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def _spectral_reference(eigenvalues: np.ndarray, k: int, logdet_i_plus: float) -> Tuple[float, float]:
    """(e_k, relative mismatch of Σ_j e_j against det(I + L))."""
    table = _esp(eigenvalues, eigenvalues.size)
    total = float(np.real(table.sum()))
    return float(np.real(table[k])), abs(math.log(total) - logdet_i_plus)


def _partition_dft(L: np.ndarray, parts: Sequence[Sequence[int]], counts: Sequence[int]) -> float:
    n = L.shape[0]
    sizes = [len(p) for p in parts]
    part_of = np.empty(n, dtype=int)
    for index, part in enumerate(parts):
        part_of[list(part)] = index
    roots = [np.exp(2j * np.pi * np.arange(m + 1) / (m + 1)) for m in sizes]
    grid = np.stack(np.meshgrid(*roots, indexing="ij"), axis=-1).reshape(-1, len(sizes))
    scaled = np.eye(n)[None] + grid[:, part_of][:, :, None] * L[None]
    values = np.linalg.det(scaled).reshape([m + 1 for m in sizes])
    coefficients = np.fft.fftn(values) / values.size
    return float(np.real(coefficients[tuple(counts)]))


def _partition_brute_force(L: np.ndarray, parts: Sequence[Sequence[int]],
                           counts: Sequence[int]) -> float:
    choices = [list(itertools.combinations(part, c)) for part, c in zip(parts, counts)]
    subsets = np.array([sum(combo, ()) for combo in itertools.product(*choices)])
    total = 0.0
    for start in range(0, len(subsets), 5000):
        chunk = subsets[start:start + 5000]
        total += float(np.linalg.det(L[chunk[:, :, None], chunk[:, None, :]]).sum())
    return total


def _terms(parts, counts) -> int:
    return math.prod(math.comb(len(p), c) for p, c in zip(parts, counts))


def partition_probe(L, parts, counts) -> Dict[str, object]:
    reference = _partition_dft(L, parts, counts)
    brute = None
    if _terms(parts, counts) <= BRUTE_FORCE_TERMS:
        brute = _partition_brute_force(L, parts, counts)
    try:
        value = PartitionDPP(L, parts, counts).partition_function()
    except ValueError as exc:
        # the constructor refuses when the oracle's normalizer comes out as 0;
        # the relative error of that 0 is exactly 1
        value = 0.0
        if "zero probability" not in str(exc):
            raise
    return {"value": value, "reference": reference, "rel_err": _rel_err(value, reference),
            "reference_check": None if brute is None else _rel_err(reference, brute)}


def run_probes(seed: int, instances) -> Tuple[Dict[str, float], List[str]]:
    """Probe the theorem-mix kernels and the partition ladder.

    Returns ``(metrics, lines)``: ``dpp.*_rel_err`` values plus
    ``dpp.probe_failures``, and one printable line per probe.
    """
    metrics: Dict[str, float] = {}
    lines: List[str] = []
    failures = 0

    def record(name: str, rel_err: float, reference_check, what: str) -> None:
        nonlocal failures
        failed = not rel_err <= TOLERANCE
        failures += failed
        metrics[name] = rel_err
        check = "" if reference_check is None else f", reference self-check {reference_check:.1e}"
        lines.append(f"probe {name} = {rel_err:.3e} ({what}{check})"
                     f"{'  FAIL > %.0e' % TOLERANCE if failed else ''}")

    L, k = instances["symmetric_kdpp"]
    eigenvalues = np.linalg.eigvalsh(L)
    reference, check = _spectral_reference(eigenvalues, k, np.linalg.slogdet(np.eye(len(L)) + L)[1])
    record("dpp.oracle_rel_err.symmetric_kdpp",
           _rel_err(SymmetricKDPP(L, k).partition_function(), reference), check, f"e_{k} of the spectrum")

    L, k = instances["nonsymmetric_kdpp"]
    eigenvalues = np.linalg.eigvals(L)
    reference, check = _spectral_reference(eigenvalues, k, np.linalg.slogdet(np.eye(len(L)) + L)[1])
    record("dpp.oracle_rel_err.nonsymmetric_kdpp",
           _rel_err(NonsymmetricKDPP(L, k).partition_function(), reference), check,
           f"e_{k} of the complex spectrum")

    L, parts, counts = instances["partition_dpp"]
    probe = partition_probe(L, parts, counts)
    record("dpp.oracle_rel_err.partition_dpp", probe["rel_err"], probe["reference_check"],
           f"DFT coefficient, clusters {[len(p) for p in parts]} counts {tuple(counts)}")

    kernel, k = instances["lowrank_kdpp"]
    factor = kernel.factor
    gram_eigenvalues = np.linalg.eigvalsh(factor.T @ factor)
    reference, check = _spectral_reference(
        gram_eigenvalues, k, np.linalg.slogdet(np.eye(factor.shape[1]) + factor.T @ factor)[1])
    record("dpp.oracle_rel_err.lowrank_kdpp",
           _rel_err(LowRankKDPP(kernel, k).partition_function(), reference), check,
           f"e_{k} of the Gram spectrum")

    for size in LADDER_SIZES:
        L, parts = clustered_ensemble([size, size], seed=seed_for(seed, 900, size))
        for count in LADDER_COUNTS:
            probe = partition_probe(L, parts, (count, count))
            record(f"dpp.partition_rel_err.n{2 * size}c{count}", probe["rel_err"],
                   probe["reference_check"], f"ladder {2 * size} items, counts ({count}, {count})")

    metrics["dpp.probe_failures"] = float(failures)
    return metrics, lines
