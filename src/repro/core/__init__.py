"""The paper's primary contribution: parallel sampling-to-counting reductions.

* :mod:`repro.core.rejection` — Algorithms 2 and 3 (plain and modified
  rejection sampling) with parallel boosting (Propositions 25/26).
* :mod:`repro.core.batched` — Algorithm 1, the batched sampling driver with
  the ``√k``-sized batch schedule of Proposition 28.
* :mod:`repro.core.sequential` — the classic one-element-per-round [JVV86]
  reduction (the ``Θ(k)``-depth baseline).
* :mod:`repro.core.symmetric` — Theorem 10: exact ``Õ(√k)``-depth sampling of
  symmetric DPPs / k-DPPs.
* :mod:`repro.core.entropic` — Theorem 29: the meta-sampler for entropically
  independent distributions (``Õ(k^{1/2+c})`` depth, TV ≤ ε).
* :mod:`repro.core.nonsymmetric`, :mod:`repro.core.partition` — Theorems 8
  and 9 as instantiations of the meta-sampler.
* :mod:`repro.core.filtering` — Algorithm 4 / Theorem 41 for spectrally
  bounded symmetric DPPs.

Round → OracleBatch → backend flow
----------------------------------

Every sampler here describes each adaptive round (conditional marginals, the
batched density-ratio queries of the rejection step) as one
:class:`~repro.engine.batch.OracleBatch` and hands it to an
:class:`~repro.engine.backends.ExecutionBackend` — serial reference loop,
stacked-NumPy vectorization, or thread-pool fan-out — selected via
:func:`repro.configure_backend` or a per-call ``backend=...`` argument.
Backends change wall-clock execution only: each batch is charged once, at the
batch boundary (:meth:`~repro.engine.batch.OracleBatch.charge`), so the PRAM
report is the same on every backend, and every backend answers the same
queries with numerics agreeing to machine precision, so fixed-seed runs return
identical samples across backends (asserted by the backend-equivalence and
PRAM-invariance tests).
"""

from repro.core.result import SampleResult, SamplerReport
from repro.core.rejection import (
    RejectionOutcome,
    boosted_rejection_sample,
    modified_rejection_round,
)
from repro.core.batched import BatchedSamplerConfig, batched_sample, batch_schedule
from repro.core.sequential import sequential_sample
from repro.core.symmetric import (
    sample_symmetric_kdpp_parallel,
    sample_symmetric_dpp_parallel,
)
from repro.core.entropic import EntropicSamplerConfig, sample_entropic_parallel
from repro.core.nonsymmetric import (
    sample_nonsymmetric_kdpp_parallel,
    sample_nonsymmetric_dpp_parallel,
)
from repro.core.partition import sample_partition_dpp_parallel
from repro.core.filtering import sample_bounded_dpp_filtering

__all__ = [
    "SampleResult",
    "SamplerReport",
    "RejectionOutcome",
    "boosted_rejection_sample",
    "modified_rejection_round",
    "BatchedSamplerConfig",
    "batched_sample",
    "batch_schedule",
    "sequential_sample",
    "sample_symmetric_kdpp_parallel",
    "sample_symmetric_dpp_parallel",
    "EntropicSamplerConfig",
    "sample_entropic_parallel",
    "sample_nonsymmetric_kdpp_parallel",
    "sample_nonsymmetric_dpp_parallel",
    "sample_partition_dpp_parallel",
    "sample_bounded_dpp_filtering",
]
