"""The repository benchmark: end-to-end metrics plus per-layer tracing.

Run ``python3 -m bench run`` from the repository root; see
``bench/README.md`` for the workloads, metrics and bounds, and
``BENCHMARK.json`` for the declared contract.
"""

from pathlib import Path

#: the repository (checkout) root: the benchmark reads and writes only here
ROOT = Path(__file__).resolve().parent.parent

#: BLAS/OpenMP thread variables pinned to 1 in every workload process, so a
#: result depends on neither the ambient settings nor the host's core count.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
