"""Structural guards against re-cloning deduplicated primitives.

The estimator-stack refactor collapsed four private ``_normalize_rows``
clones, two ``_softmax`` clones and five copies of the y-standardisation
logic into :mod:`repro.ops.normalize` and
:class:`repro.core.estimator.TargetScaler`.  These tests grep the source
tree and fail if a clone reappears, so the dedup cannot silently erode.
"""

import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: the single allowed definition site of the shared row ops
SHARED_OPS = SRC / "repro" / "ops" / "normalize.py"
#: the single allowed definition site of the target-scaling state machine
SCALER_MODULE = SRC / "repro" / "core" / "estimator.py"
#: the execution runtime — the only place kernel arithmetic may live
RUNTIME_DIR = SRC / "repro" / "runtime"
#: the compiled inference engine
ENGINE_DIR = SRC / "repro" / "engine"
#: the encoders and the shared HD ops
ENCODING_DIR = SRC / "repro" / "encoding"
OPS_DIR = SRC / "repro" / "ops"
#: the one Eq.-(1) kernel's module
EQ1_KERNEL = ENCODING_DIR / "nonlinear.py"
#: symbolic HD binding (uint8 XOR) — an ops primitive, not a packed kernel
BINDING_OPS = SRC / "repro" / "ops" / "binding.py"
#: the telemetry layer — the only sanctioned wall-clock site
TELEMETRY_DIR = SRC / "repro" / "telemetry"
#: robust statistics — the only sanctioned covariance/Mahalanobis site
ROBUST_DIR = SRC / "repro" / "robust"
#: the core estimators — delta hooks/sinks are the mutation protocol
CORE_DIR = SRC / "repro" / "core"
#: fault injection — *deliberately* out-of-band hypervector writes
NOISE_DIR = SRC / "repro" / "noise"


def _python_sources():
    return sorted(SRC.rglob("*.py"))


def _runtime_sources() -> set[pathlib.Path]:
    return set(RUNTIME_DIR.rglob("*.py"))


def _offending_lines(pattern: str, *, exclude: set[pathlib.Path] = frozenset()):
    regex = re.compile(pattern)
    hits = []
    for path in _python_sources():
        if path in exclude:
            continue
        for lineno, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            if regex.search(line):
                hits.append(f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
    return hits


def test_sources_exist():
    assert SHARED_OPS.exists()
    assert SCALER_MODULE.exists()
    assert len(_python_sources()) > 50


def test_no_private_normalize_rows_clone():
    hits = _offending_lines(r"def\s+_normalize_rows")
    assert not hits, (
        "private _normalize_rows clone found — use "
        "repro.ops.normalize.normalize_rows instead:\n" + "\n".join(hits)
    )


def test_normalize_rows_defined_only_in_shared_ops():
    hits = _offending_lines(
        r"def\s+normalize_rows", exclude={SHARED_OPS}
    )
    assert not hits, (
        "normalize_rows must have exactly one definition "
        "(repro/ops/normalize.py):\n" + "\n".join(hits)
    )


def test_no_private_softmax_clone():
    hits = _offending_lines(r"def\s+_softmax")
    assert not hits, (
        "private _softmax clone found — use repro.ops.normalize.softmax "
        "instead:\n" + "\n".join(hits)
    )


def test_softmax_defined_only_in_shared_ops():
    hits = _offending_lines(r"def\s+softmax\(", exclude={SHARED_OPS})
    assert not hits, (
        "softmax must have exactly one definition (repro/ops/normalize.py):\n"
        + "\n".join(hits)
    )


def test_no_ad_hoc_target_scaling_state():
    """``_y_mean`` / ``_y_scale`` attribute pairs were the signature of the
    per-model y-standardisation clones; all target scaling goes through
    TargetScaler now."""
    hits = _offending_lines(r"_y_mean|_y_scale")
    assert not hits, (
        "ad-hoc target-scaling state found — use "
        "repro.core.estimator.TargetScaler instead:\n" + "\n".join(hits)
    )


def test_no_isinstance_ladder_in_serialization():
    """The serializer is registry-driven; a returning isinstance ladder
    means a model type is being special-cased again."""
    serialization = SRC / "repro" / "serialization.py"
    assert "isinstance(model" not in serialization.read_text()


def test_no_bit_packing_outside_runtime():
    """XOR + popcount kernels live in repro/runtime only.  The uint8 XOR
    in the symbolic binding op is an HD algebra primitive, not a packed
    arithmetic kernel, and stays exempt."""
    hits = _offending_lines(
        r"np\.(packbits|unpackbits|bitwise_xor|bitwise_count)"
        r"|_POPCOUNT_TABLE|\.bit_count\(|_popcount\w*\(",
        exclude=_runtime_sources() | {BINDING_OPS},
    )
    assert not hits, (
        "bit-packing/popcount arithmetic outside repro/runtime — move it "
        "into the kernel layer:\n" + "\n".join(hits)
    )


def test_no_unbuffered_scatter_outside_runtime():
    """``np.add.at`` calls go through KernelBackend.scatter_add."""
    hits = _offending_lines(
        r"np\.add\.at", exclude=_runtime_sources()
    )
    assert not hits, (
        "np.add.at outside repro/runtime — use the backend scatter/segment "
        "kernels:\n" + "\n".join(hits)
    )


def test_no_sign_matmul_outside_runtime():
    """The ±1 similarity matmul has one definition (runtime kernels)."""
    hits = _offending_lines(
        r"signs\s*@|@\s*\w*signsT", exclude=_runtime_sources()
    )
    assert not hits, (
        "sign matmul outside repro/runtime — use "
        "KernelBackend.cluster_similarities:\n" + "\n".join(hits)
    )


def test_no_softmax_calls_outside_runtime():
    """Confidence computation dispatches through KernelBackend.confidences;
    only the shared definition site and the runtime kernels may invoke
    ``softmax(`` directly."""
    hits = _offending_lines(
        r"\bsoftmax\(", exclude=_runtime_sources() | {SHARED_OPS}
    )
    assert not hits, (
        "direct softmax call outside repro/runtime — use "
        "KernelBackend.confidences:\n" + "\n".join(hits)
    )


def test_no_eq1_encode_in_engine_or_runtime():
    """Eq. (1) has one kernel, :func:`repro.encoding.nonlinear.double_h`,
    which the float encoder and the fused serving tile both call.  No
    ``np.cos(`` belongs in the encoders, the engine, the runtime or the
    ops, and ``np.sin(`` only in the kernel's module, ``sin φ`` included:
    anything else there is a second Eq.-(1) formula."""
    serving = (
        set(ENGINE_DIR.rglob("*.py"))
        | _runtime_sources()
        | set(ENCODING_DIR.rglob("*.py"))
        | set(OPS_DIR.rglob("*.py"))
    )
    outside = set(_python_sources()) - serving
    hits = _offending_lines(r"np\.cos\(", exclude=outside)
    hits += _offending_lines(r"np\.sin\(", exclude=outside | {EQ1_KERNEL})
    assert not hits, (
        "Eq. (1) trig outside its kernel — call "
        "repro.encoding.nonlinear.encode_into or double_h:\n"
        + "\n".join(hits)
    )


def test_no_frozen_state_mutation_in_engine_or_runtime():
    """Compiled plans and their operands are values: a refresh builds a
    new plan through the snapshot path and never writes the old one.
    Switching a read-only array back to writeable, or writing a field of
    a frozen dataclass, in the engine or the runtime breaks that."""
    serving = set(ENGINE_DIR.rglob("*.py")) | _runtime_sources()
    hits = _offending_lines(
        r"writeable\s*=\s*True|object\.__setattr__",
        exclude=set(_python_sources()) - serving,
    )
    assert not hits, (
        "in-place write to frozen state in repro/engine or repro/runtime "
        "— build a new snapshot instead:\n" + "\n".join(hits)
    )


def test_no_ad_hoc_timing_outside_telemetry():
    """Wall-clock reads go through ``repro.telemetry.timing.monotonic`` —
    one sanctioned site keeps every duration a span/histogram can capture
    on the same clock.  ``time.sleep`` (retry backoff) is unaffected."""
    hits = _offending_lines(
        r"time\.perf_counter|time\.monotonic|\btime\.time\(",
        exclude=set(TELEMETRY_DIR.rglob("*.py")),
    )
    assert not hits, (
        "ad-hoc wall-clock read outside repro/telemetry — use "
        "repro.telemetry.timing.monotonic (or a span):\n" + "\n".join(hits)
    )


def test_one_span_stack():
    """Spans and traces push frames onto one stack: the only
    ``ContextVar`` in src is the innermost-frame variable in
    ``telemetry/tracing.py``, and ``threading.local`` holds only the
    per-thread metric cells in ``telemetry/metrics.py`` — no second,
    per-thread span stack."""
    contextvars = _offending_lines(r"ContextVar\(")
    assert [hit.split(":")[0] for hit in contextvars] == [
        "repro/telemetry/tracing.py"
    ], "one ContextVar in src, in telemetry/tracing.py:\n" + "\n".join(
        contextvars
    )
    hits = _offending_lines(
        r"threading\.local\(", exclude={TELEMETRY_DIR / "metrics.py"}
    )
    assert not hits, (
        "threading.local outside telemetry/metrics.py — nest spans on the "
        "tracing module's frame stack:\n" + "\n".join(hits)
    )


def test_no_benchmark_harness_in_src():
    """Speed is measured by ``python3 -m bench run`` and quality claims are
    pytest assertions under ``benchmarks/``, so ``src`` holds no benchmark
    harness: no ``bench.py`` module and no ``BENCH_*.json`` record."""
    modules = [str(p.relative_to(SRC)) for p in SRC.rglob("bench.py")]
    hits = _offending_lines(r"BENCH_\w*\.json")
    assert not modules + hits, (
        "benchmark module or record under src — measure through bench/ "
        "or assert in benchmarks/:\n" + "\n".join(modules + hits)
    )


def test_no_ad_hoc_covariance_outside_robust():
    """Covariance estimation, matrix (pseudo-)inversion and Mahalanobis
    scoring live in repro/robust only.  ``np.linalg.solve`` (ridge normal
    equations), ``lstsq`` and ``norm`` are ordinary linear algebra and
    stay unaffected; *mentioning* the mahalanobis guard policy is fine,
    re-implementing the scoring is not."""
    hits = _offending_lines(
        r"np\.cov\(|np\.linalg\.(pinvh?|inv|eigh?|cholesky)\(|def\s+\w*mahalanobis",
        exclude=set(ROBUST_DIR.rglob("*.py")),
    )
    assert not hits, (
        "ad-hoc covariance/Mahalanobis code outside repro/robust — use "
        "RobustMomentTracker / MahalanobisGate:\n" + "\n".join(hits)
    )


def test_no_hypervector_mutation_outside_delta_protocol():
    """Learned hypervector arrays mutate only through the ModelDelta
    protocol: the ``_push_*`` sinks and delta hooks in ``repro/core``
    (which both apply the live update and feed the recorder) and the
    ``DualCopy`` mutators in ``repro/runtime``.  Direct ``+=`` /
    slice-assignment into ``.model`` / ``.class_vectors`` /
    ``.integer`` / ``.signs`` / ``.binary`` anywhere else would train
    invisibly to a recording span, so shard deltas would silently drop
    those updates.  ``repro/noise`` stays exempt: fault injection
    *deliberately* writes out of band to simulate memory corruption."""
    hits = _offending_lines(
        r"(\.model|\.class_vectors|\.integer|\.signs|\.binary)"
        r"((\[[^\]]*\])?\s*[-+*/]=|\[[^\]]*\]\s*=[^=])",
        exclude=set(CORE_DIR.rglob("*.py"))
        | _runtime_sources()
        | set(NOISE_DIR.rglob("*.py")),
    )
    assert not hits, (
        "direct hypervector mutation outside the ModelDelta protocol — "
        "route it through the estimator's _push_update/_push_replace/"
        "_push_scatter sinks (or a DualCopy mutator):\n" + "\n".join(hits)
    )


@pytest.mark.parametrize("name", ["dense", "packed_v2"])
def test_every_backend_registered(name):
    from repro.registry import BACKEND_REGISTRY

    assert name in BACKEND_REGISTRY


@pytest.mark.parametrize(
    "name", ["single", "multi", "baseline_hd", "classifier", "multioutput", "ensemble"]
)
def test_every_model_registered(name):
    from repro.registry import MODEL_REGISTRY

    assert name in MODEL_REGISTRY


@pytest.mark.parametrize("name", ["nonlinear", "projection", "sequence"])
def test_every_encoder_registered(name):
    from repro.registry import ENCODER_REGISTRY

    assert name in ENCODER_REGISTRY


# --- scenario-layer guards: data flows through the registry ----------------

ROOT = SRC.parent
EXAMPLES_DIR = ROOT / "examples"
BENCHMARKS_DIR = ROOT / "benchmarks"

#: non-regression demos whose data is symbolic (text n-grams, RL episodes)
#: rather than a regression dataset — nothing for the registry to serve.
DATA_GUARD_EXEMPT = {"language_identification.py", "hd_reinforcement_learning.py"}

#: every dataset-producing callable in repro.datasets; calling one
#: directly bypasses the registry (and the workload layer built on it).
_GENERATOR_CALL = re.compile(
    r"\b(friedman[123]|sinusoid|piecewise|linear|nonlinear_interaction"
    r"|high_cardinality|regime_mixture|sensor_signal"
    r"|regime_switching_signal|windowed_forecasting_dataset"
    r"|multihorizon_forecasting_dataset|load_(?:diabetes|boston|airfoil"
    r"|wine|facebook|ccpp|forest|sensor_forecast|regime_forecast"
    r"|multihorizon_forecast)|Dataset)\s*\("
)


def _scenario_sources(directory):
    return [
        p for p in sorted(directory.glob("*.py"))
        if p.name not in DATA_GUARD_EXEMPT
    ]


def _generator_hits(paths):
    hits = []
    for path in paths:
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if _GENERATOR_CALL.search(line):
                hits.append(f"{path.relative_to(ROOT)}:{lineno}: {line.strip()}")
    return hits


def test_examples_resolve_data_through_registry():
    """Examples call ``load_dataset``/workloads, never a generator directly,
    so every scenario an example demonstrates is discoverable by name."""
    hits = _generator_hits(_scenario_sources(EXAMPLES_DIR))
    assert not hits, (
        "direct dataset construction in examples/ — resolve it through "
        "repro.datasets.load_dataset or the workload registry:\n"
        + "\n".join(hits)
    )


def test_examples_do_not_hand_roll_datasets():
    """``np.random.default_rng`` in an example is a hand-rolled dataset the
    registry cannot name; register a generator instead."""
    hits = []
    for path in _scenario_sources(EXAMPLES_DIR):
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if "default_rng" in line:
                hits.append(f"{path.relative_to(ROOT)}:{lineno}: {line.strip()}")
    assert not hits, (
        "hand-rolled data in examples/ — load it via "
        "repro.datasets.load_dataset so the scenario has a name:\n"
        + "\n".join(hits)
    )


def test_benchmarks_resolve_data_through_registry():
    """Benchmark *datasets* come from the registry.  Raw ``default_rng``
    operands for kernel micro-benchmarks (throughput matrices, packed
    words) are not datasets and stay unaffected."""
    hits = _generator_hits(_scenario_sources(BENCHMARKS_DIR))
    assert not hits, (
        "direct dataset construction in benchmarks/ — resolve it through "
        "repro.datasets.load_dataset:\n" + "\n".join(hits)
    )
