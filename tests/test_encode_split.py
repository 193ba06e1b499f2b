"""Split-sized Eq.-1 passes run on two threads, bit for bit.

:mod:`repro.ops.halves` runs one half of each encoder pass that reaches
``SPLIT_ELEMENTS`` on a helper thread.  These tests force the split on and
off by patching that constant, and check the helper's rules: errstate and
exceptions reach the caller, a busy helper never makes a caller wait,
forked children and pool workers never inherit it, and a 1-row point query
or a 1-CPU process never starts it.
"""

import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core import ClusterQuant, MultiModelRegHD, PredictQuant, RegHDConfig
from repro.distributed import shard
from repro.encoding.nonlinear import NonlinearEncoder, encode_into
from repro.ops import halves
from repro.runtime.fused import EncoderOperands, FusedScratch, encode_pack_tile

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: ``SPLIT_ELEMENTS`` values that split every pass, and none
ON, OFF = 0, 2**62


def _encoder(dim: int) -> NonlinearEncoder:
    return NonlinearEncoder(6, dim, seed=3)


def _rows(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, 6))


def _operands(encoder: NonlinearEncoder) -> EncoderOperands:
    return EncoderOperands(
        encoder.bases, encoder.phases, encoder.scale, encoder.sin_phases
    )


def _encodings(encoder: NonlinearEncoder, X: np.ndarray) -> list[np.ndarray]:
    """``encode_batch``'s output, ``encode_into`` into the scratch of an
    unfused plan tile, and ``encode_pack_tile``'s words and scales."""
    n, dim = len(X), encoder.dim
    tile = encode_into(X, *_operands(encoder), np.empty((n, dim)))
    words, scales = encode_pack_tile(X, _operands(encoder), FusedScratch(n, dim))
    return [encoder.encode_batch(X), tile, words.copy(), scales.copy()]


def _helper_running() -> bool:
    return isinstance(halves._helper, halves._Helper)


@pytest.mark.parametrize("dim", [64, 4000, 4096])
@pytest.mark.parametrize("rows", [1, 2, 7, 8, 31, 32, 256])
def test_split_encodes_are_bit_identical(monkeypatch, rows, dim):
    encoder, X = _encoder(dim), _rows(rows, seed=rows)
    monkeypatch.setattr(halves, "SPLIT_ELEMENTS", OFF)
    whole = _encodings(encoder, X)
    monkeypatch.setattr(halves, "SPLIT_ELEMENTS", ON)
    split = _encodings(encoder, X)
    for one, two in zip(whole, split):
        assert np.array_equal(one, two)
    if rows > 1:  # a 1-row pass runs whole
        assert _helper_running() == (halves._cpus() >= 2)


def test_errstate_holds_in_the_helpers_half(monkeypatch):
    """The only infinite row is the last, in the helper's half; under
    ``np.errstate(invalid="raise")`` its sine raises in the caller, as in
    one pass."""
    monkeypatch.setattr(halves, "SPLIT_ELEMENTS", ON)
    encoder = _encoder(4096)
    X = np.zeros((8, 6))
    X[-1, 0] = np.inf
    with np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError):
            encoder.encode_batch(X)
        with pytest.raises(FloatingPointError):
            encode_pack_tile(X, _operands(encoder), FusedScratch(8, 4096))
    with np.errstate(invalid="ignore"):
        assert np.isnan(encoder.encode_batch(X)[-1]).all()


def test_an_exception_in_the_second_half_reaches_the_caller():
    def half(i: int) -> None:
        if i:
            raise KeyError(i)

    with pytest.raises(KeyError):
        halves.run_halves(half, (0,), (1,))
    out = np.zeros(2)
    halves.run_halves(out.__setitem__, (0, 1.0), (1, 2.0))
    assert out.tolist() == [1.0, 2.0]


def test_an_idle_helper_keeps_no_buffer_alive():
    """Once a pass returns, the helper holds nothing of it: a freed
    encode buffer is not kept resident until the next split pass."""
    buf = np.arange(8.0)
    ref = weakref.ref(buf)
    halves.run_halves(np.sin, (buf[:4], buf[:4]), (buf[4:], buf[4:]))
    np.testing.assert_array_equal(buf, np.sin(np.arange(8.0)))
    del buf
    assert ref() is None


def test_a_busy_helper_leaves_both_halves_to_the_caller(monkeypatch):
    """While another caller's half holds the helper, a split-sized encode
    finishes in the calling thread, before the helper is let go."""
    encoder, X = _encoder(4096), _rows(8)
    monkeypatch.setattr(halves, "SPLIT_ELEMENTS", OFF)
    whole = encoder.encode_batch(X)
    monkeypatch.setattr(halves, "SPLIT_ELEMENTS", ON)
    held, release = threading.Event(), threading.Event()

    def hold(second: bool) -> None:
        if second:
            held.set()
            release.wait(60)

    holder = threading.Thread(target=halves.run_halves, args=(hold, (False,), (True,)))
    holder.start()
    timer = threading.Timer(20, release.set)
    timer.start()
    try:
        assert held.wait(20)
        out = encoder.encode_batch(X)
        assert not release.is_set(), "the encode waited for the held helper"
    finally:
        release.set()
        timer.cancel()
        holder.join(20)
    assert not holder.is_alive()
    assert np.array_equal(out, whole)


def _fused_plan():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(256, 6))
    config = RegHDConfig(
        dim=4096,
        n_models=4,
        seed=0,
        cluster_quant=ClusterQuant.FRAMEWORK,
        predict_quant=PredictQuant.BINARY_BOTH,
    )
    model = MultiModelRegHD(6, config).partial_fit(X, np.sin(X[:, 0]))
    plan = model.compile(backend="packed_v2")
    assert plan.fused_encode
    return plan


def test_one_row_predicts_start_no_helper(monkeypatch):
    plan = _fused_plan()
    monkeypatch.setattr(halves, "_helper", None)
    threads = threading.active_count()
    for x in _rows(20):
        plan.predict(x[np.newaxis])
    assert halves._helper is None
    assert threading.active_count() == threads


def test_one_cpu_starts_no_helper(monkeypatch):
    encoder, X = _encoder(4096), _rows(8)
    monkeypatch.setattr(halves, "SPLIT_ELEMENTS", OFF)
    whole = _encodings(encoder, X)
    monkeypatch.setattr(halves, "_helper", None)
    monkeypatch.setattr(halves.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(halves, "SPLIT_ELEMENTS", ON)
    threads = threading.active_count()
    for one, two in zip(whole, _encodings(encoder, X)):
        assert np.array_equal(one, two)
    assert halves._helper is False
    assert threading.active_count() == threads


def test_a_refused_thread_leaves_both_halves_to_the_caller(monkeypatch):
    """Where the process may start no thread, split-sized encodes run
    whole in the caller instead of raising."""
    encoder, X = _encoder(4096), _rows(8)
    monkeypatch.setattr(halves, "SPLIT_ELEMENTS", OFF)
    whole = _encodings(encoder, X)

    def refuse(thread):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(halves, "_helper", None)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(halves, "SPLIT_ELEMENTS", ON)
    for one, two in zip(whole, _encodings(encoder, X)):
        assert np.array_equal(one, two)
    assert halves._helper is False


def _encode_in_worker() -> tuple[bool, int]:
    _encoder(4096).encode_batch(_rows(8))
    return halves._helper is False, threading.active_count()


def test_pool_workers_encode_in_one_thread():
    """A shard pool worker forked from a process with a helper encodes
    split-sized batches without one."""
    _encoder(4096).encode_batch(_rows(8))
    with ProcessPoolExecutor(
        max_workers=1,
        mp_context=multiprocessing.get_context("fork"),
        initializer=shard._pin_blas_thread,
    ) as pool:
        no_helper, threads = pool.submit(_encode_in_worker).result(timeout=60)
    assert no_helper and threads == 1


def _run_isolated(code: str, timeout: float = 120) -> None:
    """Run ``code`` in a fresh interpreter; fail if it fails or has not
    finished after ``timeout`` seconds (its whole process group is then
    killed, pool workers included)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"still running after {timeout} s")
    assert proc.returncode == 0, err


def test_forked_shard_round_after_a_split_encode():
    """A D=4096 ``partial_fit`` starts the helper; a ``fork`` shard round
    with two workers then finishes and equals the inline round."""
    _run_isolated(
        """
import numpy as np
from repro.core import MultiModelRegHD, RegHDConfig
from repro.distributed import ShardTrainer
from repro.ops import halves

rng = np.random.default_rng(0)
X = rng.normal(size=(768, 6))
y = np.sin(X[:, 0]) + X[:, 1]
base = MultiModelRegHD(6, RegHDConfig(dim=4096, n_models=4, seed=0))
base.partial_fit(X[:256], y[:256])
assert isinstance(halves._helper, halves._Helper) == (halves._cpus() >= 2)
learned = []
for workers in (2, 0):
    model = MultiModelRegHD.from_state(*base.get_state())
    ShardTrainer(model, n_shards=2, n_workers=workers, batch_rows=64).train(
        X[256:], y[256:]
    )
    learned.append(model.get_state()[1])
assert learned[0].keys() == learned[1].keys()
for name in learned[0]:
    assert np.array_equal(learned[0][name], learned[1][name]), name
"""
    )


def test_a_forked_child_starts_its_own_helper():
    """A child forked while its parent has a helper encodes split-sized
    batches bit for bit, instead of waiting on a thread it never had."""
    _run_isolated(
        """
import multiprocessing
import numpy as np
from repro.encoding.nonlinear import NonlinearEncoder

encoder = NonlinearEncoder(6, 4096, seed=3)
X = np.random.default_rng(0).normal(size=(8, 6))
parent = encoder.encode_batch(X)

def child(queue):
    queue.put(encoder.encode_batch(X))

ctx = multiprocessing.get_context("fork")
queue = ctx.Queue()
proc = ctx.Process(target=child, args=(queue,))
proc.start()
assert np.array_equal(queue.get(timeout=60), parent)
proc.join(60)
assert proc.exitcode == 0
"""
    )
