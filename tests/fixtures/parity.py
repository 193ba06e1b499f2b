"""Print one SHA-256 over the outputs a speed-only change must not move.

Run it against the source tree to check, under the same
``REPRO_BACKEND`` setting each time::

    python tests/fixtures/parity.py              # this checkout's src/
    python tests/fixtures/parity.py OTHER/src    # e.g. the parent commit's
    make parity                                  # the first form

Equal hashes mean bit-identical outputs.  The hash covers:

* compiled-plan predictions for every ``ClusterQuant`` × ``PredictQuant``
  combination, served by the ``dense`` and ``packed_v2`` backends at
  ``tile_rows`` 1, 7 and automatic, at D=4096 (whole packed words) and
  D=4000 (a padded last word);
* one ``ResilientStreamingRegHD`` run with the Mahalanobis guard and a
  checkpoint after every update: its 8-row predictions, the prequential
  error of every update and the gate's leverage and residual scores;
* that stream recovered from a copy of its checkpoint directory: the
  recovered stream's predictions on the same read rows, then the
  prequential errors of 4 more batches fed to the live and the
  recovered stream alike.

The models train under whatever backend ``REPRO_BACKEND`` selects, so
the hash differs between settings; compare trees setting by setting.
"""

from __future__ import annotations

import hashlib
import pathlib
import shutil
import sys
import tempfile

SRC = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "src").resolve()
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro import MultiModelRegHD, RegHDConfig  # noqa: E402
from repro.core import ClusterQuant, ConvergencePolicy, PredictQuant  # noqa: E402
from repro.reliability import ResilientStreamingRegHD, Watchdog  # noqa: E402

FEATURES = 6
SEED = 7


def _rows(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    X = rng.normal(size=(n, FEATURES))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] * X[:, 2] - X[:, 3] + 0.1 * X[:, 5]
    return X, y


def plan_outputs(feed) -> None:
    """Compiled-plan predictions over the quant × backend × tile grid."""
    rng = np.random.default_rng(SEED)
    X, y = _rows(rng, 160)
    X_query, _ = _rows(rng, 23)
    for dim in (4096, 4000):
        for cq in ClusterQuant:
            for pq in PredictQuant:
                config = RegHDConfig(
                    dim=dim,
                    n_models=4,
                    seed=SEED,
                    cluster_quant=cq,
                    predict_quant=pq,
                    convergence=ConvergencePolicy(max_epochs=2),
                )
                model = MultiModelRegHD(FEATURES, config).fit(X, y)
                for backend in ("dense", "packed_v2"):
                    for tile_rows in (1, 7, None):
                        plan = model.compile(backend=backend, tile_rows=tile_rows)
                        feed(plan.predict(X_query))


def stream_outputs(feed) -> None:
    """One guarded, checkpointed stream: predictions, errors, gate scores,
    and the same stream recovered from its checkpoints."""
    rng = np.random.default_rng(SEED + 1)
    config = RegHDConfig(
        dim=4096,
        n_models=8,
        seed=SEED,
        cluster_quant=ClusterQuant.FRAMEWORK,
        predict_quant=PredictQuant.BINARY_BOTH,
    )
    with tempfile.TemporaryDirectory() as tmp:
        live = pathlib.Path(tmp) / "live"
        stream = ResilientStreamingRegHD(
            FEATURES,
            config,
            guard="mahalanobis",
            checkpoint_dir=live,
            checkpoint_every=1,
            watchdog=Watchdog(),
            forgetting=0.997,
        )
        gate = stream.guard.gate
        reads = []
        for batch in range(24):
            X, y = _rows(rng, 32)
            if batch % 4 == 3:
                # Contamination the warm gate should exclude.
                X[:3] *= 12.0
                y[3:6] += 25.0
            for _ in range(3 if batch else 0):
                X_read, _ = _rows(rng, 8)
                reads.append(X_read)
                scores = gate.score(X_read)
                feed(scores.leverage)
                feed(stream.predict(X_read))
            scores = gate.score(X, y)
            feed(scores.leverage)
            feed(scores.residual)
            report = stream.update(X, y)
            if report.prequential_mse is not None:
                feed(np.array([report.prequential_mse]))

        # Recover a copy of the directory, as a restart after batch 24.
        shutil.copytree(live, pathlib.Path(tmp) / "recovered")
        recovered = ResilientStreamingRegHD.recover(
            pathlib.Path(tmp) / "recovered",
            guard="mahalanobis",
            checkpoint_every=1,
            watchdog=Watchdog(),
        )
        for X_read in reads:
            feed(recovered.predict(X_read))
        for _ in range(4):
            X, y = _rows(rng, 32)
            for resumed in (stream, recovered):
                feed(np.array([resumed.update(X, y).prequential_mse]))


def main() -> None:
    digest = hashlib.sha256()

    def feed(values) -> None:
        digest.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())

    plan_outputs(feed)
    stream_outputs(feed)
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
