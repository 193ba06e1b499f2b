"""Packed-binary inference engine: compiled plans for serving traffic.

Training wants mutable dual-copy state; serving wants an immutable,
maximally-preprocessed artefact.  This subpackage separates the two:
:func:`compile_model` freezes a fitted :class:`~repro.core.multi.MultiModelRegHD`
into a :class:`CompiledPlan` — encoder projection, target scaling and the
effective (quantised) hypervectors, with binary operands bit-packed into
``uint64`` words — and the plan predicts through a tiled pipeline
(fused encode → similarity → softmax → accumulate on preallocated
scratch) in the calling thread, which may hand half of a split-sized
encode pass to one helper thread (:mod:`repro.ops.halves`).

On quantised configurations the similarity search and fully-binary dot
products run as XOR + popcount (Sec. 3's D-bit logic), bit-exact with the
float sign arithmetic they replace.
"""

from repro.engine.plan import CompiledPlan, auto_tile_rows, compile_model

__all__ = [
    "CompiledPlan",
    "auto_tile_rows",
    "compile_model",
]
