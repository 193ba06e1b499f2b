"""Primitive-operation accounting.

Every algorithm in the library can be described as a bag of primitive
operations — integer multiplies, additions, comparisons, single-bit
XOR/popcount steps, floating-point MACs and transcendentals.  The paper's
efficiency claims all reduce to *how many of which* operations each method
needs (binary Hamming search replaces integer cosine search, etc.), so an
exact operation count plus a per-device cost table reproduces the
speedup/efficiency *ratios* without the authors' FPGA testbed
(DESIGN.md §3, substitution 2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class OpKind(enum.Enum):
    """Primitive operation categories charged by the cost model."""

    #: Integer / fixed-point multiply (the expensive HD op).
    INT_MUL = "int_mul"
    #: Integer / fixed-point add or subtract.
    INT_ADD = "int_add"
    #: Scalar comparison (thresholding, argmax steps, binarisation).
    CMP = "cmp"
    #: Single-bit operation: XOR plus its popcount-tree contribution.
    BIT_OP = "bit_op"
    #: Floating-point multiply (DNN path).
    FLOAT_MUL = "float_mul"
    #: Floating-point add (DNN path).
    FLOAT_ADD = "float_add"
    #: Transcendental evaluation (cos/sin/exp), LUT-based in hardware.
    TRIG = "trig"


@dataclass(frozen=True)
class OpCounts:
    """A bag of primitive-operation counts.

    Immutable; combine with ``+`` and scale with ``*`` so per-phase costs
    compose into per-epoch and per-run costs.
    """

    counts: dict[OpKind, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {
            kind: float(value)
            for kind, value in self.counts.items()
            if value != 0.0
        }
        for kind, value in clean.items():
            if value < 0:
                raise ValueError(f"negative count for {kind}: {value}")
        object.__setattr__(self, "counts", clean)

    def __add__(self, other: "OpCounts") -> "OpCounts":
        merged = dict(self.counts)
        for kind, value in other.counts.items():
            merged[kind] = merged.get(kind, 0.0) + value
        return OpCounts(merged)

    def __mul__(self, factor: float) -> "OpCounts":
        if factor < 0:
            raise ValueError(f"cannot scale counts by negative {factor}")
        return OpCounts({k: v * factor for k, v in self.counts.items()})

    __rmul__ = __mul__

    def get(self, kind: OpKind) -> float:
        """Count for one operation kind (0 if absent)."""
        return self.counts.get(kind, 0.0)

    @property
    def total(self) -> float:
        """Total primitive operations, all kinds summed."""
        return sum(self.counts.values())

    @staticmethod
    def zero() -> "OpCounts":
        """The empty bag."""
        return OpCounts({})

    @staticmethod
    def single(kind: OpKind, count: float) -> "OpCounts":
        """A bag with one kind."""
        return OpCounts({kind: count})

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{kind.value}={value:.3g}"
            for kind, value in sorted(
                self.counts.items(), key=lambda item: item[0].value
            )
        )
        return f"OpCounts({inner})"
