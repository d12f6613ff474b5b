"""GEMM workload description extracted from neural-network layers.

Every computation-intensive layer (convolution, linear, attention) is lowered to one
or more general matrix multiplications ``C[M, N] = A[M, K] @ B[K, N]``.  Besides the
shape, the workload record carries everything the data-aware analyses need: operand
bitwidths, the *actual* operand values (weights and, optionally, activations), the
pruning mask / sparsity, and the layer identity used for heterogeneous mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Optional, TypeVar

import numpy as np

T = TypeVar("T")


@dataclass
class GEMMWorkload:
    """One GEMM ``C[M, N] = A[M, K] @ B[K, N]`` with data-awareness metadata.

    Conventionally operand B holds the *weights* (the operand that may be held
    stationary on a PTC) and operand A holds the *activations*.

    The operand arrays may be read-only views rather than copies: workloads
    extracted from a model hold ``weight_values`` as a transposed view of the
    layer's own weight matrix (and the layer input / mask likewise), so the
    weights are stored once.  Treat them as immutable; to change an operand,
    build a new workload with a new array.

    Values derived from the operands are memoized on the workload
    (:meth:`memo`); the explorer's operand digest is kept as ``_repro_fingerprint``.
    """

    name: str
    m: int
    n: int
    k: int
    input_bits: int = 8
    weight_bits: int = 8
    output_bits: int = 8
    layer_type: str = "gemm"
    weight_values: Optional[np.ndarray] = field(default=None, repr=False)
    input_values: Optional[np.ndarray] = field(default=None, repr=False)
    pruning_mask: Optional[np.ndarray] = field(default=None, repr=False)
    weight_static: bool = False

    def __post_init__(self) -> None:
        for label, dim in (("M", self.m), ("N", self.n), ("K", self.k)):
            if not isinstance(dim, (int, np.integer)) or dim < 1:
                raise ValueError(f"GEMM dimension {label} must be a positive int, got {dim!r}")
        self.m, self.n, self.k = int(self.m), int(self.n), int(self.k)
        for label, bits in (
            ("input_bits", self.input_bits),
            ("weight_bits", self.weight_bits),
            ("output_bits", self.output_bits),
        ):
            if bits < 1:
                raise ValueError(f"{label} must be >= 1, got {bits}")
        if self.weight_values is not None:
            self.weight_values = np.asarray(self.weight_values, dtype=float)
            if self.weight_values.shape != (self.k, self.n):
                raise ValueError(
                    f"weight_values shape {self.weight_values.shape} does not match "
                    f"(K, N) = ({self.k}, {self.n})"
                )
        if self.input_values is not None:
            self.input_values = np.asarray(self.input_values, dtype=float)
            if self.input_values.shape != (self.m, self.k):
                raise ValueError(
                    f"input_values shape {self.input_values.shape} does not match "
                    f"(M, K) = ({self.m}, {self.k})"
                )
        if self.pruning_mask is not None:
            self.pruning_mask = np.asarray(self.pruning_mask, dtype=bool)
            if self.weight_values is not None and self.pruning_mask.shape != self.weight_values.shape:
                raise ValueError("pruning_mask must have the same shape as weight_values")

    # -- basic quantities ------------------------------------------------------------
    @property
    def num_macs(self) -> int:
        """Multiply-accumulate operations in this GEMM."""
        return self.m * self.n * self.k

    @property
    def num_ops(self) -> int:
        """Arithmetic operations (2 per MAC)."""
        return 2 * self.num_macs

    @property
    def input_bytes(self) -> float:
        return self.m * self.k * self.input_bits / 8.0

    @property
    def weight_bytes(self) -> float:
        return self.k * self.n * self.weight_bits / 8.0

    @property
    def output_bytes(self) -> float:
        return self.m * self.n * self.output_bits / 8.0

    @property
    def total_bytes(self) -> float:
        return self.input_bytes + self.weight_bytes + self.output_bytes

    # -- data-awareness -----------------------------------------------------------------
    @property
    def sparsity(self) -> float:
        """Fraction of weight elements pruned to exactly zero."""
        if self.pruning_mask is not None:
            return float(1.0 - self.pruning_mask.mean())
        if self.weight_values is not None:
            # Counting avoids the full-matrix bool temporary of ``mean(w == 0)``;
            # both are the correctly rounded ``zeros / size``.
            size = self.weight_values.size
            return float((size - np.count_nonzero(self.weight_values)) / size)
        return 0.0

    def effective_weights(self) -> Optional[np.ndarray]:
        """Weight values with the pruning mask applied (None when values are absent)."""
        if self.weight_values is None:
            return None
        if self.pruning_mask is None:
            return self.weight_values
        return np.where(self.pruning_mask, self.weight_values, 0.0)

    def normalized_weights(self) -> Optional[np.ndarray]:
        """Weights scaled to [-1, 1], the native encoding range of analog devices.

        Memoized on the workload (see :meth:`memo`); the cached array is marked
        read-only so a repeated engine pass can never corrupt it.
        """
        if self.weight_values is None:
            return None

        def compute() -> np.ndarray:
            weights = self.effective_weights()
            peak = float(np.max(np.abs(weights)))
            normalized = np.zeros_like(weights) if peak == 0.0 else weights / peak
            normalized.setflags(write=False)
            return normalized

        return self.memo("normalized_weights", compute)

    def normalized_inputs(self) -> Optional[np.ndarray]:
        """Activations scaled to [-1, 1]; memoized like :meth:`normalized_weights`."""
        if self.input_values is None:
            return None

        def compute() -> np.ndarray:
            peak = float(np.max(np.abs(self.input_values)))
            normalized = (
                np.zeros_like(self.input_values)
                if peak == 0.0
                else self.input_values / peak
            )
            normalized.setflags(write=False)
            return normalized

        return self.memo("normalized_inputs", compute)

    # -- derived-value memos ----------------------------------------------------------
    def memo(self, key: Hashable, compute: Callable[[], T]) -> T:
        """Return ``compute()``, memoized on this workload under ``key``.

        Holds values derived from the operands: the normalized tensors always,
        and with an enabled evaluation cache the energy model's sparsity,
        operand samples and device power averages.  Workloads are immutable once
        evaluated (mutate a copy), so a memo never goes stale; threads missing
        one key at once may each compute it, to an equal value.
        """
        memos = self.__dict__.setdefault("_repro_memos", {})
        if key not in memos:
            memos[key] = compute()
        return memos[key]

    def __getstate__(self) -> Dict[str, Any]:
        # Workers recompute the derived ``_repro_*`` memos rather than receive
        # them; the short operand digest ships, sparing them a re-hash.
        return {
            name: value
            for name, value in self.__dict__.items()
            if not name.startswith("_repro_") or name == "_repro_fingerprint"
        }

    # -- transformations ------------------------------------------------------------------
    def with_bits(self, input_bits: int, weight_bits: int, output_bits: Optional[int] = None) -> "GEMMWorkload":
        """Return a copy with different operand bitwidths (for precision sweeps)."""
        return GEMMWorkload(
            name=self.name,
            m=self.m,
            n=self.n,
            k=self.k,
            input_bits=input_bits,
            weight_bits=weight_bits,
            output_bits=output_bits if output_bits is not None else max(input_bits, weight_bits),
            layer_type=self.layer_type,
            weight_values=self.weight_values,
            input_values=self.input_values,
            pruning_mask=self.pruning_mask,
            weight_static=self.weight_static,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GEMMWorkload({self.name!r}, M={self.m}, N={self.n}, K={self.k}, "
            f"type={self.layer_type}, macs={self.num_macs})"
        )
