"""Multi-head attention with a FlashAttention-style fused core.

Supports self-attention (encoder: bidirectional; decoder: causal) and
cross-attention (T5 decoder attending to encoder output).  The core
attention is :func:`repro.tensor.ops.flash_attention`, which saves only
Q/K/V and recomputes probabilities in backward — the paper's evaluation
runs with FlashAttention-2, which is also why Megatron's *selective
checkpointing* has nothing left to save (Sec. IV-C).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.dropout import Dropout
from repro.nn.linear import Linear
from repro.tensor import ops
from repro.tensor.module import Module
from repro.tensor.tensor import Tensor


class MultiHeadAttention(Module):
    """Multi-head attention block.

    Args:
        hidden: model hidden dimension.
        num_heads: number of attention heads (head_dim = hidden / num_heads;
            the paper uses head_dim 128).
        causal: apply the decoder causal mask in self-attention.
        is_cross: if True, K/V come from a separate ``context`` input.
        dropout: output dropout probability.
    """

    def __init__(
        self,
        hidden: int,
        num_heads: int,
        causal: bool = False,
        is_cross: bool = False,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        dtype=np.float32,
    ) -> None:
        super().__init__()
        if hidden % num_heads != 0:
            raise ValueError(f"hidden {hidden} not divisible by heads {num_heads}")
        self.hidden = hidden
        self.num_heads = num_heads
        self.head_dim = hidden // num_heads
        self.causal = causal
        self.is_cross = is_cross
        if is_cross:
            self.q_proj = Linear(hidden, hidden, rng=rng, dtype=dtype)
            self.kv_proj = Linear(hidden, 2 * hidden, rng=rng, dtype=dtype)
            self.qkv_proj = None
        else:
            # Fused QKV projection like Megatron's ColumnParallelLinear.
            self.qkv_proj = Linear(hidden, 3 * hidden, rng=rng, dtype=dtype)
            self.q_proj = None
            self.kv_proj = None
        self.out_proj = Linear(hidden, hidden, rng=rng, dtype=dtype)
        self.dropout = Dropout(dropout)

    def _split_heads(self, x: Tensor, seq: int, batch: int) -> Tensor:
        """(B, S, H) -> (B, heads, S, head_dim)."""
        x = x.reshape(batch, seq, self.num_heads, self.head_dim)
        return x.transpose(1, 2)

    def forward(self, x: Tensor, context: Optional[Tensor] = None) -> Tensor:
        batch, seq, hidden = x.shape
        if self.is_cross:
            if context is None:
                raise ValueError("cross-attention requires a context input")
            q = self.q_proj(x)
            kv = self.kv_proj(context)
            ctx_seq = context.shape[1]
            k = ops.narrow(kv, 2, 0, self.hidden)
            v = ops.narrow(kv, 2, self.hidden, self.hidden)
            q = self._split_heads(q, seq, batch)
            k = self._split_heads(k, ctx_seq, batch)
            v = self._split_heads(v, ctx_seq, batch)
        else:
            qkv = self.qkv_proj(x)
            q = ops.narrow(qkv, 2, 0, self.hidden)
            k = ops.narrow(qkv, 2, self.hidden, self.hidden)
            v = ops.narrow(qkv, 2, 2 * self.hidden, self.hidden)
            q = self._split_heads(q, seq, batch)
            k = self._split_heads(k, seq, batch)
            v = self._split_heads(v, seq, batch)

        attn = ops.flash_attention(q, k, v, causal=self.causal and not self.is_cross)
        # (B, heads, S, d) -> (B, S, H)
        merged = attn.transpose(1, 2).reshape(batch, seq, hidden)
        return self.dropout(self.out_proj(merged))

    def __repr__(self) -> str:
        kind = "cross" if self.is_cross else ("causal" if self.causal else "bidir")
        return f"MultiHeadAttention({self.hidden}, heads={self.num_heads}, {kind})"
