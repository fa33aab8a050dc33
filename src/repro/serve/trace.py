"""Synthetic multi-user inference workloads for the KV paging front-end.

A :class:`RequestTrace` is a seeded, fully deterministic stream of
inference requests: Poisson arrivals (exponential inter-arrival gaps),
log-normal context lengths (the long tail — most prompts are short, a
few are near the window limit — is exactly what makes static HBM
provisioning waste capacity), and Poisson decode lengths.  Each request
belongs to one of ``num_users`` users; the server maps users to tenants
so the PR 6 fair-share/quota machinery applies per user.

Determinism contract: the same :class:`TraceConfig` (including seed)
always generates the identical trace, byte for byte — the seeded-trace
determinism test and the ``repro kv`` CLI asserts both lean on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, List, Tuple

import numpy as np


@dataclass(frozen=True)
class InferenceRequest:
    """One serving request: who asked, when, and how much KV it implies."""

    request_id: str
    user: str
    arrival_s: float
    context_tokens: int
    decode_tokens: int

    def total_tokens(self) -> int:
        """Context plus generated tokens — the request's final KV span."""
        return self.context_tokens + self.decode_tokens


@dataclass(frozen=True)
class TraceConfig:
    """Knobs of the synthetic workload generator."""

    num_requests: int = 32
    #: Poisson arrival intensity (requests per second of virtual time).
    arrival_rate_per_s: float = 8.0
    num_users: int = 4
    seed: int = 1234
    #: Median context length; the log-normal ``sigma`` sets the tail
    #: weight (0 = constant, ~1 = heavy tail).
    context_tokens_median: int = 384
    context_sigma: float = 0.9
    min_context_tokens: int = 32
    max_context_tokens: int = 4096
    #: Mean generated tokens (Poisson), floored at ``min_decode_tokens``.
    decode_tokens_mean: int = 12
    min_decode_tokens: int = 2

    def validate(self) -> None:
        if self.num_requests < 1:
            raise ValueError(f"num_requests must be >= 1: {self.num_requests}")
        if self.arrival_rate_per_s <= 0:
            raise ValueError(
                f"arrival_rate_per_s must be > 0: {self.arrival_rate_per_s}"
            )
        if self.num_users < 1:
            raise ValueError(f"num_users must be >= 1: {self.num_users}")
        if not (
            0 < self.min_context_tokens
            <= self.context_tokens_median
            <= self.max_context_tokens
        ):
            raise ValueError(
                "need 0 < min_context_tokens <= context_tokens_median "
                "<= max_context_tokens"
            )


@dataclass(frozen=True)
class RequestTrace:
    """An immutable, arrival-ordered request stream."""

    config: TraceConfig
    requests: Tuple[InferenceRequest, ...] = field(default_factory=tuple)

    @classmethod
    def generate(cls, config: TraceConfig) -> "RequestTrace":
        """Deterministically expand a config into its request stream."""
        config.validate()
        rng = np.random.default_rng(config.seed)
        requests: List[InferenceRequest] = []
        clock = 0.0
        for i in range(config.num_requests):
            clock += float(rng.exponential(1.0 / config.arrival_rate_per_s))
            context = int(
                np.clip(
                    round(
                        float(
                            rng.lognormal(
                                mean=np.log(config.context_tokens_median),
                                sigma=config.context_sigma,
                            )
                        )
                    ),
                    config.min_context_tokens,
                    config.max_context_tokens,
                )
            )
            decode = max(
                config.min_decode_tokens,
                int(rng.poisson(config.decode_tokens_mean)),
            )
            user = f"user{int(rng.integers(config.num_users))}"
            requests.append(
                InferenceRequest(
                    request_id=f"req{i:04d}",
                    user=user,
                    arrival_s=clock,
                    context_tokens=context,
                    decode_tokens=decode,
                )
            )
        return cls(config=config, requests=tuple(requests))

    def with_seed(self, seed: int) -> "RequestTrace":
        """Regenerate the trace under a different seed, same shape."""
        return RequestTrace.generate(replace(self.config, seed=seed))

    # -------------------------------------------------------------- views
    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[InferenceRequest]:
        return iter(self.requests)

    @property
    def users(self) -> Tuple[str, ...]:
        """Distinct users, sorted (the tenant set of the run)."""
        return tuple(sorted({r.user for r in self.requests}))

    @property
    def max_context_tokens(self) -> int:
        return max(r.context_tokens for r in self.requests)
