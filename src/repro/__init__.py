"""SSDTrain reproduction: activation offloading to SSDs for LLM training.

Reproduces "SSDTrain: An Activation Offloading Framework to SSDs for
Faster Large Language Model Training" (DAC 2025, arXiv:2408.10013) as a
self-contained Python library.  See README.md for the quickstart and
architecture overview, and docs/architecture.md for the internals tour
(activation state machine, data-forwarding rule, tier/chunk design).

Top-level convenience re-exports cover the common entry points::

    from repro import TensorCache, SSDOffloader, Trainer, PlacementStrategy
    from repro import GPT, BERT, T5, ModelConfig, GPU
"""

from repro.core import (
    AutotuneController,
    ControllerConfig,
    CPUOffloader,
    Engine,
    EngineConfig,
    EngineConfigError,
    EngineStats,
    build_engine,
    OffloadPolicy,
    PolicyConfig,
    SSDOffloader,
    TensorCache,
    TensorIDRegistry,
    Tier,
    TieredOffloader,
)
from repro.device import GPU, MemoryTag
from repro.models import BERT, GPT, ModelConfig, T5
from repro.optim import Adam, SGD
from repro.train import PlacementStrategy, Trainer

__version__ = "1.0.0"

__all__ = [
    "TensorCache",
    "SSDOffloader",
    "CPUOffloader",
    "TieredOffloader",
    "Tier",
    "Engine",
    "EngineConfig",
    "EngineConfigError",
    "EngineStats",
    "build_engine",
    "OffloadPolicy",
    "PolicyConfig",
    "TensorIDRegistry",
    "AutotuneController",
    "ControllerConfig",
    "GPU",
    "MemoryTag",
    "GPT",
    "BERT",
    "T5",
    "ModelConfig",
    "SGD",
    "Adam",
    "Trainer",
    "PlacementStrategy",
    "__version__",
]
