"""Activation checkpointing (the recomputation baseline).

The paper compares SSDTrain against "layerwise full recomputation":
checkpoint every transformer layer, keep only the layer inputs, and re-run
the layer's forward inside backward.  See
:func:`~repro.checkpoint.checkpoint.checkpoint`.
"""

from repro.checkpoint.checkpoint import checkpoint, checkpoint_sequential

__all__ = [
    "checkpoint",
    "checkpoint_sequential",
]
