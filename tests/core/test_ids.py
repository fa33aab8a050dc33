"""Tests for get_id() deduplication and weight exclusion (Sec. III-C1)."""

import numpy as np

from repro.core.ids import STORAGE_STAMP_KEY, TensorID, TensorIDRegistry
from repro.nn.linear import Linear
from repro.tensor.tensor import Parameter, Tensor


def test_same_tensor_same_id():
    reg = TensorIDRegistry()
    t = Tensor(np.zeros((4, 4), dtype=np.float32))
    assert reg.get_id(t) == reg.get_id(t)


def test_distinct_tensors_distinct_ids():
    reg = TensorIDRegistry()
    a = Tensor(np.zeros((4, 4), dtype=np.float32))
    b = Tensor(np.zeros((4, 4), dtype=np.float32))
    assert reg.get_id(a) != reg.get_id(b)


def test_new_tensor_object_same_storage_dedups():
    """PyTorch 'sometimes creates new torch.Tensor objects representing the
    identical tensor' — same storage + shape => same id."""
    reg = TensorIDRegistry()
    t = Tensor(np.zeros((4, 4), dtype=np.float32))
    view = t.detach()
    assert reg.get_id(t) == reg.get_id(view)


def test_transpose_shares_stamp_differs_in_shape():
    reg = TensorIDRegistry()
    t = Tensor(np.zeros((2, 6), dtype=np.float32), requires_grad=True)
    tid = reg.get_id(t)
    tid_t = reg.get_id(t.transpose(0, 1))
    assert tid.stamp == tid_t.stamp
    assert tid.shape == (2, 6) and tid_t.shape == (6, 2)


def test_id_survives_address_reuse():
    """The failure mode of native id(): a freed buffer's address can be
    reused.  Stamps are process-unique so recycled addresses never collide."""
    reg = TensorIDRegistry()
    seen = set()
    for _ in range(100):
        t = Tensor(np.zeros((64,), dtype=np.float32))
        tid = reg.get_id(t)
        assert tid not in seen
        seen.add(tid)
        del t  # buffer may be reused by the allocator next iteration


def test_stamp_attached_to_storage_metadata():
    reg = TensorIDRegistry()
    t = Tensor(np.zeros(4, dtype=np.float32))
    reg.get_id(t)
    assert STORAGE_STAMP_KEY in t.untyped_storage().metadata


def test_filename_stable_and_filesystem_safe():
    tid = TensorID(stamp=123, shape=(4, 5))
    assert tid.filename() == "t123_4x5"
    assert str(TensorID(stamp=1, shape=())) == "t1_scalar"


def test_weight_recording_excludes_param():
    reg = TensorIDRegistry()
    w = Parameter(np.zeros((3, 5), dtype=np.float32))
    assert not reg.is_weight(w)
    reg.record_weight(w)
    assert reg.is_weight(w)


def test_weight_transpose_recorded():
    """Linear layers register the transpose of weights; its id must be in
    the exclusion set and consistent across steps."""
    reg = TensorIDRegistry()
    w = Parameter(np.zeros((3, 5), dtype=np.float32))
    reg.record_weight(w)
    for _ in range(3):  # multiple "steps": same id every time
        assert reg.is_weight(w.T)


def test_non_weight_same_shape_not_excluded():
    reg = TensorIDRegistry()
    w = Parameter(np.zeros((3, 3), dtype=np.float32))
    reg.record_weight(w)
    other = Tensor(np.zeros((3, 3), dtype=np.float32))
    assert not reg.is_weight(other)


def test_record_module_weights_counts():
    reg = TensorIDRegistry()
    layer = Linear(4, 6, rng=np.random.default_rng(0))
    count = reg.record_module_weights(layer)
    assert count == 2  # weight + bias
    assert reg.is_weight(layer.weight)
    assert reg.is_weight(layer.weight.T)
    assert reg.is_weight(layer.bias)
    # weight + transposed weight + bias
    assert reg.num_weights == 3
