"""Delay embedding, the shifted pair, and anti-diagonal collapse."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscidmd as od
from oscidmd.stacking import antidiagonal_sums, unembed


def record_from(values, dt=1.0):
    arr = np.asarray(values, dtype=float)[None, :]
    return od.SignalRecord(
        names=("x",),
        data=arr,
        missing_mask=np.zeros_like(arr, dtype=bool),
        dt=dt,
    )


def test_flagship_shape_5000_samples_depth_1000(lfo_clean_embedded):
    assert lfo_clean_embedded.shape == (1000, 4001)


def test_smallest_hankel():
    hankel = od.delay_embed(record_from([1.0, 2.0, 3.0]), "x", 2)
    assert np.array_equal(hankel, [[1.0, 2.0], [2.0, 3.0]])


def test_identity_embedding():
    values = np.arange(10.0)
    hankel = od.delay_embed(record_from(values), "x", 1)
    assert np.array_equal(hankel, values[None, :])


def test_depth_too_large_names_maximum():
    with pytest.raises(ValueError, match="maximum feasible depth is 9"):
        od.delay_embed(record_from(np.arange(10.0)), "x", 10)


def test_depth_zero_rejected():
    with pytest.raises(ValueError, match="stack depth must be at least 1"):
        od.delay_embed(record_from(np.arange(10.0)), "x", stack_depth=0)


def test_default_depth_is_fifth_of_length():
    assert od.default_stack_depth(5000) == 1000
    assert od.default_stack_depth(7) == 1
    assert od.default_stack_depth(2) == 1


def test_embed_defaults_to_first_channel_and_depth():
    rng = np.random.default_rng(1)
    rec = od.SignalRecord(
        names=("a", "b"),
        data=rng.normal(size=(2, 50)),
        missing_mask=np.zeros((2, 50), dtype=bool),
        dt=0.5,
    )
    hankel = od.delay_embed(rec)
    assert hankel.shape == (10, 41)
    assert np.array_equal(hankel[0], rec.data[0, :41])


@settings(max_examples=120, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=4, max_size=48
    ),
    data=st.data(),
)
def test_hankel_structure_matches_source(values, data):
    depth = data.draw(st.integers(min_value=1, max_value=len(values) - 1))
    hankel = od.delay_embed(record_from(values), "x", depth)
    m, n = hankel.shape
    assert m == depth
    assert m + n - 1 == len(values)
    for i in range(m):
        for j in range(n):
            assert hankel[i, j] == values[i + j]


def test_unembed_inverts_embedding():
    rng = np.random.default_rng(7)
    values = rng.normal(size=80)
    hankel = od.delay_embed(record_from(values), "x", 16)
    np.testing.assert_allclose(unembed(hankel), values, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("shape", [(2, 1), (257, 3), (600, 300), (1000, 999), (513, 512)])
def test_tall_sums_equal_wide_sums_bit_for_bit(shape):
    # a tall matrix is summed through its tiled transpose, in the same order
    # as the same matrix stored wide, and against a per-diagonal reference
    tall = np.random.default_rng(shape[0]).normal(size=shape)
    wide = np.ascontiguousarray(tall.T)
    assert np.array_equal(antidiagonal_sums(tall), antidiagonal_sums(wide))
    assert np.array_equal(antidiagonal_sums(tall), antidiagonal_sums(tall.T))
    flipped = tall[::-1]
    want = [np.diagonal(flipped, offset=k - shape[0] + 1).sum() for k in range(sum(shape) - 1)]
    np.testing.assert_allclose(antidiagonal_sums(tall), want, rtol=1e-12, atol=1e-12)


def test_unembed_rejects_empty():
    with pytest.raises(ValueError):
        unembed(np.empty((0, 0)))


def test_snapshot_matrix_immutable(lfo_clean_embedded):
    with pytest.raises(ValueError):
        lfo_clean_embedded[0, 0] = 1.0


def test_embedding_is_read_only_view_of_record():
    rec = record_from(np.arange(30.0))
    hankel = od.delay_embed(rec, "x", 6)
    assert np.shares_memory(hankel, rec.data)
    assert not hankel.flags.writeable
