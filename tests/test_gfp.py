import numpy as np
import pytest

from prmw import GF, DomainError
from prmw.gfp import F32_BLOCK, f32_products, is_prime


@pytest.mark.parametrize("q", [0, 1, 4, 6, 9, 15])
def test_composite_modulus_rejected(q):
    with pytest.raises(DomainError):
        GF(q)


def test_prime_but_unsupported_rejected():
    with pytest.raises(DomainError):
        GF(17)


def test_is_prime_small_values():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


# -- float32 products ------------------------------------------------------------


def _int_products(rows, mat):
    return rows.astype(np.int64) @ mat.astype(np.int64)


def _gathered(rows, mat, bound=1 << 20, what="test"):
    """The blocks of ``f32_products`` put back together, with their starts."""
    blocks = list(f32_products(rows, mat, bound, what))
    starts = [start for start, _ in blocks]
    return starts, np.concatenate([b for _, b in blocks]) if blocks else None


@pytest.mark.parametrize(
    "shape, width, dtype",
    [
        ((5, 7), 9, np.uint8),  # one block, matrix converted once
        ((300, 64), 1000, np.uint8),  # many row blocks, matrix converted once
        ((40, 2000), 600, bool),  # matrix past 1 MB: converted a block of columns at a time
        ((9, 4000), 70, np.uint8),  # past 1 MB, the last block of columns partial
        ((130, 3, 5), 200, np.int64),  # 3-D rows: a block holds whole (3, 5) slabs
        ((7, 11), 5, np.float32),  # matrix already float32, used as it is
    ],
)
def test_f32_products_match_integer_products(shape, width, dtype):
    rng = np.random.default_rng(sum(shape) + width)
    rows = rng.integers(0, 3, shape)
    mat = rng.integers(0, 3, (shape[-1], width)).astype(dtype)
    starts, got = _gathered(rows, mat)
    assert got.dtype == np.float32 and got.shape == (*shape[:-1], width)
    assert np.array_equal(got, _int_products(rows, mat))
    # blocks are contiguous runs of whole leading rows
    step = max(1, F32_BLOCK // (int(np.prod(shape[1:-1])) * width))
    assert starts == list(range(0, shape[0], step))


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_f32_products_at_block_edges(extra):
    # rows of width 256 sums: a block holds exactly F32_BLOCK // 256 of them
    per_block = F32_BLOCK // 256
    rows = np.ones((2 * per_block + extra, 3), dtype=np.uint8)
    mat = np.arange(3 * 256, dtype=np.uint8).reshape(3, 256) % 7
    starts, got = _gathered(rows, mat)
    assert starts == list(range(0, len(rows), per_block))
    assert np.array_equal(got, _int_products(rows, mat))


def test_f32_products_large_matrix_is_never_converted_whole():
    # a 2 MB uint8 matrix would take 8 MB as float32; it is converted a
    # block of columns at a time, so the peak stays near a few blocks
    import tracemalloc

    rng = np.random.default_rng(3)
    mat = rng.integers(0, 2, (1024, 2048), dtype=np.uint8)
    rows = rng.integers(0, 2, (4, 1024), dtype=np.uint8)
    tracemalloc.start()
    try:
        _, got = _gathered(rows, mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 4 * F32_BLOCK < 4 * mat.size
    assert np.array_equal(got, _int_products(rows, mat))


def test_f32_products_refuses_inexact_sums_naming_the_caller():
    rows, mat = np.ones((2, 2), dtype=np.uint8), np.ones((2, 2), dtype=np.uint8)
    assert _gathered(rows, mat, bound=(1 << 24) - 1)[1].tolist() == [[2, 2], [2, 2]]
    for bound in (1 << 24, 1 << 30):
        with pytest.raises(RuntimeError, match=f"form values: sums up to {bound} are not exact"):
            _gathered(rows, mat, bound=bound, what="form values")
