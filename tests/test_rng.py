import numpy as np
import pytest

from proxsplit.errors import ParameterError
from proxsplit.rng import Stream, mix64, substream_seed


def test_mix64_reference_values():
    # splitmix64 finalizer fixed points / published test vector:
    # seed 0 advanced by the golden-ratio increment gives this first output
    assert mix64(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF
    assert mix64(0) == 0
    # the input is taken modulo 2**64
    assert mix64(-1) == 13029008266876403067
    assert mix64(2**64 + 5) == 13168350753275463132


def test_stream_is_deterministic():
    a = Stream(12345).uniforms(100)
    b = Stream(12345).uniforms(100)
    assert np.array_equal(a, b)
    g1 = Stream(77).gaussians(257)
    g2 = Stream(77).gaussians(257)
    assert np.array_equal(g1, g2)


def test_stream_is_counter_based():
    # draws are a pure function of the counter: one big batch equals many
    # small batches
    s = Stream(5)
    big = s.uniforms(50)
    s2 = Stream(5)
    small = np.concatenate([s2.uniforms(7), s2.uniforms(13), s2.uniforms(30)])
    assert np.array_equal(big, small)


def test_uniforms_in_unit_interval():
    u = Stream(99).uniforms(10_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02


def test_gaussian_moments():
    g = Stream(2024).gaussians(200_000)
    assert abs(g.mean()) < 0.01
    assert abs(g.var() - 1.0) < 0.01


def test_substreams_differ_and_are_stable():
    s = substream_seed(20170520, 1)
    t = substream_seed(20170520, 2)
    assert s != t
    assert s == substream_seed(20170520, 1)
    # different master seeds give different substreams
    assert s != substream_seed(20170521, 1)
    # the scene's noise substreams (ct's measurement and prior tags)
    assert s == 4545898163372077500
    assert t == 12282678650058246131


def test_numpy_integer_seeds_match_python_ints():
    for seed in (3, -3, 2**63 - 1):
        assert substream_seed(np.int64(seed), 1) == substream_seed(seed, 1)
        assert np.array_equal(Stream(np.int64(seed)).uniforms(9),
                              Stream(seed).uniforms(9))
    # and so are counts and tags
    assert substream_seed(7, np.int64(-2)) == substream_seed(7, -2)
    assert np.array_equal(Stream(1).gaussians(np.int64(3)),
                          Stream(1).gaussians(3))
    # a bool is no count
    for bad in (1.5, "3", None, True):
        with pytest.raises(ParameterError, match="seed"):
            Stream(bad)
        with pytest.raises(ParameterError, match="seed"):
            substream_seed(bad, 1)


def test_different_seeds_give_different_streams():
    assert not np.array_equal(Stream(1).uniforms(20), Stream(2).uniforms(20))


@pytest.mark.parametrize("draw", ["uniforms", "gaussians"])
@pytest.mark.parametrize("bad", [2.5, -3, True, "2", None])
def test_a_count_is_an_integer_at_least_zero(draw, bad):
    # a fractional or negative count would move the counter off the
    # integers or back, and later draws would repeat earlier ones
    stream = Stream(1)
    with pytest.raises(ParameterError, match="count"):
        getattr(stream, draw)(bad)
    assert getattr(stream, draw)(0).size == 0
    assert np.array_equal(stream.uniforms(2), Stream(1).uniforms(2))


@pytest.mark.parametrize("bad", [1.5, True, "1", None])
def test_a_tag_is_an_integer(bad):
    with pytest.raises(ParameterError, match="tag"):
        substream_seed(7, bad)
