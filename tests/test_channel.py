import numpy as np
import pytest

from psbicm.channel import ChannelConfig, awgn


def test_noise_variance():
    cfg = ChannelConfig(snr_db=10.0, seed=1, block_id=0)
    x = np.zeros(1_000_000, dtype=complex)
    y = awgn(x, cfg)
    var = np.mean(np.abs(y) ** 2)
    expected = 1.0 / cfg.snr_linear
    # chi-square relative 3-sigma at 2e6 dims ~ 0.3%
    assert var == pytest.approx(expected, rel=4e-3)
    # per-dimension split
    assert np.var(y.real) == pytest.approx(expected / 2, rel=6e-3)
    assert np.var(y.imag) == pytest.approx(expected / 2, rel=6e-3)


def test_determinism_and_substreams():
    x = np.ones(4096, dtype=complex)
    a = awgn(x, ChannelConfig(snr_db=5.0, seed=7, block_id=3))
    b = awgn(x, ChannelConfig(snr_db=5.0, seed=7, block_id=3))
    assert np.array_equal(a, b)
    c = awgn(x, ChannelConfig(snr_db=5.0, seed=7, block_id=4))
    d = awgn(x, ChannelConfig(snr_db=5.0, seed=8, block_id=3))
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_substream_cross_correlation():
    n = 200_000
    x = np.zeros(n, dtype=complex)
    blocks = [awgn(x, ChannelConfig(snr_db=0.0, seed=11, block_id=b)).real for b in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            rho = np.corrcoef(blocks[i], blocks[j])[0, 1]
            assert abs(rho) < 4.0 / np.sqrt(n)


def test_noiseless():
    cfg = ChannelConfig(snr_db=np.inf)
    assert cfg.noiseless and cfg.noise_sigma == 0.0
    x = (np.arange(10) + 1j * np.arange(10)).astype(complex)
    y = awgn(x, cfg)
    assert np.array_equal(y, x)
    assert y is not x


def test_empirical_snr_close_to_configured():
    rng = np.random.default_rng(0)
    x = np.exp(2j * np.pi * rng.random(500_000))   # unit-energy symbols
    for snr_db in (0.0, 9.0):
        cfg = ChannelConfig(snr_db=snr_db, seed=2, block_id=1)
        y = awgn(x, cfg)
        est = np.mean(np.abs(x) ** 2) / np.mean(np.abs(y - x) ** 2)
        assert est == pytest.approx(cfg.snr_linear, rel=8e-3)


def test_nan_snr_rejected():
    with pytest.raises(ValueError):
        ChannelConfig(snr_db=float("nan"))


def test_snr_without_a_usable_linear_value_rejected():
    # 10^(dB/10) overflows above about 3082.5 dB and is subnormal or zero
    # below about -3076.5 dB: a ValueError, not an OverflowError from
    # snr_linear or a ZeroDivisionError from noise_sigma
    for db in (4000.0, -4000.0, 3083.0, -3077.0, -np.inf, np.float64(4000.0)):
        with pytest.raises(ValueError, match="snr_db must be"):
            ChannelConfig(snr_db=db)
    for db in (3082.0, -3076.0, np.float64(-3076.0)):
        cfg = ChannelConfig(snr_db=db)
        assert 0 < cfg.snr_linear < np.inf and 0 < cfg.noise_sigma < np.inf
    assert ChannelConfig(snr_db=np.inf).noiseless and not ChannelConfig(snr_db=3082.0).noiseless


def test_seed_and_block_id_must_key_philox():
    # the Philox key is two uint64 words: anything else is a ValueError,
    # not an OverflowError from rng()
    for bad in (-1, 1 << 64, True, 1.5, "3"):
        with pytest.raises(ValueError, match="seed must be an integer"):
            ChannelConfig(snr_db=1.0, seed=bad)
        with pytest.raises(ValueError, match="block_id must be an integer"):
            ChannelConfig(snr_db=1.0, block_id=bad)
    ChannelConfig(snr_db=1.0, seed=(1 << 64) - 1, block_id=np.int64(3)).rng()
