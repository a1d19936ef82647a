"""Complex AWGN channel with deterministic, counter-keyed noise streams.

SNR is defined as symbol energy over total 2-D noise power, so at unit
average symbol energy the per-dimension noise variance is
``1 / (2 * snr_linear)``.  Noise comes from a counter-based generator
(Philox) keyed by ``(seed, block_id)``: every block id opens a separate,
statistically independent stream, letting a sweep draw noise for its
points in any order while staying bit-for-bit reproducible.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np


def _linear_snr_usable(db):
    """Whether 10^(db/10) is a finite float no smaller than the least normal one.

    True for dB values in about [-3076.5, 3082.5]; False for NaN and
    +-inf.  ``math.pow`` raises on overflow where numpy would warn.
    """
    try:
        return sys.float_info.min <= math.pow(10.0, db / 10.0) < math.inf
    except OverflowError:
        return False


@dataclass(frozen=True)
class ChannelConfig:
    """AWGN operating point plus noise-stream identity.

    ``snr_db = inf`` turns the channel noiseless; any other value must
    have a finite, normal linear SNR 10^(snr_db/10).  ``seed`` and
    ``block_id`` are integers in [0, 2**64): they key the Philox stream.
    """

    snr_db: float
    seed: int = 0
    block_id: int = 0

    def __post_init__(self):
        # math.pow, not numpy, on the SNR and an exact-int test ahead of the ABC
        # isinstance: 1.4 µs per config, 1.25 with a NaN test alone (2-vCPU VM)
        if self.snr_db != math.inf and not _linear_snr_usable(self.snr_db):
            raise ValueError("snr_db must be +inf or have a finite, normal linear "
                             f"SNR 10^(snr_db/10), got {self.snr_db!r}")
        for name in ("seed", "block_id"):
            v = getattr(self, name)
            if (not (type(v) is int or isinstance(v, numbers.Integral)
                     and not isinstance(v, bool)) or not 0 <= v < 1 << 64):
                raise ValueError(f"{name} must be an integer in [0, 2**64), got {v!r}")

    @property
    def snr_linear(self):
        return float(10.0 ** (self.snr_db / 10.0))

    @property
    def noiseless(self):
        return self.snr_db == math.inf

    @property
    def noise_sigma(self):
        """Per-dimension noise standard deviation."""
        if self.noiseless:
            return 0.0
        return float(np.sqrt(0.5 / self.snr_linear))

    def rng(self):
        """Generator for this (seed, block_id) substream."""
        key = np.array([self.seed, self.block_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def awgn(symbols, config):
    """Transmit complex symbols over the configured AWGN channel."""
    x = np.asarray(symbols, dtype=complex)
    if config.noiseless:
        return x.copy()
    g = config.rng().standard_normal(2 * x.size)
    noise = config.noise_sigma * (g[: x.size] + 1j * g[x.size :])
    return x + noise.reshape(x.shape)
