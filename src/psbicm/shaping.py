"""Probabilistic amplitude shaping: target pmfs, compositions, CCDM.

A shaped transmitter draws PAM amplitudes from a nonuniform distribution
while sign bits stay uniform.  This module provides

* Maxwell-Boltzmann amplitude pmfs and named presets,
* quantization of a target pmf to an integer composition of block length
  ``n_pam`` (largest-remainder rounding),
* a constant-composition distribution matcher (CCDM): an invertible
  fixed-to-fixed length code from ``k_ps`` uniform payload bits to
  amplitude sequences that all share the composition's histogram,
* the induced shaping rate loss.

The CCDM realizes arithmetic-coding interval subdivision over the
shrinking composition with exact Python integers, which is equivalent to
lexicographic (un)ranking of constant-composition sequences: payload
``u`` selects sequence index ``floor(u * C / 2**k_ps)`` of the ``C``
possible sequences.  Exact arithmetic keeps encode/decode perfectly
inverse at any block length, with no register-width bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial

import numpy as np

from .constellation import gray_pam_levels


def mb_amplitude_pmf(nu, n_levels=4):
    """Maxwell-Boltzmann pmf over odd amplitudes 1, 3, ..., 2*n_levels-1.

    ``p(a) ~ exp(-nu * a^2)``; ``nu = 0`` gives the uniform pmf.
    """
    a = 2 * np.arange(n_levels) + 1.0
    w = np.exp(-nu * a**2)
    return w / w.sum()


def fit_mb_pmf(h_target_2d, n_levels=4):
    """MB pmf whose shaped-QAM entropy H(B) matches ``h_target_2d``.

    ``h_target_2d`` counts bits per 2-D symbol including the two uniform
    sign bits, i.e. the 1-D amplitude entropy is ``h_target_2d/2 - 1``.
    Solved by bisection on the (monotone) scale parameter.
    """
    h1 = h_target_2d / 2.0 - 1.0
    if not 0.0 <= h1 <= np.log2(n_levels):
        raise ValueError(f"target entropy {h_target_2d} out of range")

    def h_amp(nu):
        p = mb_amplitude_pmf(nu, n_levels)
        p = p[p > 0]
        return float(-(p * np.log2(p)).sum())

    lo, hi = 0.0, 1.0
    while h_amp(hi) > h1:
        hi *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if h_amp(mid) > h1:
            lo = mid
        else:
            hi = mid
    return mb_amplitude_pmf(0.5 * (lo + hi), n_levels)


# shaped 8-PAM operating points: MB pmfs entropy-matched to
# H(B) = 4.124 / 4.604 / 5.226 bits per 2-D; they round to
# (i) [.698 .262 .037 .002]  (ii) [.611 .304 .076 .009]  (iii) [.494 .325 .141 .040]
_PRESET_H2D = {"i": 4.124, "ii": 4.604, "iii": 5.226}


def amplitude_preset(name, n_levels=4):
    """Named 1-D amplitude pmfs: 'uniform' or shaped presets 'i'/'ii'/'iii'."""
    if name == "uniform":
        return np.full(n_levels, 1.0 / n_levels)
    if name in _PRESET_H2D:
        if n_levels != 4:
            raise ValueError("shaped presets are defined for 4 amplitude levels")
        return fit_mb_pmf(_PRESET_H2D[name])
    raise ValueError(f"unknown amplitude preset {name!r}")


def multinomial(counts):
    """Exact number of distinct sequences with the given symbol counts."""
    n = int(sum(counts))
    v = factorial(n)
    for c in counts:
        v //= factorial(int(c))
    return v


@dataclass(frozen=True)
class AmplitudeComposition:
    """Fixed histogram of amplitudes for one shaping codeword.

    Attributes
    ----------
    alphabet : int ndarray
        Ascending amplitude values, e.g. [1, 3, 5, 7].
    counts : int ndarray
        Occurrences of each amplitude; ``sum(counts) = n_pam``.
    """

    alphabet: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        alphabet = np.asarray(self.alphabet, dtype=np.int64)
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "counts", counts)
        if alphabet.size != counts.size:
            raise ValueError("alphabet and counts length mismatch")
        if np.any(counts < 0) or counts.sum() <= 0:
            raise ValueError("counts must be nonnegative with positive total")
        if np.any(np.diff(alphabet) <= 0):
            raise ValueError("alphabet must be strictly ascending")

    @property
    def n_pam(self):
        """Shaping codeword length in 1-D (PAM) symbols."""
        return int(self.counts.sum())

    @cached_property
    def n_sequences(self):
        """Exact count of constant-composition sequences (multinomial)."""
        return multinomial(self.counts)

    @cached_property
    def k_ps(self):
        """Payload bits per shaping codeword: floor(log2 n_sequences)."""
        return self.n_sequences.bit_length() - 1

    @property
    def pmf(self):
        """Empirical amplitude pmf counts/n_pam."""
        return self.counts / self.n_pam

    def to_json(self):
        return {"alphabet": self.alphabet.tolist(), "counts": self.counts.tolist()}


def quantize_pmf(target_pmf, n_pam, alphabet=None):
    """Round a target amplitude pmf to an integer composition of n_pam.

    Largest-remainder rounding: floor all scaled probabilities, then hand
    the remaining units to the largest fractional parts (ties broken by
    lower amplitude index).  Deterministic, and exact for pmfs that are
    already multiples of 1/n_pam.
    """
    p = np.asarray(target_pmf, dtype=float)
    if np.any(p < 0) or p.sum() <= 0:
        raise ValueError("target pmf must be nonnegative with positive sum")
    if n_pam < p.size:
        raise ValueError("n_pam smaller than alphabet size")
    p = p / p.sum()
    t = p * n_pam
    counts = np.floor(t).astype(np.int64)
    rem = t - counts
    # stable argsort on (-remainder) keeps index order among ties
    for i in np.argsort(-rem, kind="stable")[: n_pam - counts.sum()]:
        counts[i] += 1
    if alphabet is None:
        alphabet = 2 * np.arange(p.size) + 1
    return AmplitudeComposition(alphabet=alphabet, counts=counts)


def _sequence_count_after(c_total, count_j, n_rem):
    # sequences continuing with symbol j: C * c_j / n_rem, exact in integers
    return c_total * count_j // n_rem


def ccdm_encode(payload_bits, composition):
    """Map k_ps payload bits to one constant-composition amplitude sequence.

    Parameters
    ----------
    payload_bits : array_like of 0/1, length composition.k_ps, MSB first.

    Returns
    -------
    int ndarray of length n_pam with exactly the composition's histogram.
    """
    k = composition.k_ps
    bits = np.asarray(payload_bits).ravel()
    if bits.size != k:
        raise ValueError(f"payload must have {k} bits, got {bits.size}")
    # packbits pads the last byte with zeros on the right
    u = int.from_bytes(np.packbits(bits.astype(bool)).tobytes(), "big") >> (-k % 8)
    c_total = composition.n_sequences
    r = (u * c_total) >> k            # sequence index, in [0, C)
    counts = composition.counts.tolist()
    alphabet = composition.alphabet.tolist()
    out = []
    for n_rem in range(composition.n_pam, 0, -1):
        for j, count in enumerate(counts):
            if not count:
                continue
            c_j = c_total * count // n_rem    # _sequence_count_after, inlined
            if r < c_j:
                out.append(alphabet[j])
                counts[j] = count - 1
                c_total = c_j
                break
            r -= c_j
        else:                          # pragma: no cover - unreachable
            raise AssertionError("ran out of symbols while unranking")
    return np.array(out, dtype=np.int64)


def ccdm_decode(amplitudes, composition):
    """Recover the payload bits from a constant-composition sequence.

    Exact inverse of ``ccdm_encode``; raises if the sequence's histogram
    does not match the composition or it is not an encoder output.
    """
    amps = np.asarray(amplitudes, dtype=np.int64)
    if amps.size != composition.n_pam:
        raise ValueError("sequence length mismatch")
    index_of = {int(a): j for j, a in enumerate(composition.alphabet)}
    counts = composition.counts.copy()
    c_total = composition.n_sequences
    n_rem = composition.n_pam
    r = 0
    for a in amps:
        j = index_of.get(int(a))
        if j is None or counts[j] == 0:
            raise ValueError("sequence violates the composition")
        for i in range(j):
            if counts[i]:
                r += _sequence_count_after(c_total, int(counts[i]), n_rem)
        c_total = _sequence_count_after(c_total, int(counts[j]), n_rem)
        counts[j] -= 1
        n_rem -= 1
    k = composition.k_ps
    c_all = composition.n_sequences
    # unique payload with floor(u*C/2^k) == r, since C >= 2^k
    u = -((-(r << k)) // c_all)        # ceil(r * 2^k / C)
    if (u * c_all) >> k != r or u >> k:
        raise ValueError("sequence is not an encoder output")
    bits = np.empty(k, dtype=np.uint8)
    for i in range(k - 1, -1, -1):
        bits[i] = u & 1
        u >>= 1
    return bits


def rate_loss(composition):
    """Shaping rate loss in bits per 2-D symbol.

    Entropy of the realized amplitude pmf minus the actual payload rate
    ``k_ps/n_pam``, doubled for the two dimensions; nonnegative, shrinking
    as the shaping block length grows.
    """
    p = composition.pmf
    p = p[p > 0]
    h = float(-(p * np.log2(p)).sum())
    return 2.0 * (h - composition.k_ps / composition.n_pam)


def amplitudes_to_bits(amplitudes, bar_m):
    """Amplitude-select bits (tributaries 2..bar_m) of 1-D amplitudes.

    Returns (n, bar_m - 1) uint8, matching the constellation's Gray
    amplitude labeling; inverse of ``bits_to_amplitudes``.
    """
    lev = gray_pam_levels(bar_m)
    n_amp = 1 << (bar_m - 1)
    label_of_amp = np.empty(n_amp, dtype=np.int64)   # (a-1)/2 -> amplitude label
    label_of_amp[(lev[:n_amp] - 1) // 2] = np.arange(n_amp)
    amps = np.asarray(amplitudes, dtype=np.int64)
    labels = label_of_amp[(amps - 1) // 2]
    shifts = np.arange(bar_m - 2, -1, -1)
    return ((labels[:, None] >> shifts) & 1).astype(np.uint8)


def bits_to_amplitudes(bits, bar_m):
    """Inverse of ``amplitudes_to_bits``."""
    lev = gray_pam_levels(bar_m)
    bits = np.asarray(bits)
    weights = 1 << np.arange(bar_m - 2, -1, -1)
    labels = (bits * weights).sum(axis=-1)
    return np.abs(lev[labels])
