"""Probabilistic amplitude shaping: target pmfs, compositions, CCDM.

A shaped transmitter draws PAM amplitudes from a nonuniform distribution
while sign bits stay uniform.  This module provides

* Maxwell-Boltzmann amplitude pmfs and named presets, whose MB scales nu
  are tabulated, not fitted per call,
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

import numbers
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .constellation import _entropy_bits, gray_pam_levels

# amplitude levels of the one shaped format, 64-QAM (8-PAM)
_N_AMPLITUDES = 4


def mb_amplitude_pmf(nu):
    """Maxwell-Boltzmann pmf over the odd amplitudes 1, 3, 5, 7.

    ``p(a) ~ exp(-nu * a^2)``; ``nu = 0`` gives the uniform pmf.
    """
    a = 2 * np.arange(_N_AMPLITUDES) + 1.0
    w = np.exp(-nu * a**2)
    return w / w.sum()


# shaped 8-PAM operating points: the MB scales nu, found once by bisection, whose
# pmfs have H(B) = 2 (1 + H(A)) = 4.124 / 4.604 / 5.226 bits per 2-D; they round to
# (i) [.698 .262 .037 .002]  (ii) [.611 .304 .076 .009]  (iii) [.494 .325 .141 .040]
_PRESET_NU = {"i": float.fromhex("0x1.f51da5890887ap-4"),      # H(B) = 4.124
              "ii": float.fromhex("0x1.644f03c82f6dap-4"),     # H(B) = 4.604
              "iii": float.fromhex("0x1.ad42676e5fa1ep-5")}    # H(B) = 5.226


def amplitude_preset(name):
    """Named 1-D amplitude pmf: MB at the tabulated nu of 'i', 'ii' or 'iii'."""
    if name in _PRESET_NU:
        return mb_amplitude_pmf(_PRESET_NU[name])
    raise ValueError(f"unknown amplitude preset {name!r}")


def multinomial(counts):
    """Exact sequence count of the symbol counts: prod_j C(n_1 + ... + n_j, n_j)."""
    v, n = 1, 0
    for c in map(int, counts):
        n += c
        v *= comb(n, c)
    return v


def _int64s(name, values):
    """``values`` as an int64 array; any entry that is not an integer, a bool too, is refused."""
    if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
               for v in np.asarray(values, dtype=object).ravel()):
        raise ValueError(f"{name} must be integers, got {values!r}")
    return np.asarray(values).astype(np.int64)


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
        alphabet = _int64s("alphabet", self.alphabet)
        counts = _int64s("counts", self.counts)
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


def quantize_pmf(target_pmf, n_pam):
    """Round a target amplitude pmf to an integer composition of n_pam.

    Largest-remainder rounding: floor all scaled probabilities, then hand
    the remaining units to the largest fractional parts (ties broken by
    lower amplitude index).  Deterministic, and exact for pmfs that are
    already multiples of 1/n_pam.  The alphabet is the odd amplitudes
    1, 3, 5, ... in the pmf's order.
    """
    p = np.asarray(target_pmf, dtype=float)
    if not np.isfinite(p.sum()) or np.any(p < 0) or p.sum() <= 0:
        raise ValueError("target pmf must be finite and nonnegative with positive sum")
    # up to 2**53 the scaled pmf's floors are exact, and their sum fits an int64
    if isinstance(n_pam, bool) or not isinstance(n_pam, (int, np.integer)) or n_pam > 1 << 53:
        raise ValueError(f"n_pam must be an integer <= 2**53, got {n_pam!r}")
    if n_pam < p.size:
        raise ValueError("n_pam smaller than alphabet size")
    t = p / p.sum() * n_pam
    counts = np.floor(t).astype(np.int64)
    rem = t - counts
    # stable argsort on (-remainder) keeps index order among ties
    counts[np.argsort(-rem, kind="stable")[: n_pam - counts.sum()]] += 1
    return AmplitudeComposition(alphabet=2 * np.arange(p.size) + 1, counts=counts)


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
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("payload bits must be 0 or 1")
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
            # sequences continuing with symbol j: C * c_j / n_rem, exact
            c_j = c_total * count // n_rem
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
    counts = composition.counts.tolist()
    c_total = c_all = composition.n_sequences
    r = 0
    for n_rem, a in zip(range(composition.n_pam, 0, -1), amps):
        j = index_of.get(int(a))
        if j is None or counts[j] == 0:
            raise ValueError("sequence violates the composition")
        r += sum(c_total * c // n_rem for c in counts[:j])    # as in ccdm_encode
        c_total = c_total * counts[j] // n_rem
        counts[j] -= 1
    k = composition.k_ps
    # unique payload with floor(u*C/2^k) == r, since C >= 2^k
    u = -((-(r << k)) // c_all)        # ceil(r * 2^k / C)
    if (u * c_all) >> k != r or u >> k:
        raise ValueError("sequence is not an encoder output")
    # u's k low bits, MSB first: drop the pad bits of its big-endian bytes
    return np.unpackbits(np.frombuffer(u.to_bytes(-(-k // 8), "big"), np.uint8))[-k:]


def rate_loss(composition):
    """Shaping rate loss in bits per 2-D symbol.

    Entropy of the realized amplitude pmf minus the actual payload rate
    ``k_ps/n_pam``, doubled for the two dimensions; nonnegative, shrinking
    as the shaping block length grows.
    """
    h = _entropy_bits(composition.pmf)
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
