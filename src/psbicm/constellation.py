"""Square QAM constellations, their bit labeling and symbol distributions.

Every format is Gray-labeled square QAM: the product of two identical
PAM alphabets, one per real dimension, normalized to unit average energy
under the active symbol distribution.  The symbol distribution is a
product too (I and Q independent, sharing one 1-D pmf), so bit-wise
quantities factor per dimension.

Labeling convention (fixed once, used everywhere):

* each 1-D (PAM) label has ``bar_m`` bits, most significant first;
* bit 1 is the sign bit, ``0`` meaning a positive amplitude;
* bits 2..bar_m select the amplitude through a binary-reflected Gray code;
* the all-zeros label sits on the most positive amplitude;
* the 2-D label is ``l_I << bar_m | l_Q``.

With this choice the amplitude of a 1-D symbol depends only on bits
2..bar_m, which is what lets a shaping encoder drive amplitudes while sign
bits stay uniform.  Bit position ``p`` (0-based, over the ``m = 2*bar_m``
bits of a 2-D label) belongs to tributary ``p % bar_m + 1``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


def _entropy_bits(p):
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def _read_only(a):
    a.setflags(write=False)
    return a


def gray_pam_levels(bar_m):
    """Signed PAM levels indexed by 1-D label integer.

    Returns an int array ``lev`` of length ``2**bar_m`` with
    ``lev[label] in {±1, ±3, ...}``, following the labeling convention in
    the module docstring.
    """
    n = 1 << bar_m
    rank = np.arange(n)            # rank 0 = most positive level
    lev = np.empty(n, dtype=np.int64)
    lev[rank ^ (rank >> 1)] = (n - 1) - 2 * rank
    return lev


@dataclass(frozen=True)
class Constellation:
    """Unit-energy square QAM constellation with bit labeling.

    Attributes
    ----------
    name : str
    points : complex ndarray, shape (2**m,)
        Point of label ``j`` at index ``j``; average energy 1 under the
        pmf the constellation was normalized with.
    bar_m : int
        Bits per PAM dimension, which is also the number of tributaries.
    scale : float
        Division factor applied to the raw integer grid.
    pam_points : float ndarray, shape (2**bar_m,)
        Scaled 1-D levels indexed by 1-D label.
    """

    name: str
    points: np.ndarray
    bar_m: int
    scale: float
    pam_points: np.ndarray

    @property
    def m(self):
        """Bits per 2-D symbol."""
        return 2 * self.bar_m

    def labels_to_bits(self, labels):
        """(..., ) label integers -> (..., m) uint8 bit array, MSB first.

        A label's low m bits, shifted to the top of a big-endian word
        and unpacked from its bytes: no temporary wider than the result.
        """
        labels = np.asarray(labels)
        nbytes = np.min_scalar_type((1 << self.m) - 1).itemsize
        word = labels.astype(f">u{nbytes}")         # wraps: keeps the low bits
        word <<= 8 * nbytes - self.m
        octets = word.reshape(-1).view(np.uint8).reshape(labels.shape + (nbytes,))
        return np.unpackbits(octets, axis=-1, count=self.m)

    def bits_to_labels(self, bits):
        bits = np.asarray(bits)
        if bits.shape[-1:] != (self.m,) or np.any((bits != 0) & (bits != 1)):
            raise ValueError(f"need m = {self.m} bits of 0 or 1 on the last axis")
        weights = 1 << np.arange(self.m - 1, -1, -1)
        return (bits * weights).sum(axis=-1)


@dataclass(frozen=True)
class SymbolPmf:
    """Product symbol distribution of a square QAM format.

    ``p_dim[l]`` is the probability of 1-D label ``l``; I and Q draw
    their labels independently from it.  Everything derived from it is
    computed once, on first use, and returned read-only.
    """

    p_dim: np.ndarray
    bar_m: int

    def __post_init__(self):
        p_dim = _read_only(np.array(self.p_dim, dtype=float))
        if p_dim.shape != (1 << self.bar_m,):
            raise ValueError(f"need {1 << self.bar_m} 1-D label probabilities, "
                             f"got shape {p_dim.shape}")
        s = float(np.sum(p_dim))
        if abs(s - 1.0) > 1e-12:
            raise ValueError(f"symbol pmf sums to {s!r}, not 1")
        if np.any(p_dim < 0):
            raise ValueError("symbol pmf has negative entries")
        object.__setattr__(self, "p_dim", p_dim)

    @property
    def m(self):
        return 2 * self.bar_m

    @cached_property
    def p(self):
        """Joint pmf: ``p[j]`` is the probability of 2-D label ``j``."""
        return _read_only(np.outer(self.p_dim, self.p_dim).reshape(-1))

    @cached_property
    def log_p_dim(self):
        """ln of the 1-D label pmf, as the row sums of the joint ``p``."""
        n = self.p_dim.size
        with np.errstate(divide="ignore"):
            return _read_only(np.log(self.p.reshape(n, n).sum(axis=1)))

    @cached_property
    def bit_marginals(self):
        """Per label position: (m, 2) array of P(bit = 0), P(bit = 1)."""
        m = self.m
        labels = np.arange(self.p.size)
        out = np.empty((m, 2))
        for pos in range(m):
            b = (labels >> (m - 1 - pos)) & 1
            p1 = float(self.p[b == 1].sum())
            out[pos] = (1.0 - p1, p1)
        return _read_only(out)

    @property
    def tributary_marginals(self):
        """(bar_m, 2) bit marginals per tributary (the I positions; Q is equal)."""
        return self.bit_marginals[:self.bar_m]

    @cached_property
    def log_priors(self):
        """A-priori L-values ln(P(0)/P(1)) per tributary, shape (bar_m,)."""
        tm = self.tributary_marginals
        with np.errstate(divide="ignore"):
            return _read_only(np.log(tm[:, 0]) - np.log(tm[:, 1]))

    @cached_property
    def entropy(self):
        """Joint label entropy H(B) in bits per 2-D symbol."""
        return _entropy_bits(self.p)

    @cached_property
    def label_buckets(self):
        """(cdf, first, edge) of ``draw_labels``; ``cdf`` is ``rng.choice``'s.

        Bucket b of 4096 holds the variates in [b, b + 1) / 4096.  They draw
        ``first[b]``, plus 1 at or above its one cdf step ``edge[b]`` (inf
        if none); ``first[b]`` is -1 where the bucket has more steps.
        """
        cdf = np.cumsum(self.p)
        cdf /= cdf[-1]
        bounds = np.arange(4097) / 4096
        first = np.searchsorted(cdf, bounds[:-1], side="right")
        steps = np.searchsorted(cdf, bounds[1:], side="left") - first
        edge = np.where(steps == 1, cdf[first], np.inf)     # first < cdf.size
        first[steps > 1] = -1
        return _read_only(cdf), _read_only(first), _read_only(edge)


@dataclass(frozen=True)
class EntropyStats:
    """Entropies of a labeled symbol distribution, bits per 2-D symbol."""

    h_b: float                 # joint label entropy H(B)
    h_bi: np.ndarray = field(repr=False)   # per-position bit entropies
    sum_h_bi: float = 0.0      # sum of the per-position entropies

    @property
    def shaping_gap(self):
        """Sum H(B_i) - H(B) >= 0; zero iff bit levels independent."""
        return self.sum_h_bi - self.h_b


def entropy_stats(pmf):
    """Compute H(B), per-position H(B_i) and their sum for a SymbolPmf."""
    h_bi = np.array([_entropy_bits(row) for row in pmf.bit_marginals])
    return EntropyStats(h_b=pmf.entropy, h_bi=h_bi, sum_h_bi=float(h_bi.sum()))


def square_qam(m, amplitude_pmf=None):
    """Gray-labeled square QAM of 2**m points, optionally shaped.

    Parameters
    ----------
    m : int
        Even number of bits per 2-D symbol (2 -> QPSK, 4 -> 16-QAM, ...).
    amplitude_pmf : array_like or None
        1-D amplitude probabilities over ascending odd amplitudes
        ``1, 3, ..., 2**(m//2) - 1``; uniform when omitted.  Signs are
        always equiprobable and independent.

    Returns
    -------
    (Constellation, SymbolPmf)
        Points normalized to unit average 2-D energy under the pmf.
    """
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m % 2 or m < 2:
        raise ValueError(f"square QAM needs an even integer m >= 2, got {m!r}")
    bar_m = m // 2
    lev = gray_pam_levels(bar_m).astype(float)
    n_amp = 1 << (bar_m - 1)
    if amplitude_pmf is None:
        amplitude_pmf = np.full(n_amp, 1.0 / n_amp)
    else:
        amplitude_pmf = np.asarray(amplitude_pmf, dtype=float)
        if amplitude_pmf.size != n_amp:
            raise ValueError(f"need {n_amp} amplitude probabilities, got {amplitude_pmf.size}")
        if abs(amplitude_pmf.sum() - 1.0) > 1e-9 or np.any(amplitude_pmf < 0):
            raise ValueError("amplitude pmf must be nonnegative and sum to 1")
        amplitude_pmf = amplitude_pmf / amplitude_pmf.sum()

    # per-1-D-label probabilities: half the amplitude mass on each sign
    amp_index = ((np.abs(lev) - 1) // 2).astype(int)
    pmf_1d = 0.5 * amplitude_pmf[amp_index]
    e_2d = 2.0 * float((pmf_1d * lev**2).sum())
    scale = np.sqrt(e_2d)
    pam = lev / scale
    points = (pam[:, None] + 1j * pam[None, :]).reshape(-1)  # label = I<<bar_m | Q

    name = "qpsk" if m == 2 else f"{1 << m}qam"
    con = Constellation(name=name, points=points, bar_m=bar_m, scale=scale,
                        pam_points=pam)
    return con, SymbolPmf(p_dim=pmf_1d, bar_m=bar_m)


def draw_labels(pmf, n_symbols, rng):
    """Draw i.i.d. label indices from a SymbolPmf.

    Exactly ``rng.choice(pmf.p.size, size=n_symbols, p=pmf.p)``, the same
    variates and cdf, but only buckets with several cdf steps search.
    """
    cdf, first, edge = pmf.label_buckets
    u = rng.random(n_symbols)
    b = (u * first.size).astype(np.intp)     # exact: 4096 buckets, a power of two
    labels = first[b] + (u >= edge[b])
    slow = np.flatnonzero(labels < 0)
    labels[slow] = np.searchsorted(cdf, u[slow], side="right")
    return labels
