"""Constellations, binary labelings and symbol distributions.

Complex 2-D constellations with an explicit bit labeling, normalized to unit
average energy under the active symbol distribution.  Square QAM formats are
built as products of two Gray-labeled PAM alphabets so that bit-wise
quantities factor per dimension; an 8-point star format and arbitrary
JSON-described constellations are supported as generic 2-D alphabets.

Labeling convention for PAM/QAM (fixed once, used everywhere):

* each 1-D (PAM) label has ``bar_m`` bits, most significant first;
* bit 1 is the sign bit, ``0`` meaning a positive amplitude;
* bits 2..bar_m select the amplitude through a binary-reflected Gray code;
* the all-zeros label sits on the most positive amplitude.

With this choice the amplitude of a 1-D symbol depends only on bits
2..bar_m, which is what lets a shaping encoder drive amplitudes while sign
bits stay uniform.  Bit position ``p`` (0-based, over the ``m`` bits of a
2-D label) belongs to tributary ``p % bar_m + 1`` for square formats; for
generic formats every position is its own tributary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_LN2 = np.log(2.0)


def _entropy_bits(p):
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def gray_pam_levels(bar_m):
    """Signed PAM levels indexed by 1-D label integer.

    Returns an int array ``lev`` of length ``2**bar_m`` with
    ``lev[label] in {±1, ±3, ...}``, following the labeling convention in
    the module docstring.
    """
    n = 1 << bar_m
    lev = np.empty(n, dtype=np.int64)
    for rank in range(n):          # rank 0 = most positive level
        label = rank ^ (rank >> 1)
        lev[label] = (n - 1) - 2 * rank
    return lev


@dataclass(frozen=True)
class Constellation:
    """Unit-energy 2-D constellation with bit labeling.

    Attributes
    ----------
    name : str
    points : complex ndarray, shape (2**m,)
        Point of label ``j`` at index ``j``; average energy 1 under the
        pmf the constellation was normalized with.
    m : int
        Bits per 2-D symbol.
    bar_m : int
        Bits per tributary group: ``m // 2`` for square formats, ``m``
        otherwise.
    square : bool
        True when the format factors into two independent PAM dimensions.
    pam_points : float ndarray or None
        For square formats, scaled 1-D levels indexed by 1-D label.
    scale : float
        Division factor applied to the raw integer grid.
    """

    name: str
    points: np.ndarray
    m: int
    bar_m: int
    square: bool
    scale: float
    pam_points: np.ndarray | None = None

    @property
    def n_points(self):
        return self.points.size

    def labels_to_bits(self, labels):
        """(..., ) label integers -> (..., m) bit array, MSB first."""
        labels = np.asarray(labels)
        shifts = np.arange(self.m - 1, -1, -1)
        return ((labels[..., None] >> shifts) & 1).astype(np.uint8)

    def bits_to_labels(self, bits):
        bits = np.asarray(bits)
        weights = 1 << np.arange(self.m - 1, -1, -1)
        return (bits * weights).sum(axis=-1)

    def modulate(self, bits):
        """Map (n_sym, m) bits to complex symbols."""
        return self.points[self.bits_to_labels(bits)]


@dataclass(frozen=True)
class SymbolPmf:
    """Symbol distribution over a constellation's labels.

    ``p[j]`` is the probability of label ``j``.  ``amplitude_pmf`` is the
    1-D amplitude distribution over ascending odd amplitudes (square
    formats with sign-symmetric pmfs only).
    """

    p: np.ndarray
    m: int
    bar_m: int
    amplitude_pmf: np.ndarray | None = None

    def __post_init__(self):
        s = float(np.sum(self.p))
        if abs(s - 1.0) > 1e-12:
            raise ValueError(f"symbol pmf sums to {s!r}, not 1")
        if np.any(np.asarray(self.p) < 0):
            raise ValueError("symbol pmf has negative entries")

    def bit_marginals(self):
        """Per label position: (m, 2) array of P(bit = 0), P(bit = 1)."""
        m = self.m
        labels = np.arange(self.p.size)
        out = np.empty((m, 2))
        for pos in range(m):
            b = (labels >> (m - 1 - pos)) & 1
            p1 = float(self.p[b == 1].sum())
            out[pos] = (1.0 - p1, p1)
        return out

    def tributary_marginals(self):
        """(n_trib, 2) bit marginals, positions of a tributary pooled.

        Raises if positions sharing a tributary disagree (cannot happen
        for the shipped formats).
        """
        bm = self.bit_marginals()
        n_trib = self.bar_m
        out = np.empty((n_trib, 2))
        for t in range(n_trib):
            rows = bm[t::n_trib]
            if not np.allclose(rows, rows[0], atol=1e-12):
                raise ValueError(f"tributary {t + 1}: I/Q marginals differ")
            out[t] = rows[0]
        return out

    def log_priors(self):
        """A-priori L-values ln(P(0)/P(1)) per tributary, shape (n_trib,)."""
        tm = self.tributary_marginals()
        with np.errstate(divide="ignore"):
            return np.log(tm[:, 0]) - np.log(tm[:, 1])

    def entropy(self):
        return _entropy_bits(self.p)


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
    bm = pmf.bit_marginals()
    h_bi = np.array([_entropy_bits(row) for row in bm])
    return EntropyStats(h_b=pmf.entropy(), h_bi=h_bi, sum_h_bi=float(h_bi.sum()))


def _product_pmf(pmf_1d):
    """Joint label pmf of two independent identically distributed PAM dims."""
    return np.outer(pmf_1d, pmf_1d).reshape(-1)    # index = labelI * size + labelQ


def square_qam(m, amplitude_pmf=None, name=None):
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
    if m % 2 or m < 2:
        raise ValueError("square QAM needs even m >= 2")
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

    if name is None:
        name = "qpsk" if m == 2 else f"{1 << m}qam"
    con = Constellation(name=name, points=points, m=m, bar_m=bar_m,
                        square=True, scale=scale, pam_points=pam)
    pmf = SymbolPmf(p=_product_pmf(pmf_1d), m=m, bar_m=bar_m,
                    amplitude_pmf=amplitude_pmf)
    return con, pmf


_SQRT3 = np.sqrt(3.0)
# label -> raw point, outer ring at (+-(1+sqrt3), +-(1+sqrt3)), inner at +-2, +-2j
_STAR8_RAW = {
    0b000: (1 + _SQRT3, 1 + _SQRT3),
    0b001: (0.0, 2.0),
    0b011: (-(1 + _SQRT3), 1 + _SQRT3),
    0b010: (-2.0, 0.0),
    0b110: (-(1 + _SQRT3), -(1 + _SQRT3)),
    0b111: (0.0, -2.0),
    0b101: (1 + _SQRT3, -(1 + _SQRT3)),
    0b100: (2.0, 0.0),
}


def star8qam():
    """8-point star constellation (alternating two-ring octagon), m = 3.

    Uniform symbol pmf; the quasi-Gray labeling above is stored verbatim
    and scaled to unit average energy.
    """
    pts = np.empty(8, dtype=complex)
    for lab, (re, im) in _STAR8_RAW.items():
        pts[lab] = re + 1j * im
    scale = np.sqrt(np.mean(np.abs(pts) ** 2))   # sqrt(6 + 2*sqrt(3))
    con = Constellation(name="star8qam", points=pts / scale, m=3, bar_m=3,
                        square=False, scale=float(scale))
    pmf = SymbolPmf(p=np.full(8, 1 / 8), m=3, bar_m=3)
    return con, pmf


def custom_constellation(spec, name="custom"):
    """Build a generic 2-D constellation from a JSON-style dict.

    ``spec`` needs ``points`` (list of [re, im]) and may carry ``labels``
    (a permutation of 0..M-1 giving the label of each listed point;
    defaults to list order) and ``pmf``.  M must be a power of two.
    Points are renormalized to unit average energy under the pmf.
    """
    pts_in = np.asarray(spec["points"], dtype=float)
    if pts_in.ndim != 2 or pts_in.shape[1] != 2:
        raise ValueError("points must be a list of [re, im] pairs")
    n = pts_in.shape[0]
    m = int(n).bit_length() - 1
    if n < 2 or (1 << m) != n:
        raise ValueError(f"number of points must be a power of two, got {n}")
    labels = np.asarray(spec.get("labels", np.arange(n)), dtype=int)
    if sorted(labels.tolist()) != list(range(n)):
        raise ValueError("labels must be a permutation of 0..M-1")
    pmf_in = np.asarray(spec.get("pmf", np.full(n, 1.0 / n)), dtype=float)
    if pmf_in.size != n:
        raise ValueError("pmf length must match number of points")

    points = np.empty(n, dtype=complex)
    p = np.empty(n)
    points[labels] = pts_in[:, 0] + 1j * pts_in[:, 1]
    p[labels] = pmf_in
    pmf = SymbolPmf(p=p, m=m, bar_m=m)       # validates normalization
    e = float((p * np.abs(points) ** 2).sum())
    if e <= 0:
        raise ValueError("constellation has zero energy")
    scale = np.sqrt(e)
    con = Constellation(name=str(spec.get("name", name)), points=points / scale,
                        m=m, bar_m=m, square=False, scale=scale)
    return con, pmf


def draw_labels(pmf, n_symbols, rng):
    """Draw i.i.d. label indices from a SymbolPmf."""
    return rng.choice(pmf.p.size, size=n_symbols, p=pmf.p)
