"""Soft demapping to bitwise L-values under an assumed Gaussian channel.

The demapper computes generalized a-posteriori L-values

    L_i(y) = L_i^pr + s * L_i^ex(y),        i = 1..m,

where ``L_i^pr = ln P(B_i=0)/P(B_i=1)`` comes from the symbol pmf and the
extrinsic part is the exact (log-sum-exp, never max-log) likelihood ratio
of the bitwise auxiliary channel: a Gaussian with variance taken from an
*assumed* SNR that may differ from the true channel SNR.  ``s`` scales
only the extrinsic part.  Positive L-values vote for bit 0.

Constellations are square QAM with a product pmf, so the computation
factors per real dimension.  Per chunk of symbols, the metric
``ln P(label) - snr * (y_d - level)^2`` of the I and Q values is built
once with the PAM labels on the leading axis.  Each sample (one I or Q
value) is shifted by its largest metric over all levels and exponentiated
once: 2**bar_m ``exp`` per sample, not one per level and bit.  Each bit's
two subset sums S0 and S1 (the labels whose bit is 0, and 1) are formed
by elementwise adds only, so a sample's sums depend neither on the other
samples of its chunk nor on the thread count, and the extrinsic L-value
is ``ln(S0/S1) - L^pr``.  The subset holding the largest metric sums to
at least 1.  Where a sample's other sum of some bit falls below
``_FLOOR`` = 1e-280, zero included (|L| beyond about 640, or a subset of
labels that are never sent), that sample is recomputed with each subset
shifted by its own maximum, which stays finite at any |L|.

This is not bit for bit against a per-subset log-sum-exp, whose shifts
round differently.  The stated tolerance is 1e-12 absolute on the
extrinsic L-values; the largest difference measured against the masked
per-subset form is 1.1e-13, over 16- to 256-QAM and the PAS presets at
assumed SNRs of 0 to 45 dB.

A demap run is captured as an :class:`LValueTrace` — flattened
(bit, tributary, L-value) records plus the metadata the metric estimators
need (s, the true-to-assumed SNR ratio, per-tributary priors, the symbol
entropy, and the quantizer if one was applied).  Traces serialize to one
little-endian binary format (``.lvt``), which is also the ingestion path
for externally captured L-values; reading one validates every field.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .channel import _linear_snr_usable

# symbols per demapper chunk times PAM levels: 2048 symbols for 16-QAM, 1024
# for 64-QAM, 512 for 256-QAM.  Per 20000-symbol call (CPU time, 2-vCPU VM)
# 1 << 12, 1 << 13 and 1 << 14 took 2.4, 2.1 and 2.7 ms on 16-QAM, 4.9, 3.7
# and 3.8 ms on 64-QAM, and 8.0, 6.4 and 6.4 ms on 256-QAM
_CHUNK = 1 << 13
# a sample falls back to the per-subset shift where one of its subset sums,
# shifted by the sample's largest metric, is below this floor
_FLOOR = 1e-280


@dataclass(frozen=True)
class Quantizer:
    """Odd-symmetric uniform L-value quantizer.

    ``n_levels`` lattice points ``{±0.5*step, ±1.5*step, ...}`` saturating
    at ``±l_max = ±(n_levels - 1) * step / 2``; there is no zero level, so
    ``n_levels`` must be even.
    """

    n_levels: int
    step: float

    def __post_init__(self):
        n = self.n_levels
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 2 or n % 2:
            raise ValueError(f"n_levels must be an even integer >= 2, got {n!r}")
        if not 0 < self.step < np.inf:
            raise ValueError(f"step must be finite and positive, got {self.step!r}")

    @property
    def l_max(self):
        return (self.n_levels - 1) * self.step / 2.0

    def _signed_levels(self, lvalues):
        # (-1)^[l < 0] (j + 0.5), j = min(floor(|l|/step), n_levels/2 - 1), in place
        l = np.asarray(lvalues, dtype=float)
        v = np.abs(l, out=np.empty_like(l))
        v /= self.step
        np.floor(v, out=v)
        np.minimum(v, self.n_levels // 2 - 1, out=v)
        v += 0.5
        return np.copysign(v, l + 0.0, out=v)     # l + 0.0 maps -0.0 up, as +0.0

    def apply(self, lvalues):
        """Round to the nearest lattice point (zero maps to +step/2)."""
        v = self._signed_levels(lvalues)
        return np.multiply(v, self.step, out=v)[()]     # a float64 when 0-d

    def indices(self, lvalues):
        """Lattice index in 0..n_levels-1 (ascending order) of each value."""
        v = self._signed_levels(lvalues)                # exact on half-integers
        return np.add(v, self.n_levels // 2 - 0.5, out=v).astype(np.int64)


@dataclass(frozen=True)
class DemapperConfig:
    """Auxiliary-channel assumption of the receiver.

    ``assumed_snr_db`` sets the Gaussian variance; ``scale`` is the
    extrinsic scaling s >= 0; an optional quantizer rounds the final
    L-values onto its lattice.
    """

    assumed_snr_db: float
    scale: float = 1.0
    quantizer: Quantizer | None = None

    def __post_init__(self):
        if not _linear_snr_usable(self.assumed_snr_db):
            raise ValueError("assumed_snr_db must be finite, with a finite, normal linear "
                             f"SNR 10^(assumed_snr_db/10), got {self.assumed_snr_db!r}")
        if not 0 <= self.scale < math.inf:
            raise ValueError(f"scale must be finite and >= 0, got {self.scale!r}")

    @property
    def assumed_snr_linear(self):
        return float(10.0 ** (self.assumed_snr_db / 10.0))


@lru_cache(maxsize=None)
def _label_order(bar_m):
    """Read-only (bar_m, 2, 2**(bar_m-1)): [i, b] lists the labels whose bit i+1 is b."""
    labels = np.arange(1 << bar_m)
    bits = (labels >> np.arange(bar_m - 1, -1, -1)[:, None]) & 1
    order = np.argsort(bits, axis=1, kind="stable").reshape(bar_m, 2, -1)
    order.setflags(write=False)
    return order


def _position_priors(pmf):
    # the per-tributary priors repeated for the I and the Q positions, so
    # the prior/extrinsic split is bit-exact against the trace metadata
    return np.tile(pmf.log_priors, 2)


def _metric(y, lev, logp, snr, out=None):
    """ln P(label) - snr * (y - level)^2, labels on the leading axis.

    ``lev`` and ``logp`` come broadcast to the full shape: numpy's loops
    are several times slower on a column broadcast along the rows."""
    w = np.subtract(y, lev, out=out)
    w *= w
    w *= snr
    return np.subtract(logp, w, out=w)


def _halving_sum(x, out=None):
    """Sum over the leading axis, a power of two long, by halving it.

    Only elementwise adds, so each column's sum is independent of the
    other columns and of how many there are."""
    while len(x) > 2:
        h = len(x) // 2
        x = x[:h] + x[h:]
    return np.add(x[0], x[1], out=out) if len(x) == 2 else x[0]


def _subset_sums(e):
    """(bar_m, 2, n): [i, b] sums the rows of e (labels) whose bit i+1 is b.

    The bits are summed out from the least significant up: the rows of
    ``t`` are the labels with their trailing bits summed out, so bit i+1
    is the last bit of a row index."""
    out = np.empty((e.shape[0].bit_length() - 1, 2, e.shape[1]))
    t = e
    for i in range(len(out) - 1, 0, -1):
        _halving_sum(t.reshape(-1, 2, t.shape[-1]), out[i])
        t = t[::2] + t[1::2]
    out[0] = t
    return out


def _per_subset_lse(w, order):
    """ln S0 - ln S1 of metric columns w, each subset shifted by its own maximum."""
    g = w[order]                              # (bar_m, 2, M/2, n)
    mx = g.max(axis=2)
    mx[np.isneginf(mx)] = 0.0                 # all labels of the subset dead: stay -inf
    g -= mx[:, :, None]
    with np.errstate(under="ignore", divide="ignore"):
        np.exp(g, out=g)
        lse = np.log(_halving_sum(g.transpose(2, 0, 1, 3)))
    lse += mx
    return lse[:, 0] - lse[:, 1]


def _demap(y, constellation, pmf, assumed_snr_linear, scale):
    """Extrinsic L-values, or prior + scale * extrinsic unless scale is None."""
    y = np.asarray(y, dtype=complex).ravel()
    bar_m = constellation.bar_m
    pri = _position_priors(pmf).reshape(2, bar_m).T[:, :, None]   # (bit, I/Q, 1)
    out = np.empty((y.size, 2, bar_m))
    chunk = max(min(_CHUNK >> bar_m, y.size), 1)
    # the columns of a chunk are its I values, then its Q values
    shape = (1 << bar_m, 2 * chunk)
    lev = np.broadcast_to(constellation.pam_points[:, None], shape).copy()
    logp = np.broadcast_to(pmf.log_p_dim[:, None], shape).copy()   # I and Q share it
    work = np.empty(shape)        # one buffer for all chunks: page faults cost more
    for lo in range(0, y.size, chunk):
        yc = y[lo:lo + chunk]
        yc = np.concatenate((yc.real, yc.imag))
        cols = slice(0, yc.size)
        e = _metric(yc, lev[:, cols], logp[:, cols], assumed_snr_linear, work[:, cols])
        e -= e.max(axis=0)
        np.exp(e, out=e)
        s = _subset_sums(e)
        with np.errstate(divide="ignore", over="ignore"):
            l_ex = np.log(s[:, 0] / s[:, 1])  # (bit, column)
        if s.min() < _FLOOR:
            far = (s < _FLOOR).any(axis=(0, 1))
            k = np.count_nonzero(far)
            w = _metric(yc[far], lev[:, :k], logp[:, :k], assumed_snr_linear)
            l_ex[:, far] = _per_subset_lse(w, _label_order(bar_m))
        l_ex = l_ex.reshape(bar_m, 2, -1)
        l_ex -= pri
        if scale is not None:
            l_ex *= scale
            l_ex += pri
        dst = out[lo:lo + chunk]
        for i in range(bar_m):                # a row at a time: numpy copies a
            for d in range(2):                # transpose in short inner loops
                dst[:, d, i] = l_ex[i, d]
    return out.reshape(y.size, 2 * bar_m)


def extrinsic_lvalues(y, constellation, pmf, assumed_snr_linear):
    """Extrinsic L-values, shape (n_symbols, m).

    Exact bitwise-posterior ratios minus the prior offsets, under the
    assumed-SNR Gaussian, computed per real dimension.
    """
    return _demap(y, constellation, pmf, assumed_snr_linear, None)


def bitwise_lvalues(y, constellation, pmf, config):
    """A-posteriori L-values prior + s * extrinsic, shape (n_symbols, m)."""
    lam = _demap(y, constellation, pmf, config.assumed_snr_linear, config.scale)
    if config.quantizer is not None:
        lam = config.quantizer.apply(lam)
    return lam


@dataclass(frozen=True)
class LValueTrace:
    """Flattened record of one demap run.

    ``bits``/``lvalues``/``tributaries`` are parallel arrays; tributary
    ids are 1-based.  ``scale`` is the s the L-values were computed with,
    ``scale_opt`` the true-to-assumed SNR ratio of the run (1 when
    matched), ``priors`` the per-tributary prior L-values and ``h_b`` the
    transmitted symbol entropy in bits per 2-D symbol.  ``quantizer`` is
    set iff the stored L-values lie on its lattice.
    """

    bits: np.ndarray
    lvalues: np.ndarray
    tributaries: np.ndarray
    m: int
    bar_m: int
    scale: float
    scale_opt: float
    priors: np.ndarray
    h_b: float
    quantizer: Quantizer | None = None

    def __post_init__(self):
        if not (self.bits.shape == self.lvalues.shape == self.tributaries.shape):
            raise ValueError("bits, lvalues and tributaries must have equal shape")
        if self.tributaries.size and (
            self.tributaries.min() < 1 or self.tributaries.max() > self.bar_m
        ):
            raise ValueError("tributary ids out of range")
        if len(self.priors) != self.bar_m:
            raise ValueError("need one prior per tributary")
        if self.bar_m < 1 or self.m < 1 or self.m % self.bar_m:
            raise ValueError(f"m = {self.m} must be a positive multiple of "
                             f"bar_m = {self.bar_m}")
        if self.bits.size and (self.bits.max() > 1 or self.bits.min() < 0):
            raise ValueError("bits must be 0 or 1")
        if not np.isfinite(self.h_b):
            raise ValueError(f"symbol entropy h_b must be finite, got {self.h_b}")
        for name in ("scale", "scale_opt"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        bad = self.lvalues.size - np.count_nonzero(np.isfinite(self.lvalues))
        if bad:
            raise ValueError(f"{bad} of {self.lvalues.size} L-values are NaN or infinite")

    @property
    def n(self):
        return self.bits.size

    @property
    def s_ratio(self):
        """Default rescaling s_o/s for the mismatch-corrected estimators."""
        return self.scale_opt / self.scale

    @cached_property
    def tributary_counts(self):
        """Read-only positions per tributary, shape (bar_m,), counted once.

        Raises ValueError when a tributary holds no position, since no
        tributary mean exists then.
        """
        counts = np.bincount(self.tributaries, minlength=self.bar_m + 1)[1:]
        if not counts.all():
            raise ValueError("trace has empty tributaries")
        counts.setflags(write=False)
        return counts

    def asymmetric(self):
        """Asymmetric L-values (-1)^bit * L: positive when the sign is right.

        A set bit flips the sign bit of L, so the result is exact and equals
        the negation bit for bit, signed zeros included.
        """
        flip = self.bits.astype(np.uint64)
        flip <<= 63
        flip ^= np.asarray(self.lvalues, dtype=np.float64).view(np.uint64)
        return flip.view(np.float64)


def make_trace(bits, lvalues, pmf, scale=1.0, scale_opt=1.0, quantizer=None):
    """Assemble an LValueTrace from (n_sym, m) bit and L-value matrices.

    Flattening is symbol-major; tributary of position p is p % bar_m + 1.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    lvalues = np.asarray(lvalues, dtype=float)
    if bits.shape != lvalues.shape or bits.ndim != 2:
        raise ValueError("bits and lvalues must be matching (n_sym, m) matrices")
    n_sym, m = bits.shape
    bar_m = pmf.bar_m
    trib = np.tile((np.arange(m) % bar_m + 1).astype(np.uint8), n_sym)
    return LValueTrace(
        bits=bits.ravel(),
        lvalues=lvalues.ravel(),
        tributaries=trib,
        m=m,
        bar_m=bar_m,
        scale=float(scale),
        scale_opt=float(scale_opt),
        priors=pmf.log_priors,
        h_b=pmf.entropy,
        quantizer=quantizer,
    )


def demap_to_trace(labels, y, constellation, pmf, config, channel_snr_linear=None):
    """Demap received symbols and package the result as a trace.

    ``labels`` are the transmitted label integers.  When the true channel
    SNR is supplied the trace records scale_opt = SNR/assumed_SNR, the
    rescaling that undoes the Gaussian-variance mismatch.
    """
    bits = constellation.labels_to_bits(labels)
    lam = bitwise_lvalues(y, constellation, pmf, config)
    s_o = 1.0
    if channel_snr_linear is not None:
        s_o = float(channel_snr_linear) / config.assumed_snr_linear
    return make_trace(bits, lam, pmf, scale=config.scale, scale_opt=s_o,
                      quantizer=config.quantizer)


def quantize_trace(trace, quantizer):
    """Return a copy of the trace with L-values rounded onto the lattice."""
    return replace(trace, lvalues=quantizer.apply(trace.lvalues), quantizer=quantizer)


def default_quantizer(trace, n_levels):
    """Quantizer whose saturation covers the 1 - 1e-6 quantile of |L|."""
    l_cov = float(np.quantile(np.abs(trace.lvalues), 1.0 - 1e-6))
    if l_cov <= 0 or not np.isfinite(l_cov):
        l_cov = 1.0
    step = 2.0 * l_cov / (n_levels - 1)
    return Quantizer(n_levels=n_levels, step=step)


# --- trace serialization -------------------------------------------------

_MAGIC = b"LVTR"
_VERSION = 1
_REC_DTYPE = np.dtype([("bit", "u1"), ("trib", "u1"), ("lvalue", "<f8")])
# magic, version, flags, n, m, bar_m, scale, scale_opt, h_b
_HEAD = struct.Struct("<4sHHQHHddd")
_QUANT = struct.Struct("<Id")         # n_levels, step; present when flags & 1


def write_trace(path, trace):
    """Write the binary trace format (little-endian, magic 'LVTR')."""
    flags = 1 if trace.quantizer is not None else 0
    head = _HEAD.pack(_MAGIC, _VERSION, flags, trace.n, trace.m, trace.bar_m,
                      trace.scale, trace.scale_opt, trace.h_b)
    pri = np.asarray(trace.priors, dtype="<f8").tobytes()
    q = b""
    if trace.quantizer is not None:
        q = _QUANT.pack(trace.quantizer.n_levels, trace.quantizer.step)
    rec = np.empty(trace.n, dtype=_REC_DTYPE)
    rec["bit"] = trace.bits
    rec["trib"] = trace.tributaries
    rec["lvalue"] = trace.lvalues
    with open(path, "wb") as f:
        f.write(head + pri + q + rec.tobytes())


def read_trace(path):
    """Read a binary trace; raises ValueError on a malformed file.

    Bad magic, an unknown version or flag, a size that does not match the
    header (truncation or trailing bytes) and every check of
    ``LValueTrace`` are all rejected.
    """
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < _HEAD.size or data[:4] != _MAGIC:
        raise ValueError("not an L-value trace file (bad magic)")
    magic, version, flags, n, m, bar_m, scale, scale_opt, h_b = _HEAD.unpack_from(data)
    if version != _VERSION:
        raise ValueError(f"unsupported trace version {version}")
    if flags & ~1:
        raise ValueError(f"unknown trace flags {flags:#x}")
    off = _HEAD.size + 8 * bar_m + (_QUANT.size if flags & 1 else 0)
    size = off + n * _REC_DTYPE.itemsize
    if len(data) < size:
        raise ValueError("trace file truncated")
    if len(data) > size:
        raise ValueError(f"{len(data) - size} trailing bytes after the last trace record")
    priors = np.frombuffer(data, dtype="<f8", count=bar_m, offset=_HEAD.size).copy()
    quantizer = None
    if flags & 1:
        n_levels, step = _QUANT.unpack_from(data, _HEAD.size + 8 * bar_m)
        quantizer = Quantizer(n_levels=n_levels, step=step)
    rec = np.frombuffer(data, dtype=_REC_DTYPE, count=n, offset=off)
    return LValueTrace(
        bits=rec["bit"].copy(), lvalues=rec["lvalue"].copy(),
        tributaries=rec["trib"].copy(), m=m, bar_m=bar_m, scale=scale,
        scale_opt=scale_opt, priors=priors, h_b=h_b, quantizer=quantizer,
    )


# --- consistency diagnostics --------------------------------------------

# consistency_check: histogram bins per tributary, and the samples of
# each bit value a bin needs to enter the fit
_CONSISTENCY_BINS = 41
_CONSISTENCY_MIN_COUNT = 1000


@dataclass(frozen=True)
class TributaryConsistency:
    tributary: int
    log_ratio: np.ndarray      # measured ln p(l|B=0)/p(l|B=1) per kept bin
    expected: np.ndarray       # (s_o/s) * l - prior, at the kept bin centers
    slope: float
    intercept: float
    coverage: float            # fraction of this tributary's samples in kept bins


def consistency_check(trace):
    """Histogram test of the L-value consistency property.

    For each tributary, bins the conditional densities of L given the
    transmitted bit and compares ln p(l|B=0)/p(l|B=1) with the straight
    line (s_o/s)*l - L^pr; a matched exact demapper follows it with slope
    s_o/s = 1.  Bins with fewer than ``_CONSISTENCY_MIN_COUNT`` samples on
    either side are skipped and reported via ``coverage``.  The slope
    comes from an inverse-variance weighted least-squares fit.
    """
    ratio = trace.s_ratio
    results = []
    for t in range(1, trace.bar_m + 1):
        sel = trace.tributaries == t
        l = trace.lvalues[sel]
        b = trace.bits[sel]
        if l.size == 0:
            continue
        lo, hi = np.quantile(l, [0.001, 0.999])
        if hi <= lo:
            continue
        edges = np.linspace(lo, hi, _CONSISTENCY_BINS + 1)
        c0, _ = np.histogram(l[b == 0], bins=edges)
        c1, _ = np.histogram(l[b == 1], bins=edges)
        n0 = max(int((b == 0).sum()), 1)
        n1 = max(int((b == 1).sum()), 1)
        keep = (c0 >= _CONSISTENCY_MIN_COUNT) & (c1 >= _CONSISTENCY_MIN_COUNT)
        centers = 0.5 * (edges[:-1] + edges[1:])[keep]
        k0 = c0[keep].astype(float)
        k1 = c1[keep].astype(float)
        log_ratio = np.log(k0 / n0) - np.log(k1 / n1)
        expected = ratio * centers - trace.priors[t - 1]
        if centers.size >= 2:
            w = k0 * k1 / (k0 + k1)   # ~1/var of the log count ratio
            wx = np.average(centers, weights=w)
            wy = np.average(log_ratio, weights=w)
            slope = np.average((centers - wx) * (log_ratio - wy), weights=w)
            slope /= np.average((centers - wx) ** 2, weights=w)
            intercept = wy - slope * wx
        else:
            slope, intercept = np.nan, np.nan
        results.append(TributaryConsistency(
            tributary=t, log_ratio=log_ratio, expected=expected,
            slope=float(slope), intercept=float(intercept),
            coverage=float((k0.sum() + k1.sum()) / l.size),
        ))
    return results
