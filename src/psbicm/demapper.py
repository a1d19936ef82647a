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
once with the PAM labels on the leading axis, then gathered through a
per-bit label order (bit, bit value, labels with that value ascending),
so one max, exp, sum and log give every bit's two log-sum-exps.  The
sums run in the order numpy's ``sum`` uses on a contiguous row, so the
L-values are the bits of a per-subset log-sum-exp.

A demap run is captured as an :class:`LValueTrace` — flattened
(bit, tributary, L-value) records plus the metadata the metric estimators
need (s, the true-to-assumed SNR ratio, per-tributary priors, the symbol
entropy, and the quantizer if one was applied).  Traces serialize to one
little-endian binary format (``.lvt``), which is also the ingestion path
for externally captured L-values; reading one validates every field.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from functools import lru_cache, reduce

import numpy as np

# symbols per demapper chunk times PAM levels: 1024 symbols for 16-QAM, 512
# for 64-QAM, 256 for 256-QAM, the fastest chunk sizes measured for each
_CHUNK = 1 << 12


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
        if self.n_levels < 2 or self.n_levels % 2:
            raise ValueError("n_levels must be even and >= 2")
        if not self.step > 0:
            raise ValueError("step must be positive")

    @property
    def l_max(self):
        return (self.n_levels - 1) * self.step / 2.0

    def apply(self, lvalues):
        """Round to the nearest lattice point (zero maps to +step/2)."""
        l = np.asarray(lvalues, dtype=float)
        j = np.clip(np.floor(np.abs(l) / self.step), 0, self.n_levels // 2 - 1)
        sign = np.where(l < 0, -1.0, 1.0)
        return sign * (j + 0.5) * self.step

    def indices(self, lvalues):
        """Lattice index in 0..n_levels-1 (ascending order) of each value."""
        l = np.asarray(lvalues, dtype=float)
        j = np.clip(np.floor(np.abs(l) / self.step), 0, self.n_levels // 2 - 1)
        half = self.n_levels // 2
        return np.where(l < 0, half - 1 - j, half + j).astype(np.int64)


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
        if not self.scale >= 0:
            raise ValueError("scale must be >= 0")

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


def _numpy_order_sum(t):
    """Sum over axis -2 in the order numpy sums one contiguous row.

    Up to 128 terms: eight interleaved partial sums added as a pairwise
    tree, then the remaining terms one by one.  Above 128: halves.  This
    is numpy's pairwise summation as checked against numpy 2.4.6; the
    demapper equals the masked per-subset form bit for bit only on numpy
    builds that sum in this order (on others it differs by about 1 ulp)."""
    k = t.shape[-2]
    if k > 128:
        half = k // 2 - (k // 2) % 8
        return _numpy_order_sum(t[..., :half, :]) + _numpy_order_sum(t[..., half:, :])
    full = k - k % 8
    terms = [t[..., j, :] for j in range(full, k)]
    if full:
        r = reduce(np.add, [t[..., j:j + 8, :] for j in range(0, full, 8)])
        while r.shape[-2] > 1:          # ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
            r = r[..., ::2, :] + r[..., 1::2, :]
        terms.insert(0, r[..., 0, :])
    return reduce(np.add, terms)


def _position_priors(pmf):
    # the per-tributary priors repeated for the I and the Q positions, so
    # the prior/extrinsic split is bit-exact against the trace metadata
    return np.tile(pmf.log_priors, 2)


def extrinsic_lvalues(y, constellation, pmf, assumed_snr_linear):
    """Extrinsic L-values, shape (n_symbols, m).

    Exact bitwise-posterior ratios minus the prior offsets, under the
    assumed-SNR Gaussian, computed per real dimension.
    """
    y = np.asarray(y, dtype=complex).ravel()
    bar_m = constellation.bar_m
    lev = constellation.pam_points[:, None]
    logp = pmf.log_p_dim[:, None]             # I and Q share this pmf
    order = _label_order(bar_m)
    # subsets of zero-probability labels: max -inf, shift by 0 to stay -inf
    dead = np.all(np.isneginf(logp[order]), axis=(2, 3))
    pri = _position_priors(pmf).reshape(2, bar_m)
    out = np.empty((y.size, 2, bar_m))
    yv = y.view(np.float64)                   # I and Q interleaved
    chunk = max(_CHUNK >> bar_m, 1)
    for lo in range(0, y.size, chunk):
        w = yv[2 * lo:2 * (lo + chunk)] - lev   # (M, 2c): label, then I/Q column
        w *= w
        w *= assumed_snr_linear
        np.subtract(logp, w, out=w)
        g = w[order]                          # (bar_m, 2, M/2, 2c)
        mx = g.max(axis=2)
        mx[dead] = 0.0
        g -= mx[:, :, None]
        with np.errstate(under="ignore", divide="ignore"):
            np.exp(g, out=g)
            lse = np.log(_numpy_order_sum(g))
        lse += mx
        l_ex = lse[:, 0] - lse[:, 1]          # (bar_m, 2c)
        np.subtract(l_ex.reshape(bar_m, -1, 2).transpose(1, 2, 0), pri,
                    out=out[lo:lo + chunk])
    return out.reshape(y.size, -1)


def bitwise_lvalues(y, constellation, pmf, config):
    """A-posteriori L-values prior + s * extrinsic, shape (n_symbols, m)."""
    lex = extrinsic_lvalues(y, constellation, pmf, config.assumed_snr_linear)
    pri = _position_priors(pmf)
    lam = pri + config.scale * lex
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

    def asymmetric(self):
        """Asymmetric L-values (-1)^bit * L: positive when the sign is right."""
        return np.where(self.bits == 0, self.lvalues, -self.lvalues)


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
    trib = np.tile(np.arange(m) % bar_m + 1, n_sym).astype(np.uint8)
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


def write_trace(path, trace):
    """Write the binary trace format (little-endian, magic 'LVTR')."""
    flags = 1 if trace.quantizer is not None else 0
    head = struct.pack(
        "<4sHHQHHddd",
        _MAGIC, _VERSION, flags, trace.n, trace.m, trace.bar_m,
        trace.scale, trace.scale_opt, trace.h_b,
    )
    pri = np.asarray(trace.priors, dtype="<f8").tobytes()
    q = b""
    if trace.quantizer is not None:
        q = struct.pack("<Id", trace.quantizer.n_levels, trace.quantizer.step)
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
    head_fmt = "<4sHHQHHddd"
    head_size = struct.calcsize(head_fmt)
    if len(data) < head_size or data[:4] != _MAGIC:
        raise ValueError("not an L-value trace file (bad magic)")
    magic, version, flags, n, m, bar_m, scale, scale_opt, h_b = struct.unpack(
        head_fmt, data[:head_size]
    )
    if version != _VERSION:
        raise ValueError(f"unsupported trace version {version}")
    if flags & ~1:
        raise ValueError(f"unknown trace flags {flags:#x}")
    off = head_size + 8 * bar_m + (struct.calcsize("<Id") if flags & 1 else 0)
    size = off + n * _REC_DTYPE.itemsize
    if len(data) < size:
        raise ValueError("trace file truncated")
    if len(data) > size:
        raise ValueError(f"{len(data) - size} trailing bytes after the last trace record")
    priors = np.frombuffer(data, dtype="<f8", count=bar_m, offset=head_size).copy()
    quantizer = None
    if flags & 1:
        n_levels, step = struct.unpack_from("<Id", data, head_size + 8 * bar_m)
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

    @property
    def max_deviation(self):
        if self.log_ratio.size == 0:
            return np.nan
        return float(np.max(np.abs(self.log_ratio - self.expected)))


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
