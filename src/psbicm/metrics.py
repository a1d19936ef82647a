"""Decoding-aware performance metrics computed from L-value traces.

All estimators are Monte-Carlo sample means over a trace.  The family is
built around one scalar function, the soft bit cost

    f(x) = log2(1 + exp(-x)) = (max(-x, 0) + log1p(exp(-|x|))) / ln 2,

evaluated on (rescaled) asymmetric L-values ``l_a = (-1)^bit * L``:

* per-tributary means of f estimate the conditional entropies H(B_i|Y);
* ``1 - mean`` over all positions is the asymmetric information ASI;
* ``m * mean`` at a decoder scaling s_d is the decoding uncertainty
  U(s_d), giving the achievable FEC code rate [1 - U*/m]^+;
* subtracting the summed conditional entropies from H(B) gives the
  bit-metric-decoding rate Delta_H, which coincides with the GMI of the
  bitwise auxiliary channel when evaluated at the trace's own scaling;
* on a quantized trace, ``asi_hist`` gives the ASI in its entropy form
  1 + H(|L_a|) - H(L_a), from the lattice pmf alone.

``compute_report`` evaluates the family on one trace into one
``MetricReport``.  Delta_H and the fields derived from it (BMD rate,
net BMD rate, normalized AIR, information rate, code-rate bound) are
closed forms computed in the report itself.  With zero priors at s = 1
the GMI's scaling search is R*_fec's and runs once: ``gmi_scale ==
decoder_scale`` and NGMI = R*_fec up to rounding (no shaping, one quantity).

All of these route through one reduction helper, so the algebraic
identities between them (achievable-FEC-rate = ASI at s_d = s_o/s,
fixed-scaling GMI = Delta_H) hold exactly on a common trace, not just
statistically.  Each estimator takes the trace's asymmetric L-values as
``la`` when the caller already has them (``trace.asymmetric()``, never
modified), so a full report builds them once.  A trace holds whole
symbols: position p is on tributary p % bar_m + 1, of n / bar_m positions.

Every full-length temporary of a search or cost pass comes from one
float64 workspace per thread: a scaling search's three rows (d/count,
d^2/count, and x, then p; its final cost pass reuses them), the soft bit
cost's two, and the s_o/s-scaled copy of the ASI in the cost's result
row (no copy at s_o/s = 1, where 1.0 * l_a is l_a).  The workspace grows
to three rows of the largest trace seen and is kept.  For the largest
pooled trace of the acceptance suite's waterfall study (criterion 09),
3000 frames of n = 1008 (3.02M L-values), that is 72.6 MB.  So a report
on a trace no larger than one seen before takes no fresh search or cost
row, and its time no longer depends on the heap its caller left.  The
GMI's asymmetric prior and extrinsic rows stay fresh: kept in the
workspace they saved no page faults and held 0.9 MB more.  Public
functions return fresh arrays; no view of the workspace escapes.

f is evaluated in the second form above, on numpy's vectorized ``exp``
and ``log1p``.  These are the branches ``np.logaddexp(0, -x)`` takes, on
different exp and log1p implementations, and that is this module's one
stated tolerance: about 3% of values differ from the logaddexp form, by
at most 3 ulp (4.7e-16 relative).  A value may also differ by an ulp
across CPU dispatch targets, as ``np.exp`` does everywhere.  The
identities above stay exact, since both of their sides use the same f.

The scaling optima (the s of the GMI, the s_d of the uncertainty) come
from one safeguarded Newton search on [1e-3, 1e2] with the closed-form
derivatives of f; GMI(s) is concave and U(s_d) convex, so an interior
optimum is the global one, and an optimum at a bracket end is flagged.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .constellation import _entropy_bits
from .demapper import _sign_flipped, quantize_trace

_LN2 = np.log(2.0)
SEARCH_LO = 1e-3
SEARCH_HI = 1e2
SEARCH_XTOL = 1e-4      # an optimum within 2*SEARCH_XTOL of an end is flagged

_local = threading.local()      # .buf: this thread's workspace buffer


def _workspace(rows, n):
    """``rows`` float64 rows of length n from this thread's workspace.

    One buffer per thread, grown to the largest ``rows * n`` requested
    and kept; the contents are whatever the last pass left.
    """
    buf = getattr(_local, "buf", None)
    if buf is None or buf.size < rows * n:
        buf = _local.buf = np.empty(rows * n)
    return buf[:rows * n].reshape(rows, n)


def _soft_bit_cost(x, pos, out):
    # f(x) into ``out`` (which may be x), with ``pos`` as scratch
    np.negative(x, out=pos)                 # -x, then max(-x, 0)
    np.minimum(x, pos, out=out)             # -|x|
    np.maximum(pos, 0.0, out=pos)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += pos
    out /= _LN2
    return out


def soft_bit_cost(x):
    """log2(1 + exp(-x)) as (max(-x, 0) + log1p(exp(-|x|))) / ln 2.

    Overflow/underflow safe for any real x.  The branches of
    ``np.logaddexp(0, -x) / ln 2`` on vectorized exp and log1p, so each
    value is within 3 ulp (4.7e-16 relative) of that form.  Keeps the
    shape; a scalar or 0-d input gives a float64.
    """
    x = np.asarray(x, dtype=float)
    return _soft_bit_cost(x, np.empty_like(x), np.empty_like(x))[()]   # float64 when 0-d


def _mean_cost_by_tributary(x_asym, bar_m, pos, out):
    # single shared reduction: every estimator that must satisfy an exact
    # cross-identity computes its means through this path, in position order
    f = _soft_bit_cost(x_asym, pos, out)
    trib = np.empty(f.size, dtype=np.intp)        # 0..bar_m-1 repeated, by doubling
    trib[:bar_m] = range(bar_m)
    k = bar_m
    while k < f.size:
        trib[k:2 * k] = trib[:min(k, f.size - k)]
        k *= 2
    return np.bincount(trib, weights=f, minlength=bar_m) / (f.size // bar_m)


def _asym(trace, la):
    return trace.asymmetric() if la is None else la


def _uncertainty(trace, cond):
    # m times the mean cost per label position, from the tributary means
    return (trace.m / trace.bar_m) * float(cond.sum())


def _minimize_scaling(base, direction, bar_m, s0):
    """Minimize C(s) = sum_i mean_i f(base + s*direction); base None is 0.

    ``direction`` follows the trace layout: count = size / bar_m per tributary.

    Safeguarded Newton on [SEARCH_LO, SEARCH_HI] from ``s0``.  With
    p = 1/(1 + e^x), C' = -sum_i mean_i(p*d)/ln2 and C'' =
    sum_i mean_i(p*(1-p)*d^2)/ln2.  The sign of C' shrinks the bracket; a
    Newton step that leaves it falls back to bisection.  The convergence
    test |step| <= 1e-10*max(1, s) comes first, so a converged step that
    touches the bracket end cannot set off bisection.  Returns
    (s, C(s) from the shared tributary reduction, at_boundary).
    """
    w1, w2, work = _workspace(3, direction.size)   # work: x, then p, then p^2
    # d/count and d^2/count make the tributary means dot products
    np.multiply(direction, 1.0 / (direction.size // bar_m), out=w1)
    np.multiply(w1, direction, out=w2)
    lo, hi = SEARCH_LO, SEARCH_HI
    s = min(max(float(s0), lo), hi)
    for _ in range(100):
        np.multiply(direction, s, out=work)
        if base is not None:
            work += base
        with np.errstate(over="ignore"):
            np.exp(work, out=work)
        work += 1.0
        np.reciprocal(work, out=work)
        # einsum, not a BLAS dot: single-threaded, so the sums do not
        # depend on the BLAS thread count
        d1 = -float(np.einsum("i,i->", work, w1))           # ln2 * C'
        d2 = float(np.einsum("i,i->", work, w2))
        work *= work
        d2 -= float(np.einsum("i,i->", work, w2))           # ln2 * C''
        lo, hi = (lo, s) if d1 > 0 else (s, hi)
        step = -d1 / d2 if d2 > 0 else (0.0 if d1 == 0 else np.inf)
        tol = 1e-10 * max(1.0, s)
        nxt = s + step
        if abs(step) > tol and not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        converged = abs(nxt - s) <= tol     # also when the bracket collapsed
        s = nxt
        if converged:
            break
    np.multiply(direction, s, out=work)
    if base is not None:
        work += base
    cost = float(_mean_cost_by_tributary(work, bar_m, w1, work).sum())
    return s, cost, s - SEARCH_LO < 2 * SEARCH_XTOL or SEARCH_HI - s < 2 * SEARCH_XTOL


def pre_fec_ber(trace, *, la=None):
    """Hard-decision bit error rate of sign(L); L = 0 counts half."""
    la = _asym(trace, la)
    return float(np.count_nonzero(la < 0) + 0.5 * np.count_nonzero(la == 0)) / la.size


def asi_mc(trace, s_ratio=None, *, la=None):
    """Monte-Carlo asymmetric information 1 - E[f(s_ratio * l_a)].

    ``s_ratio`` defaults to the trace's s_o/s, which on SNR-mismatched
    traces restores the matched value; pass 1.0 to evaluate the L-values
    exactly as the decoder would see them.  The expectation weights
    tributaries equally; every tributary of a trace holds n / bar_m
    positions, so this is the pooled mean up to the order of the sums.
    """
    if s_ratio is None:
        s_ratio = trace.s_ratio
    if not s_ratio > 0:
        raise ValueError("s_ratio must be positive")
    cond = tributary_conditional_entropies(trace, s_ratio, la=la)
    return 1.0 - _uncertainty(trace, cond) / trace.m


def tributary_conditional_entropies(trace, s_ratio=1.0, *, la=None):
    """Per-tributary estimates of H(B_i | Y), in bits.

    Mean soft bit cost of the (optionally rescaled) asymmetric L-values,
    grouped by tributary; shape (bar_m,).
    """
    la = _asym(trace, la)
    pos, out = _workspace(2, la.size)
    x = la if s_ratio == 1.0 else np.multiply(la, s_ratio, out=out)   # 1.0 * la is la
    return _mean_cost_by_tributary(x, trace.bar_m, pos, out)


@dataclass(frozen=True)
class GmiResult:
    gmi_bits: float
    scale: float            # extrinsic scaling s achieving the reported GMI
    at_boundary: bool


def _asymmetric_priors(trace):
    # (-1)^b L^pr: the priors along the layout, sign bits flipped as in la
    return _sign_flipped(trace.priors, trace.bits)


def gmi_from_trace(trace, s="optimize", *, la=None):
    """Generalized mutual information of the trace's auxiliary channel.

    The stored L-values are L^pr + s0*L^ex with s0 = trace.scale; the
    decomposition is inverted so GMI(s) can be evaluated at any extrinsic
    scaling s.  With ``s="optimize"`` the concave GMI(s) is maximized by
    minimizing its summed conditional entropies with the safeguarded
    Newton search, started at the trace's s_o.  Evaluating at s = s0
    needs no inversion and reproduces H(B) - sum_i H(B_i|Y) on the trace
    exactly.
    """
    if s != "optimize":
        s = float(s)
        if s < 0:
            raise ValueError("s must be >= 0")
        if s == trace.scale:
            cond = tributary_conditional_entropies(trace, la=la)
            return GmiResult(gmi_bits=trace.h_b - _uncertainty(trace, cond), scale=s,
                             at_boundary=False)
    # asymmetric prior (-1)^b L^pr and extrinsic (-1)^b L^ex
    prior_a = _asymmetric_priors(trace)
    extr_a = _asym(trace, la) - prior_a
    extr_a /= trace.scale
    boundary = False
    if s == "optimize":
        s, cost, boundary = _minimize_scaling(prior_a, extr_a, trace.bar_m, trace.scale_opt)
    else:
        extr_a *= s
        extr_a += prior_a                   # prior + s * extrinsic
        cost = float(_mean_cost_by_tributary(extr_a, trace.bar_m,
                                             _workspace(1, extr_a.size)[0], extr_a).sum())
    return GmiResult(gmi_bits=trace.h_b - (trace.m / trace.bar_m) * cost, scale=s,
                     at_boundary=boundary)


def ngmi(gmi_bits, h_b, m):
    """Normalized GMI 1 - (H(B) - GMI)/m (the achievable binary code rate)."""
    return 1.0 - (h_b - gmi_bits) / m


@dataclass(frozen=True)
class RfecResult:
    uncertainty: float      # U at the reported decoder scaling
    r_fec_star: float       # [1 - U/m]^+
    scale: float            # s_d
    at_boundary: bool


def r_fec_star(trace, s_d="optimize", *, la=None):
    """Achievable FEC code rate from the decoder's input L-values.

    U(s_d) is the mean soft bit cost of the s_d-scaled asymmetric
    L-values per label position, times m; unless a fixed value is given,
    the convex U is minimized over s_d by the safeguarded Newton search,
    started at s_o/s.  R*_fec = [1 - U*/m]^+, and at s_d = s_o/s it
    equals the (mismatch-corrected) ASI exactly.
    """
    if s_d == "optimize":
        sd, cost, boundary = _minimize_scaling(None, _asym(trace, la), trace.bar_m,
                                               trace.s_ratio)
        u_star = (trace.m / trace.bar_m) * cost
    else:
        if not s_d > 0:
            raise ValueError("s_d must be positive")
        sd = float(s_d)
        cond = tributary_conditional_entropies(trace, sd, la=la)
        u_star, boundary = _uncertainty(trace, cond), False
    return RfecResult(
        uncertainty=u_star,
        r_fec_star=max(1.0 - u_star / trace.m, 0.0),
        scale=sd,
        at_boundary=boundary,
    )


def asi_floor(pmf):
    """Low-SNR limit of the ASI, from the priors alone.

    With an uninformative channel the L-values collapse onto the prior
    offsets, and the expectation has the closed form
    1 - (1/bar_m) sum_i sum_b P_i(b) f((-1)^b L_i^pr).
    """
    tm = pmf.tributary_marginals
    pri = pmf.log_priors
    total = 0.0
    for t in range(tm.shape[0]):
        total += tm[t, 0] * float(soft_bit_cost(pri[t]))
        total += tm[t, 1] * float(soft_bit_cost(-pri[t]))
    return 1.0 - total / tm.shape[0]


def asi_hist(trace, *, la=None):
    """ASI from the empirical pmf of quantized asymmetric L-values.

    Requires a quantized trace.  The entropy form 1 + H(|L_a|) - H(L_a)
    of the lattice pmf needs no scaling knowledge; with two levels it
    reduces to one minus the binary entropy of the hard-decision error
    rate.  A warning is raised when the wrong-sign saturation bin holds
    more than 1e-3 probability (the lattice is then too coarse or too
    narrow to be trusted).
    """
    q = trace.quantizer
    if q is None:
        raise ValueError("asi_hist needs a quantized trace")
    la = _asym(trace, la)
    p = np.bincount(q.indices(la), minlength=q.n_levels) / la.size
    half = q.n_levels // 2
    if p[0] > 1e-3:
        warnings.warn(
            f"wrong-sign saturation mass {p[0]:.2e} > 1e-3; "
            "quantized ASI is unreliable at this lattice",
            stacklevel=2,
        )
    return 1.0 + _entropy_bits(p[half:] + p[half - 1 :: -1]) - _entropy_bits(p)


# --- aggregated report ---------------------------------------------------

@dataclass(frozen=True)
class MetricReport:
    """All pre-decoding metrics for one simulation point.

    Quantized-ASI and rate-accounting fields are NaN when no quantizer or
    code rate applies.  The boundary flags mark a scaling search that
    ended at its bracket.
    """

    pre_fec_ber: float
    gmi_bits: float
    gmi_scale: float
    ngmi: float
    delta_h: float
    bmd_rate: float
    bmd_rate_net: float
    normalized_air: float
    asi: float
    asi_quantized: float
    uncertainty: float
    r_fec_star: float
    decoder_scale: float
    info_rate: float
    code_rate_bound: float
    gmi_at_boundary: bool
    decoder_scale_at_boundary: bool


def compute_report(trace, quantizer=None, r_c=None, r_loss=0.0):
    """Evaluate the full metric family on one trace.

    ``quantizer`` adds the histogram ASI (applied to a copy if the trace
    is not already on that lattice).  A code rate ``r_c`` in (0, 1] adds
    the rate accounting: the net information rate
    H(B) - R_loss - (1 - r_c)*m, and the code rate at which it would just
    reach the net BMD rate.  ``r_loss`` >= 0 is the shaping rate loss.
    The asymmetric L-values are built once and passed to every estimator.
    With zero priors at s = 1 one scaling search serves the GMI and
    R*_fec: ``gmi_scale == decoder_scale``, NGMI = R*_fec up to rounding.
    """
    if r_c is not None and not 0.0 < r_c <= 1.0:
        raise ValueError(f"code rate must be in (0, 1], got {r_c!r}")
    if not 0.0 <= r_loss < np.inf:
        raise ValueError(f"rate loss must be finite and >= 0, got {r_loss!r}")
    h_b, m = trace.h_b, trace.m
    la = trace.asymmetric()
    rf = r_fec_star(trace, s_d="optimize", la=la)
    if trace.scale == 1.0 and not np.any(trace.priors):
        # the GMI's search is R*_fec's: a zero prior only turns -0.0 into +0.0
        g = GmiResult(h_b - rf.uncertainty, rf.scale, rf.at_boundary)
    else:
        g = gmi_from_trace(trace, s="optimize", la=la)
    cond = tributary_conditional_entropies(trace, s_ratio=1.0, la=la)
    u = _uncertainty(trace, cond)
    delta_h = h_b - u                           # = GMI at the trace's own s
    bmd_rate = max(delta_h, 0.0)
    bmd_rate_net = delta_h - r_loss
    # at s_o/s = 1 asi_mc would repeat the cost pass of cond
    asi = 1.0 - u / m if trace.s_ratio == 1.0 else asi_mc(trace, la=la)
    if quantizer is not None and trace.quantizer != quantizer:
        asi_q = asi_hist(quantize_trace(trace, quantizer))
    elif quantizer is not None or trace.quantizer is not None:
        asi_q = asi_hist(trace, la=la)
    else:
        asi_q = float("nan")
    if r_c is None:
        info_rate = code_rate_bound = float("nan")
    else:
        info_rate = h_b - r_loss - (1.0 - r_c) * m
        code_rate_bound = 1.0 - (h_b - r_loss - bmd_rate_net) / m
    return MetricReport(
        pre_fec_ber=pre_fec_ber(trace, la=la),
        gmi_bits=g.gmi_bits,
        gmi_scale=g.scale,
        ngmi=ngmi(g.gmi_bits, h_b, m),
        delta_h=delta_h,
        bmd_rate=bmd_rate,
        bmd_rate_net=bmd_rate_net,
        normalized_air=bmd_rate / h_b if h_b > 0 else 0.0,
        asi=asi,
        asi_quantized=asi_q,
        uncertainty=rf.uncertainty,
        r_fec_star=rf.r_fec_star,
        decoder_scale=rf.scale,
        info_rate=info_rate,
        code_rate_bound=code_rate_bound,
        gmi_at_boundary=g.at_boundary,
        decoder_scale_at_boundary=rf.at_boundary,
    )
