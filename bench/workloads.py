"""The benchmark's three workloads: set-up, one operation, and its checks.

Every library call goes through its module attribute (``channel.awgn``,
``pas.run_coded_point``, ...) so that the traced run, which rebinds those
attributes, sees the same calls as the timed run.

* ``sweep``: the ``psbicm sweep`` per-point job (draw labels, AWGN,
  demap to a trace, full metric report) on five formats.  No FEC and no
  distribution matcher; the metric scaling searches dominate.
* ``coded_uniform``: the coded chain on uniform 64-QAM with the shipped
  rate-1/2 code at 11 dB, where about a third of the frames exhaust 200
  belief-propagation iterations, so decoding dominates.
* ``coded_pas``: the PAS chain (CCDM, generated rate-2/3 code, per-frame
  random bit mapping) at 8 dB, where almost every frame converges and no
  single layer dominates.

Inputs of operation ``i`` depend only on the workload seed and ``i``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from psbicm import channel, constellation, demapper, fec, metrics, pas, shaping

# Absolute tolerances of the correctness checks.
EXACT_TOL = 1e-12       # identities that hold on a common trace, and closed forms
SEARCH_TOL = 1e-8       # fields found by a scaling search (golden section: < 1e-10)

# Decoding-quality guard for the coded workloads: frame error rate of the
# decoder on these operating points, pooled over timed runs at seeds 1..5
# (1802 errors in 6200 frames) and 1..3 (54 in 7800).  A run fails when
# its frame errors exceed this rate by more than Z_GUARD binomial standard
# deviations plus one frame, so a faster decoder cannot trade away quality.
REFERENCE_FER = {"coded_uniform": 0.291, "coded_pas": 0.0069}
Z_GUARD = 5.0


@dataclass(frozen=True)
class Size:
    """How much work one operation and one traced pass do."""

    sweep_symbols: int      # symbols per sweep point
    frames: dict            # frames per coded operation, by workload
    trace_ops: dict         # operations in one traced pass, by workload


FULL = Size(sweep_symbols=20000,
            frames={"coded_uniform": 50, "coded_pas": 100},
            trace_ops={"sweep": 1, "coded_uniform": 4, "coded_pas": 2})
SMOKE = Size(sweep_symbols=1000,
             frames={"coded_uniform": 4, "coded_pas": 6},
             trace_ops={"sweep": 1, "coded_uniform": 2, "coded_pas": 2})

# name, bits per 2-D symbol, amplitude preset, SNR dB, receiver's SNR offset
# dB, quantizer.  The 16-level lattice saturates at +-50.6, the 1 - 1e-6
# quantile of |L| at 12 dB.
SWEEP_POINTS = (
    ("u64_12dB", 6, None, 12.0, 0.0, None),
    ("u64_12dB_mismatch", 6, None, 12.0, -3.0, None),
    ("u64_12dB_q16", 6, None, 12.0, 0.0, demapper.Quantizer(16, 6.75)),
    ("pas_i_64_9dB", 6, "i", 9.0, 0.0, None),
    ("u256_18dB", 8, None, 18.0, 0.0, None),
)

CODED = {
    "coded_uniform": dict(snr_db=11.0, mapping="fs1", preset=None),
    "coded_pas": dict(snr_db=8.0, mapping="r", preset="i"),
}

WORKLOADS = ("sweep", "coded_uniform", "coded_pas")


def _shaped_format(preset):
    comp = shaping.quantize_pmf(shaping.amplitude_preset(preset), 1024)
    con, pmf = constellation.square_qam(6, amplitude_pmf=comp.pmf)
    return con, pmf, comp


def setup(workload):
    """Build what every operation of the workload shares."""
    if workload == "sweep":
        formats = {}
        for _, m, preset, _, _, _ in SWEEP_POINTS:
            if (m, preset) in formats:
                continue
            if preset is None:
                con, pmf = constellation.square_qam(m)
                formats[m, preset] = (con, pmf, 0.0)
            else:
                con, pmf, comp = _shaped_format(preset)
                formats[m, preset] = (con, pmf, shaping.rate_loss(comp))
        return formats
    spec = CODED[workload]
    if spec["preset"] is None:
        con, pmf = constellation.square_qam(6)
        return fec.reference_code(), con, pmf, None
    con, pmf, comp = _shaped_format(spec["preset"])
    return fec.generate_code(1008, "2/3"), con, pmf, comp


def _op_seed(seed, i):
    """32-bit seed of coded operation i, independent across (seed, i)."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def run_op(workload, state, seed, i, size):
    """Run operation i; returns (L-values processed, outputs for the checks)."""
    if workload == "sweep":
        return _sweep_op(state, seed, i, size.sweep_symbols)
    code, con, pmf, comp = state
    spec = CODED[workload]
    frames = size.frames[workload]
    s = _op_seed(seed, i)
    res, trace = pas.run_coded_point(
        code, con, pmf, spec["snr_db"], frames, composition=comp,
        mapping=spec["mapping"], mapping_seed=s, seed=s, max_iter=200)
    return frames * code.n, (res, trace)


def _sweep_op(formats, seed, i, n_symbols):
    out = []
    work = 0
    for j, (_, m, preset, snr_db, offset_db, quantizer) in enumerate(SWEEP_POINTS):
        con, pmf, r_loss = formats[m, preset]
        idx = i * len(SWEEP_POINTS) + j
        rng = np.random.Generator(np.random.Philox(
            key=np.array([seed, 2 * idx + 1], dtype=np.uint64)))
        labels = constellation.draw_labels(pmf, n_symbols, rng)
        ch = channel.ChannelConfig(snr_db, seed=seed, block_id=2 * idx)
        y = channel.awgn(con.points[labels], ch)
        cfg = demapper.DemapperConfig(assumed_snr_db=snr_db + offset_db,
                                      quantizer=quantizer)
        trace = demapper.demap_to_trace(labels, y, con, pmf, cfg,
                                        channel_snr_linear=ch.snr_linear)
        report = metrics.compute_report(trace, quantizer=quantizer, r_c=0.5,
                                        r_loss=r_loss)
        out.append((trace, report))
        work += trace.n
    return work, out


# --- outputs compared across runs and passes ------------------------------

def summary(workload, outputs):
    """Decoder-independent result fields of one operation, as floats."""
    if workload == "sweep":
        return [{k: float(getattr(r, k)) for k in
                 ("pre_fec_ber", "asi", "ngmi", "r_fec_star", "delta_h")}
                for _, r in outputs]
    res, _ = outputs
    return [{k: float(getattr(res, k)) for k in
             ("pre_fec_ber", "asi", "ngmi", "r_fec_star")}]


def compare(summary_a, summary_b):
    """Problems between a summary and a reference summary of the same op."""
    problems = []
    for j, (a, b) in enumerate(zip(summary_a, summary_b)):
        for key, ref in b.items():
            tol = SEARCH_TOL if key in ("ngmi", "r_fec_star") else EXACT_TOL
            if not abs(a[key] - ref) <= tol:
                problems.append(f"point {j} {key}: {a[key]!r} vs reference {ref!r}")
    return problems


# --- per-operation checks -------------------------------------------------

def check(workload, outputs):
    """List of failed checks (empty when the operation is correct)."""
    if workload == "sweep":
        problems = []
        for (trace, report), point in zip(outputs, SWEEP_POINTS):
            problems += [f"{point[0]}: {p}" for p in _check_sweep_point(trace, report)]
        return problems
    res, trace = outputs
    return _check_coded(res, trace)


def _at_bracket_end(report, flag, x):
    """The report's boundary flag, or the library's own rule when it has none."""
    if hasattr(report, flag):
        return bool(getattr(report, flag))
    tol = 2 * metrics.SEARCH_XTOL
    return x - metrics.SEARCH_LO < tol or metrics.SEARCH_HI - x < tol


def _check_sweep_point(trace, report):
    problems = []
    r_at_so = metrics.r_fec_star(trace, s_d=trace.s_ratio).r_fec_star
    if not abs(report.asi - r_at_so) <= EXACT_TOL:
        problems.append(f"ASI {report.asi!r} != R*_fec(s_o/s) {r_at_so!r}")
    g_fixed = metrics.gmi_from_trace(trace, s=trace.scale).gmi_bits
    if not abs(g_fixed - report.delta_h) <= EXACT_TOL:
        problems.append(f"GMI(s) {g_fixed!r} != Delta_H {report.delta_h!r}")
    if _at_bracket_end(report, "gmi_at_boundary", report.gmi_scale):
        problems.append(f"GMI search at the bracket end (s = {report.gmi_scale})")
    if _at_bracket_end(report, "decoder_scale_at_boundary", report.decoder_scale):
        problems.append(f"R*_fec search at the bracket end (s_d = {report.decoder_scale})")
    return problems


def _check_coded(res, trace):
    """Compare the decoder-independent fields with a separate computation."""
    ref = reference_metrics(trace)
    problems = []
    for key in ("pre_fec_ber", "asi"):
        if not abs(getattr(res, key) - ref[key]) <= EXACT_TOL:
            problems.append(f"{key} {getattr(res, key)!r} vs reference {ref[key]!r}")
    for key in ("ngmi", "r_fec_star"):
        got = getattr(res, key)
        # a search can only fall short of the true optimum
        if not (ref[key] - SEARCH_TOL <= got <= ref[key] + EXACT_TOL):
            problems.append(f"{key} {got!r} vs optimum {ref[key]!r}")
    return problems


# --- reference metric computation -----------------------------------------
# Written from the definitions, independently of psbicm.metrics: means of
# f(x) = log2(1 + e^-x) per tributary, and scaling optima found by a
# safeguarded Newton iteration with analytic derivatives instead of the
# library's golden-section search.

_LN2 = np.log(2.0)


def _cost(base, direction, s, tributaries, bar_m, derivatives=False):
    """Sum over tributaries of the tributary mean of f(base + s*direction).

    With ``derivatives`` also returns the first and second s-derivatives.
    """
    x = base + s * direction
    counts = np.bincount(tributaries, minlength=bar_m + 1)[1:]

    def tributary_sum(values):
        return float((np.bincount(tributaries, weights=values,
                                  minlength=bar_m + 1)[1:] / counts).sum())

    value = tributary_sum(np.logaddexp(0.0, -x) / _LN2)
    if not derivatives:
        return value
    p_wrong = 0.5 * (1.0 - np.tanh(0.5 * x))          # 1 / (1 + e^x)
    d1 = tributary_sum(-p_wrong * direction / _LN2)
    d2 = tributary_sum(p_wrong * (1.0 - p_wrong) * direction**2 / _LN2)
    return value, d1, d2


def _minimize(base, direction, tributaries, bar_m, s0, lo=1e-3, hi=1e2):
    """Minimizer of the convex cost over s in [lo, hi]."""
    s = min(max(s0, lo), hi)
    for _ in range(100):
        _, d1, d2 = _cost(base, direction, s, tributaries, bar_m, derivatives=True)
        if d1 > 0:
            hi = s
        else:
            lo = s
        step = -d1 / d2 if d2 > 0 else np.inf
        nxt = s + step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - s) <= 1e-13 * max(1.0, s):
            return nxt
        s = nxt
    return s


def reference_metrics(trace):
    """pre-FEC BER, ASI, NGMI and R*_fec of a trace, from their definitions."""
    tribs, bar_m, m = trace.tributaries, trace.bar_m, trace.m
    ppt = m / bar_m
    sign = np.where(trace.bits == 0, 1.0, -1.0)
    la = sign * trace.lvalues
    zero = np.zeros_like(la)
    asi = 1.0 - ppt * _cost(zero, la, trace.s_ratio, tribs, bar_m) / m
    s_d = _minimize(zero, la, tribs, bar_m, trace.s_ratio)
    u_star = ppt * _cost(zero, la, s_d, tribs, bar_m)
    prior_a = sign * trace.priors[tribs - 1]
    extr_a = sign * (trace.lvalues - trace.priors[tribs - 1]) / trace.scale
    s_g = _minimize(prior_a, extr_a, tribs, bar_m, trace.s_ratio)
    gmi = trace.h_b - ppt * _cost(prior_a, extr_a, s_g, tribs, bar_m)
    return {
        "pre_fec_ber": float(np.mean((la < 0) + 0.5 * (la == 0))),
        "asi": asi,
        "ngmi": 1.0 - (trace.h_b - gmi) / m,
        "r_fec_star": max(1.0 - u_star / m, 0.0),
    }
