import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np
import pytest

from psbicm import metrics as metrics_module
from psbicm.channel import ChannelConfig, awgn
from psbicm.constellation import draw_labels, square_qam
from psbicm.demapper import (
    DemapperConfig,
    LValueTrace,
    Quantizer,
    default_quantizer,
    demap_to_trace,
    make_trace,
    quantize_trace,
)
from psbicm.metrics import (
    SEARCH_HI,
    SEARCH_LO,
    MetricReport,
    _asymmetric_priors,
    _mean_cost_by_tributary,
    _minimize_scaling,
    asi_floor,
    asi_hist,
    asi_mc,
    compute_report,
    gmi_from_trace,
    ngmi,
    pre_fec_ber,
    r_fec_star,
    soft_bit_cost,
    tributary_conditional_entropies,
)
from psbicm.cli import METRICS_SCHEMA, _csv_header, _csv_row, _json_row
from psbicm.shaping import amplitude_preset

PAS_II = amplitude_preset("ii")


def simulate_trace(m, snr_db, n_sym, seed, amplitude_pmf=None,
                   assumed_snr_db=None, scale=1.0, quantizer=None):
    con, pmf = square_qam(m, amplitude_pmf=amplitude_pmf)
    rng = np.random.default_rng(seed)
    labels = draw_labels(pmf, n_sym, rng)
    cfg = ChannelConfig(snr_db, seed=seed)
    y = awgn(con.points[labels], cfg)

    dcfg = DemapperConfig(
        assumed_snr_db=snr_db if assumed_snr_db is None else assumed_snr_db,
        scale=scale,
        quantizer=quantizer,
    )
    return demap_to_trace(labels, y, con, pmf, dcfg, channel_snr_linear=cfg.snr_linear)


def test_soft_bit_cost_limits():
    assert soft_bit_cost(0.0) == pytest.approx(1.0, abs=1e-15)
    assert soft_bit_cost(800.0) == 0.0
    # large negative argument: f(x) -> -x/ln2 without overflow
    assert soft_bit_cost(-2000.0) == pytest.approx(2000.0 / np.log(2), rel=1e-12)
    out = soft_bit_cost(np.array([[0.0, 1.0], [-1.0, 3.0]]))
    assert out.shape == (2, 2)
    assert out[0, 1] == pytest.approx(np.log2(1 + np.exp(-1.0)), rel=1e-14)
    for scalar in (0.5, np.float64(0.5), np.array(0.5), 1):
        assert type(soft_bit_cost(scalar)) is np.float64
    assert soft_bit_cost([1.0, 2.0, 3.0]).shape == (3,)
    assert soft_bit_cost(np.zeros((0, 4))).shape == (0, 4)


def test_soft_bit_cost_against_logaddexp_form():
    # the max/log1p form takes logaddexp's branches on vectorized exp and
    # log1p.  Each differs from libm by up to 1 ulp, so ln(1 + e^-|x|) can
    # differ by 2 ulp, and the quotient by ln 2 by 3 ulp of f (4.6e-16
    # relative at most, in 4M normals); denormal results by 1e-300 absolute
    edges = np.array([0.0, 5e-324, 1e-300, 1e-8, 36.7, 709.0, 745.0, 800.0,
                      2000.0, 1e308, np.inf])
    rng = np.random.default_rng(0)
    x = np.concatenate((edges, -edges, 10.0 * rng.standard_normal(10**5)))
    ref = np.logaddexp(0.0, -x) / np.log(2)
    got = soft_bit_cost(x)
    with np.errstate(invalid="ignore"):             # inf - inf at x = -inf
        err = np.abs(got - ref)
    assert np.all((got == ref) | (err <= np.maximum(3 * np.spacing(ref), 1e-300)))
    normal = (ref > 1e-300) & (ref < np.inf)
    assert np.max(err[normal] / ref[normal]) <= 4.7e-16
    assert got[x == np.inf].tolist() == [0.0] and got[x == -np.inf].tolist() == [np.inf]
    assert soft_bit_cost(0.0) == soft_bit_cost(-0.0) == 1.0


@pytest.mark.parametrize("bar_m, n", [(1, 1), (1, 7), (2, 2), (3, 3), (3, 24), (3, 120000),
                                      (4, 4 * 1001), (4, 2**17)])
def test_tributary_means_equal_the_tiled_index_form(bar_m, n):
    # the doubling-built index gives bincount the same ids in the same order
    x = np.random.default_rng(n).normal(2.0, 3.0, n)
    f = soft_bit_cost(x)
    ref = np.bincount(np.tile(np.arange(bar_m), n // bar_m), weights=f,
                      minlength=bar_m) / (n // bar_m)
    got = _mean_cost_by_tributary(x, bar_m, np.empty(n), np.empty(n))
    assert np.array_equal(got, ref)


def test_scaling_search_interior_and_boundary():
    # one tributary of nine +1 and one -1: C(s) = 0.9 f(s) + 0.1 f(-s) has
    # its minimum where e^s = 9
    d = np.array([1.0] * 9 + [-1.0])
    x, fx, at_boundary = _minimize_scaling(None, d, 1, s0=1.0)
    assert x == pytest.approx(np.log(9.0), abs=1e-9)
    assert fx == pytest.approx(0.9 * soft_bit_cost(np.log(9.0))
                               + 0.1 * soft_bit_cost(-np.log(9.0)), abs=1e-14)
    assert not at_boundary

    # two tributaries with a base: a minimum no step can improve on
    rng = np.random.default_rng(5)
    base = rng.normal(0.5, 1.0, 4000)
    d = rng.normal(1.0, 2.0, 4000)
    tribs = np.tile([1, 2], 2000)           # the layout of bar_m = 2
    x, fx, at_boundary = _minimize_scaling(base, d, 2, s0=50.0)

    def cost(s):
        f = soft_bit_cost(base + s * d)
        return sum(float(np.mean(f[tribs == t])) for t in (1, 2))

    assert SEARCH_LO < x < SEARCH_HI and not at_boundary
    assert fx == pytest.approx(cost(x), abs=1e-14)
    assert fx <= min(cost(x * (1 - 1e-6)), cost(x * (1 + 1e-6)))

    # every sign right: C falls for ever and the search stops at the top
    x, _, at_boundary = _minimize_scaling(None, np.abs(d) + 0.1, 2, s0=1.0)
    assert at_boundary and x == pytest.approx(SEARCH_HI, rel=1e-9)
    # every extrinsic sign wrong: C rises from s = 0 and the search stops at the bottom
    x, _, at_boundary = _minimize_scaling(np.full(4000, 2.0), -np.abs(d) - 0.1, 2, s0=1.0)
    assert at_boundary and x == pytest.approx(SEARCH_LO, abs=1e-9)


def test_trace_of_whole_symbols_only():
    # every tributary holds n / bar_m positions, so every estimator has its
    # means; an empty trace, or one that ends inside a symbol, is rejected
    # when it is made
    tr = simulate_trace(6, 12.0, 1_000, seed=7)
    assert tr.m == 6 and np.bincount(tr.tributaries)[1:].tolist() == [2000, 2000, 2000]
    for n in (0, 2, 6, 4 * 5 + 2):
        with pytest.raises(ValueError, match="positive multiple of m = 2 \\* bar_m = 4"):
            LValueTrace(bits=np.zeros(n, np.uint8), lvalues=np.ones(n), bar_m=2,
                        scale=1.0, scale_opt=1.0, priors=np.zeros(2), h_b=2.0)


def test_asymmetric_values_and_priors_are_the_negations_bit_for_bit():
    # both sign flips equal the np.where and masked-negation forms bit for
    # bit, on a trace that holds both signed zeros under both bit values
    tr = simulate_trace(6, 9.0, 2_000, seed=13, amplitude_pmf=PAS_II)
    bits, lv = tr.bits.copy(), tr.lvalues.copy()
    bits[:24] = np.tile([0, 0, 1, 1], 6)
    lv[:24] = np.tile([0.0, -0.0], 12)
    tr = LValueTrace(bits=bits, lvalues=lv, bar_m=tr.bar_m, scale=tr.scale,
                     scale_opt=tr.scale_opt, priors=tr.priors, h_b=tr.h_b)
    where_la = np.where(tr.bits == 0, tr.lvalues, -tr.lvalues)
    assert np.array_equal(tr.asymmetric().view(np.uint64), where_la.view(np.uint64))
    masked_pri = tr.priors[tr.tributaries - 1]
    np.negative(masked_pri, out=masked_pri, where=tr.bits != 0)
    assert np.array_equal(_asymmetric_priors(tr).view(np.uint64),
                          masked_pri.view(np.uint64))


def test_report_cost_passes(monkeypatch):
    # a report evaluates the cost at four scalings: 1 for Delta_H, s_o/s for
    # the ASI, the GMI's s* and R*_fec's s_d*.  A matched trace has s_o/s = 1,
    # so Delta_H and the ASI share one pass; with zero priors at s = 1 the
    # GMI's search is R*_fec's, so one search serves both
    passes, searches = [], []
    cost, search = metrics_module._soft_bit_cost, metrics_module._minimize_scaling

    def counting_cost(x, pos, out):
        passes.append(np.size(x))
        return cost(x, pos, out)

    def counting_search(*args):
        searches.append(args[-1])
        return search(*args)

    monkeypatch.setattr(metrics_module, "_soft_bit_cost", counting_cost)
    monkeypatch.setattr(metrics_module, "_minimize_scaling", counting_search)
    for kwargs, expected, n_searches in (
            (dict(assumed_snr_db=12.0), 2, 1),            # uniform, matched
            (dict(assumed_snr_db=9.0), 3, 1),             # uniform, s_o/s = 2
            (dict(amplitude_pmf=PAS_II), 3, 2),           # shaped: nonzero priors
            (dict(scale=0.8), 4, 2)):                     # uniform at s = 0.8
        passes.clear()
        searches.clear()
        tr = simulate_trace(6, 12.0, 1_000, seed=19, **kwargs)
        compute_report(tr, r_c=0.5)
        assert passes == [tr.n] * expected, kwargs
        assert len(searches) == n_searches, kwargs


def _bits(report):
    # every field's bit pattern: NaN fields compare equal, -0.0 and 0.0 do not
    return [np.float64(getattr(report, f.name)).tobytes() for f in fields(report)]


def _report_traces():
    # shaped and uniform at s = 0.8 (both with a GMI search), mismatched
    # uniform and quantized, of four different lengths
    return [simulate_trace(6, 12.0, 2_000, seed=21, amplitude_pmf=PAS_II),
            simulate_trace(8, 18.0, 3_000, seed=22, assumed_snr_db=15.0),
            simulate_trace(4, 8.0, 500, seed=23, quantizer=Quantizer(8, 2.0)),
            simulate_trace(2, 3.0, 1_500, seed=24, scale=0.8)]


def test_reports_in_concurrent_threads_equal_the_sequential_ones():
    # more threads than cores, each running reports on every trace in a
    # different order; a short switch interval interleaves them often
    traces = _report_traces()
    expected = [_bits(compute_report(tr, r_c=0.5)) for tr in traces]
    order = [np.roll(np.arange(len(traces)), k).tolist() * 3 for k in range(4)]

    def run(idx):
        return [_bits(compute_report(traces[i], r_c=0.5)) for i in idx]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run, idx) for idx in order]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(old)
    for idx, got in zip(order, results):
        assert got == [expected[i] for i in idx]


@pytest.mark.parametrize("kwargs, rows", [(dict(), 5), (dict(assumed_snr_db=9.0), 5),
                                          (dict(amplitude_pmf=PAS_II), 7),
                                          (dict(scale=0.8), 7)],
                         ids=["matched", "mismatched", "shaped", "scaled"])
def test_a_report_peaks_at_its_own_rows_and_keeps_none(kwargs, rows):
    # at its peak a report holds rows of 8n bytes for the asymmetric
    # L-values, the intp tributary index p % bar_m that bincount sums by
    # and a search's three rows; a GMI search adds its prior and extrinsic
    # rows.  Once it returns, nothing of that is left.
    tr = simulate_trace(6, 12.0, 5_000, seed=31, **kwargs)
    tracemalloc.start()
    try:
        compute_report(tr, r_c=0.5)
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (rows + 0.5) * 8 * tr.n
    assert left < 0.1 * 8 * tr.n


def test_pre_fec_ber_hand_built():
    con, pmf = square_qam(2)
    bits = np.array([[0, 0], [1, 1]], dtype=np.uint8)
    lvals = np.array([[1.0, -1.0], [1.0, -2.0]])
    tr = make_trace(bits, lvals, pmf)
    assert pre_fec_ber(tr) == 0.5
    tr0 = make_trace(np.array([[0, 1]], dtype=np.uint8), np.array([[0.0, 0.5]]), pmf)
    # zero L-value counts half an error; the L=+0.5 on bit 1 is a full error
    assert pre_fec_ber(tr0) == 0.75
    # so does a negative zero, under either bit value
    trz = make_trace(np.array([[0, 1], [1, 0]], dtype=np.uint8),
                     np.array([[-0.0, -0.0], [0.0, 2.0]]), pmf)
    assert pre_fec_ber(trz) == 0.375


def test_pre_fec_ber_counts_equal_the_mean_form():
    # a sum of values in {0, 1/2, 1} is exact, so counting is bit for bit
    _, pmf = square_qam(2)
    rng = np.random.default_rng(3)
    lv = rng.integers(-2, 3, (500_001, 2)) * 0.75
    lv[rng.random(lv.shape) < 0.1] = -0.0
    tr = make_trace(rng.integers(0, 2, lv.shape, dtype=np.uint8), lv, pmf)
    la = tr.asymmetric()
    assert np.count_nonzero(la == 0) > 100_000
    ref = np.mean((la < 0) + 0.5 * (la == 0))
    assert np.array(pre_fec_ber(tr)).view(np.uint64) == np.array(ref).view(np.uint64)


def test_asi_equals_pooled_mean():
    tr = simulate_trace(6, 12.0, 20_000, seed=11, amplitude_pmf=PAS_II)
    pooled = 1.0 - float(np.mean(soft_bit_cost(tr.asymmetric())))
    assert asi_mc(tr, s_ratio=1.0) == pytest.approx(pooled, abs=1e-12)
    for bad in (0.0, -1.0, np.inf, np.nan, True):
        with pytest.raises(ValueError, match="s_ratio must be finite and > 0"):
            asi_mc(tr, s_ratio=bad)
        with pytest.raises(ValueError, match="s_ratio must be finite and > 0"):
            tributary_conditional_entropies(tr, bad)


def test_gmi_at_trace_scale_equals_delta_h_exactly():
    for kwargs in (dict(m=2, snr_db=5.0), dict(m=6, snr_db=12.0, amplitude_pmf=PAS_II)):
        tr = simulate_trace(n_sym=30_000, seed=3, **kwargs)
        cond = tributary_conditional_entropies(tr)
        delta = tr.h_b - (tr.m / tr.bar_m) * float(cond.sum())
        g = gmi_from_trace(tr, s=1.0)
        assert g.gmi_bits - delta == 0.0


def test_rfec_at_matched_scaling_equals_asi_exactly():
    tr = simulate_trace(6, 9.0, 30_000, seed=5, amplitude_pmf=PAS_II,
                        assumed_snr_db=6.0)   # mismatched: s_o = 2 in linear terms
    assert tr.s_ratio == pytest.approx(10 ** 0.3, rel=1e-12)
    r = r_fec_star(tr, s_d=tr.s_ratio)
    assert r.r_fec_star - asi_mc(tr) == 0.0
    for bad in (0.0, -1.0, np.inf, np.nan, True):
        with pytest.raises(ValueError, match="s_d must be finite and > 0"):
            r_fec_star(tr, s_d=bad)


def _qpsk_gmi_oracle(snr_db):
    # per-dimension BPSK at amplitude 1/sqrt2: l_a | B=0 is N(2*snr, (2*sqrt(snr))^2);
    # two independent bits per 2-D symbol.  Gauss-Hermite quadrature.
    snr = 10 ** (snr_db / 10)
    t, w = np.polynomial.hermite.hermgauss(120)
    z = np.sqrt(2.0) * t
    cost = np.logaddexp(0.0, -(2 * snr + 2 * np.sqrt(snr) * z)) / np.log(2)
    return 2.0 * (1.0 - float(w @ cost) / np.sqrt(np.pi))


def test_gmi_qpsk_against_quadrature_oracle():
    for snr_db in (0.0, 6.0):
        tr = simulate_trace(2, snr_db, 200_000, seed=17)
        g = gmi_from_trace(tr, s=1.0)
        assert g.gmi_bits == pytest.approx(_qpsk_gmi_oracle(snr_db), abs=8e-3)


def _pam_conditional_entropy_oracle(levels, p1, sigma, n_grid=20_001):
    # numerically integrate H(B_i|Y) for Gray-labelled PAM, one value per bit
    bar_m = int(np.log2(levels.size))
    span = 8 * sigma
    y = np.linspace(levels.min() - span, levels.max() + span, n_grid)
    lik = p1 * np.exp(-((y[:, None] - levels) ** 2) / (2 * sigma**2))
    py = lik.sum(axis=1)
    labels = np.arange(levels.size)
    out = np.empty(bar_m)
    for i in range(bar_m):
        mask = ((labels >> (bar_m - 1 - i)) & 1) == 0
        p0 = lik[:, mask].sum(axis=1) / py
        with np.errstate(divide="ignore", invalid="ignore"):
            h = -(p0 * np.log2(p0) + (1 - p0) * np.log2(1 - p0))
        h = np.nan_to_num(h)
        out[i] = np.trapezoid(py / np.sqrt(2 * np.pi * sigma**2) * h, y)
    return out


def test_conditional_entropies_against_integration_oracle():
    con, pmf = square_qam(6, amplitude_pmf=PAS_II)
    snr_db = 12.0
    sigma = np.sqrt(0.5 / 10 ** (snr_db / 10))
    p1 = pmf.p.reshape(8, 8).sum(axis=1)
    oracle = _pam_conditional_entropy_oracle(con.pam_points, p1, sigma)

    tr = simulate_trace(6, snr_db, 300_000, seed=23, amplitude_pmf=PAS_II)
    cond = tributary_conditional_entropies(tr)
    np.testing.assert_allclose(cond, oracle, atol=8e-3)
    # and the derived delta_h / optimized GMI agree with the integral
    delta_oracle = tr.h_b - 2 * oracle.sum()
    delta_h = tr.h_b - (tr.m / tr.bar_m) * cond.sum()
    assert delta_h == pytest.approx(delta_oracle, abs=2e-2)
    g = gmi_from_trace(tr)
    assert g.gmi_bits == pytest.approx(delta_oracle, abs=2e-2)
    assert not g.at_boundary


def test_matched_trace_optimal_scalings_near_one():
    tr = simulate_trace(6, 12.0, 150_000, seed=29, amplitude_pmf=PAS_II)
    g = gmi_from_trace(tr)
    assert g.scale == pytest.approx(1.0, abs=0.02)
    # optimization can only help, and barely, when already matched
    g1 = gmi_from_trace(tr, s=1.0)
    assert 0.0 <= g.gmi_bits - g1.gmi_bits < 1e-5
    r = r_fec_star(tr)
    assert r.scale == pytest.approx(1.0, abs=0.02)
    assert abs(r.r_fec_star - asi_mc(tr)) < 1e-6


# NGMI and R*_fec of 20000-symbol 64-QAM traces as found by the
# golden-section search (absolute tolerance 1e-4 on the scaling) that
# the Newton search replaced
@pytest.mark.parametrize("kwargs, ngmi_golden, rfec_golden", [
    (dict(snr_db=12.0, seed=101), 0.628249376539989, 0.628249376539989),
    (dict(snr_db=12.0, seed=103, assumed_snr_db=9.0),
     0.6297336430753968, 0.6297336430753968),
    (dict(snr_db=9.0, seed=107, amplitude_pmf=PAS_II),
     0.7581885318463939, 0.758188506033456),
    (dict(snr_db=12.0, seed=109, quantizer=Quantizer(16, 6.75)),
     0.5419152763732178, 0.5419152763732178),
], ids=["matched", "mismatch_-3dB", "pas", "q16"])
def test_scaling_optima_are_optimal(kwargs, ngmi_golden, rfec_golden):
    tr = simulate_trace(6, n_sym=20_000, **kwargs)
    rep = compute_report(tr)
    assert not (rep.gmi_at_boundary or rep.decoder_scale_at_boundary)
    s_d, s = rep.decoder_scale, rep.gmi_scale
    assert r_fec_star(tr, s_d=s_d).uncertainty == rep.uncertainty
    # the slope of sum_i mean_i f(base + s*d), written out here, changes
    # sign within +-1e-6 of both optima
    sign = np.where(tr.bits == 0, 1.0, -1.0)
    pri = sign * tr.priors[tr.tributaries - 1]

    def slope(base, d, si):
        g = -d * 0.5 * (1.0 - np.tanh(0.5 * (base + si * d)))
        return sum(float(np.mean(g[tr.tributaries == t])) for t in (1, 2, 3))

    for base, d, x in ((0.0, tr.asymmetric(), s_d),
                       (pri, sign * tr.lvalues - pri, s)):
        assert slope(base, d, x * (1 - 1e-6)) < 0 < slope(base, d, x * (1 + 1e-6))
    # at 1e-6 the cost rises by less than the ~1e-12 rounding of the
    # tributary sums of a 16-level trace, so values are compared at 1e-5
    for f in (1 - 1e-5, 1 + 1e-5):
        assert rep.uncertainty <= r_fec_star(tr, s_d=s_d * f).uncertainty
        assert rep.gmi_bits >= gmi_from_trace(tr, s=s * f).gmi_bits
    assert abs(rep.ngmi - ngmi_golden) <= 1e-8
    assert abs(rep.r_fec_star - rfec_golden) <= 1e-8
    assert abs(rep.asi - r_fec_star(tr, s_d=tr.s_ratio).r_fec_star) <= 1e-12
    assert abs(gmi_from_trace(tr, s=tr.scale).gmi_bits - rep.delta_h) <= 1e-12


def test_gmi_zero_scaling_uniform_qpsk():
    tr = simulate_trace(2, 4.0, 5_000, seed=31)
    # uniform priors carry no information: GMI(0) is exactly zero
    assert gmi_from_trace(tr, s=0.0).gmi_bits == 0.0
    for bad in (-1.0, np.inf, np.nan, True):
        with pytest.raises(ValueError, match="s must be finite and >= 0"):
            gmi_from_trace(tr, s=bad)


def test_ngmi_tracks_asi_when_matched():
    tr = simulate_trace(6, 12.0, 200_000, seed=37, amplitude_pmf=PAS_II)
    g = gmi_from_trace(tr)
    n = ngmi(g.gmi_bits, tr.h_b, tr.m)
    assert n == pytest.approx(asi_mc(tr), abs=5e-3)


def test_rfec_optimizer_recovers_mismatch_ratio():
    tr = simulate_trace(2, 7.0, 150_000, seed=41, assumed_snr_db=4.0)
    r = r_fec_star(tr)
    assert r.scale == pytest.approx(tr.s_ratio, rel=0.1)
    assert abs(r.r_fec_star - asi_mc(tr)) < 1e-4
    assert not r.at_boundary


def test_mismatch_corrected_asi_invariant_qpsk():
    # QPSK L-values are linear in y, so the s_o/s correction undoes the
    # assumed-SNR error up to rounding
    tr_ok = simulate_trace(2, 7.0, 50_000, seed=43)
    tr_mis = simulate_trace(2, 7.0, 50_000, seed=43, assumed_snr_db=4.0)
    assert abs(asi_mc(tr_ok) - asi_mc(tr_mis)) < 1e-10


def test_asi_floor_closed_form():
    con, pmf = square_qam(6, amplitude_pmf=PAS_II)
    tm = pmf.tributary_marginals
    with np.errstate(divide="ignore", invalid="ignore"):
        hb = -(tm[:, 0] * np.log2(tm[:, 0]) + tm[:, 1] * np.log2(tm[:, 1]))
    # prior-only ASI is one minus the mean tributary entropy
    assert asi_floor(pmf) == pytest.approx(1.0 - float(np.mean(hb)), abs=1e-12)
    _, uni = square_qam(2)
    assert asi_floor(uni) == pytest.approx(0.0, abs=1e-15)


def test_asi_floor_reached_at_very_low_snr():
    pmf_2lev = [0.8, 0.2]
    tr = simulate_trace(4, -20.0, 50_000, seed=47, amplitude_pmf=pmf_2lev)
    con, pmf = square_qam(4, amplitude_pmf=pmf_2lev)
    assert asi_mc(tr) == pytest.approx(asi_floor(pmf), abs=1e-2)


def test_asi_hist_two_levels_is_binary_entropy_complement():
    q = Quantizer(n_levels=2, step=1.0)
    tr = simulate_trace(6, 12.0, 50_000, seed=53, amplitude_pmf=PAS_II, quantizer=q)
    # at two levels every wrong sign lands in the saturation bin, so the
    # lattice-quality warning necessarily fires; the identity still holds
    with pytest.warns(UserWarning, match="saturation"):
        res = asi_hist(tr)
    ber = pre_fec_ber(tr)
    hb = -(ber * np.log2(ber) + (1 - ber) * np.log2(1 - ber))
    assert res == pytest.approx(1.0 - hb, abs=1e-12)


def test_asi_hist_fine_lattice_matches_mc():
    tr = simulate_trace(6, 12.0, 100_000, seed=59, amplitude_pmf=PAS_II)
    q = default_quantizer(tr, n_levels=2**11)
    qt = quantize_trace(tr, q)
    # a wrong-sign saturation mass above 1e-3 would warn, and warnings are errors
    res = asi_hist(qt)
    assert res == pytest.approx(asi_mc(tr), abs=1e-3)


def test_asi_hist_warns_on_saturated_lattice():
    q = Quantizer(n_levels=4, step=0.05)   # +-0.075 span: almost everything saturates
    tr = simulate_trace(2, 0.0, 5_000, seed=61, quantizer=q)
    with pytest.warns(UserWarning, match="saturation"):
        asi_hist(tr)


def test_asi_hist_requires_quantized_trace():
    tr = simulate_trace(2, 3.0, 1_000, seed=67)
    with pytest.raises(ValueError):
        asi_hist(tr)


def test_report_fields_and_serialization():
    tr = simulate_trace(6, 12.0, 40_000, seed=71, amplitude_pmf=PAS_II)
    rep = compute_report(tr)
    assert np.isnan(rep.asi_quantized) and np.isnan(rep.info_rate)
    assert np.isnan(rep.code_rate_bound)
    assert rep.decoder_scale == pytest.approx(1.0, abs=0.1)
    assert 0.0 <= rep.gmi_bits - rep.delta_h < 1e-5
    assert rep.ngmi == pytest.approx(rep.asi, abs=5e-3)
    assert rep.normalized_air == pytest.approx(rep.bmd_rate / tr.h_b, rel=1e-12)
    # an overconfident demapper (s = 5) puts Delta_H below 0; the BMD rate clips it
    over = compute_report(simulate_trace(2, 0.0, 2_000, seed=83, scale=5.0))
    assert over.delta_h < 0.0 and over.bmd_rate == 0.0 and over.normalized_air == 0.0

    q = default_quantizer(tr, n_levels=64)
    rep_q = compute_report(tr, quantizer=q, r_c=5 / 6, r_loss=0.02)
    assert np.isfinite(rep_q.asi_quantized)
    assert rep_q.info_rate == pytest.approx(tr.h_b - 0.02 - 1.0, abs=1e-12)
    assert rep_q.bmd_rate_net == pytest.approx(rep_q.delta_h - 0.02, abs=1e-12)
    assert rep_q.code_rate_bound == pytest.approx(
        1 - (tr.h_b - 0.02 - rep_q.bmd_rate_net) / 6, abs=1e-12)

    header = _csv_header(MetricReport)
    assert header.split(",")[0] == "pre_fec_ber"
    row = _csv_row(rep_q)
    vals = [float(v) for v in row.split(",")]
    assert len(vals) == len(header.split(","))
    assert vals[0] == rep_q.pre_fec_ber
    assert METRICS_SCHEMA == "psbicm-metrics-v3"
    as_json = _json_row(rep_q)
    assert list(as_json) == header.split(",")        # no per-row schema key
    assert as_json["r_fec_star"] == rep_q.r_fec_star
    # the search boundary flags: JSON booleans, CSV 0/1
    assert as_json["gmi_at_boundary"] is False
    assert as_json["decoder_scale_at_boundary"] is False
    assert row.endswith(",0,0")


def test_report_rejects_bad_rates():
    tr = simulate_trace(2, 3.0, 1_000, seed=79)
    for r_c in (0.0, -0.5, 1.5, np.nan, np.inf, True):
        with pytest.raises(ValueError, match="code rate"):
            compute_report(tr, r_c=r_c)
    for r_loss in (-1.0, -1e-300, np.nan, np.inf, False):
        with pytest.raises(ValueError, match="rate loss"):
            compute_report(tr, r_c=0.5, r_loss=r_loss)
    assert compute_report(tr, r_c=1.0).info_rate == tr.h_b


@pytest.mark.parametrize("offset_db, trace_q, report_q", [
    (0.0, None, None),                              # matched, s_o/s = 1
    (-10 * np.log10(2), None, None),                # mismatched, s_o/s = 2
    (0.0, Quantizer(16, 6.75), Quantizer(16, 6.75)),  # quantized trace
    (0.0, None, Quantizer(32, 3.0)),                # quantized copy
    # traces that keep two scaling searches; trace_q holds simulate_trace kwargs
    pytest.param(0.0, dict(amplitude_pmf=PAS_II), None, id="shaped"),
    pytest.param(0.0, dict(scale=0.8), None, id="scale_0.8"),
])
def test_report_equals_standalone_estimators(offset_db, trace_q, report_q):
    # compute_report shares the asymmetric L-values, when s_o/s = 1 one cost
    # pass between the ASI and the conditional entropies, and with zero
    # priors at s = 1 one scaling search between the GMI and R*_fec; every
    # field must still be the bits of the standalone estimators
    kwargs = trace_q if isinstance(trace_q, dict) else dict(quantizer=trace_q)
    tr = simulate_trace(6, 12.0, 20_000, seed=73, assumed_snr_db=12.0 + offset_db,
                        **kwargs)
    assert (tr.s_ratio == 1.0) == (offset_db == 0.0 and "scale" not in kwargs)
    rep = compute_report(tr, quantizer=report_q, r_c=0.5, r_loss=0.01)
    g = gmi_from_trace(tr)
    delta_h = gmi_from_trace(tr, s=tr.scale).gmi_bits
    r_bmd = max(delta_h, 0.0)
    rf = r_fec_star(tr)
    qt = tr if report_q is None or tr.quantizer == report_q else quantize_trace(tr, report_q)
    expected = MetricReport(
        pre_fec_ber=pre_fec_ber(tr), gmi_bits=g.gmi_bits, gmi_scale=g.scale,
        ngmi=ngmi(g.gmi_bits, tr.h_b, tr.m), delta_h=delta_h, bmd_rate=r_bmd,
        bmd_rate_net=delta_h - 0.01, normalized_air=r_bmd / tr.h_b, asi=asi_mc(tr),
        asi_quantized=asi_hist(qt) if qt.quantizer is not None else float("nan"),
        uncertainty=rf.uncertainty, r_fec_star=rf.r_fec_star, decoder_scale=rf.scale,
        info_rate=tr.h_b - 0.01 - (1.0 - 0.5) * tr.m,
        code_rate_bound=1.0 - (tr.h_b - 0.01 - (delta_h - 0.01)) / tr.m,
        gmi_at_boundary=g.at_boundary, decoder_scale_at_boundary=rf.at_boundary,
    )
    for f in fields(MetricReport):
        assert np.array_equal(getattr(rep, f.name), getattr(expected, f.name),
                              equal_nan=True), f.name
