import struct

import numpy as np
import pytest
from scipy.special import logsumexp

from psbicm.channel import ChannelConfig, awgn
from psbicm.constellation import draw_labels, square_qam
from psbicm.demapper import (
    DemapperConfig,
    LValueTrace,
    Quantizer,
    _CHUNK,
    _numpy_order_sum,
    bitwise_lvalues,
    consistency_check,
    default_quantizer,
    demap_to_trace,
    extrinsic_lvalues,
    make_trace,
    quantize_trace,
    read_trace,
    write_trace,
)
from psbicm.shaping import amplitude_preset, quantize_pmf

PAS_I = [0.698, 0.263, 0.037, 0.002]


def brute_force_lvalues(y, con, pmf, snr_hat, s=1.0):
    """Direct 2-D reference demapper (independent of the library path)."""
    pts = con.points
    m = con.m
    with np.errstate(divide="ignore"):
        logp = np.log(pmf.p)
    bm = pmf.bit_marginals
    out = np.empty((len(y), m))
    labels = np.arange(pts.size)
    for j, yy in enumerate(np.asarray(y, dtype=complex)):
        w = logp - snr_hat * np.abs(yy - pts) ** 2
        for i in range(m):
            b = (labels >> (m - 1 - i)) & 1
            pri = np.log(bm[i, 0]) - np.log(bm[i, 1])
            lex = logsumexp(w[b == 0]) - logsumexp(w[b == 1]) - pri
            out[j, i] = pri + s * lex
    return out


def test_qpsk_matched_lvalue_closed_form():
    con, pmf = square_qam(2)
    cfg = DemapperConfig(assumed_snr_db=0.0)   # sigma^2 = 1/2 per dim
    y = np.array([1 / np.sqrt(2) + 0j])
    lam = bitwise_lvalues(y, con, pmf, cfg)
    # L = 2*a*y/sigma^2 with a = y = 1/sqrt2: exactly 2
    assert lam[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert lam[0, 1] == pytest.approx(0.0, abs=1e-12)
    # general linearity in y for 2-point-per-bit formats
    y = np.array([0.3 + 0.1j])
    lam = bitwise_lvalues(y, con, pmf, cfg)
    assert lam[0, 0] == pytest.approx(4 * 0.3 / np.sqrt(2), abs=1e-12)
    assert lam[0, 1] == pytest.approx(4 * 0.1 / np.sqrt(2), abs=1e-12)


def test_lvalues_at_origin_equal_priors():
    con, pmf = square_qam(6, amplitude_pmf=PAS_I)
    pri = pmf.log_priors
    # sign tributaries see sign-symmetric clouds: zero L at y = 0 at any SNR
    lam = bitwise_lvalues(np.array([0j]), con, pmf, DemapperConfig(assumed_snr_db=9.0))
    assert lam[0, 0] == pytest.approx(0.0, abs=1e-9)
    assert lam[0, 3] == pytest.approx(0.0, abs=1e-9)
    # with an uninformative auxiliary channel the amplitude tributaries
    # reduce to their prior offsets
    lam = bitwise_lvalues(np.array([0j]), con, pmf, DemapperConfig(assumed_snr_db=-60.0))
    for pos in (1, 2, 4, 5):
        assert lam[0, pos] == pytest.approx(pri[pos % 3], abs=1e-4)


def test_factorized_matches_brute_force():
    con, pmf = square_qam(6, amplitude_pmf=PAS_I)
    rng = np.random.default_rng(5)
    y = rng.normal(size=200) + 1j * rng.normal(size=200)
    snr_hat = 10 ** (0.9)
    lam = bitwise_lvalues(y, con, pmf, DemapperConfig(assumed_snr_db=9.0))
    ref = brute_force_lvalues(y, con, pmf, snr_hat)
    assert np.max(np.abs(lam - ref)) < 1e-9


def test_prior_decomposition_s_zero():
    con, pmf = square_qam(6, amplitude_pmf=PAS_I)
    rng = np.random.default_rng(7)
    y = rng.normal(size=50) + 1j * rng.normal(size=50)
    lam = bitwise_lvalues(y, con, pmf, DemapperConfig(assumed_snr_db=9.0, scale=0.0))
    pri = pmf.log_priors[np.arange(6) % 3]
    assert np.allclose(lam, pri[None, :], atol=0.0)


def test_scaling_linearity():
    con, pmf = square_qam(6, amplitude_pmf=PAS_I)
    rng = np.random.default_rng(8)
    y = rng.normal(size=300) + 1j * rng.normal(size=300)
    pri = pmf.log_priors[np.arange(6) % 3]
    l1 = bitwise_lvalues(y, con, pmf, DemapperConfig(assumed_snr_db=9.0, scale=1.0))
    for c in (0.25, 2.0, 7.5):
        lc = bitwise_lvalues(y, con, pmf, DemapperConfig(assumed_snr_db=9.0, scale=c))
        assert np.max(np.abs(lc - (pri + c * (l1 - pri)))) < 1e-10


def test_matched_qpsk_hard_decisions_are_min_distance():
    con, pmf = square_qam(2)
    cfg = ChannelConfig(snr_db=3.0, seed=9)
    labels = draw_labels(pmf, 20_000, cfg.rng())
    y = awgn(con.points[labels], cfg)
    lam = bitwise_lvalues(y, con, pmf, DemapperConfig(assumed_snr_db=3.0))
    hard = (lam < 0).astype(np.uint8)
    md = con.labels_to_bits(np.argmin(np.abs(y[:, None] - con.points) ** 2, axis=1))
    assert np.array_equal(hard, md)


def test_quantizer_examples():
    q = Quantizer(n_levels=8, step=1.0)
    assert q.l_max == 3.5
    assert q.apply(0.3) == 0.5
    assert q.apply(100.0) == 3.5
    assert q.apply(-100.0) == -3.5
    assert q.apply(0.0) == 0.5          # zero breaks toward +
    assert np.array_equal(q.apply([-3.2, -2.7, -1.5, -0.1, 0.2, 1.9, 2.5, 3.99]),
                          [-3.5, -2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 3.5])


def test_quantizer_symmetry_and_monotonicity():
    q = Quantizer(n_levels=16, step=0.25)
    rng = np.random.default_rng(11)
    l = rng.normal(scale=3.0, size=10_000)
    ql = q.apply(l)
    assert np.allclose(q.apply(-l[l != 0]), -ql[l != 0])
    order = np.argsort(l)
    assert np.all(np.diff(ql[order]) >= 0)
    idx = q.indices(l)
    points = (np.arange(16) - 7.5) * 0.25       # the 16 levels, ascending
    assert np.array_equal(q.apply(points), points)
    assert np.array_equal(points[idx], ql)


def test_quantizer_validation():
    with pytest.raises(ValueError):
        Quantizer(n_levels=7, step=1.0)
    with pytest.raises(ValueError):
        Quantizer(n_levels=8, step=0.0)
    with pytest.raises(ValueError):
        DemapperConfig(assumed_snr_db=0.0, scale=-1.0)


def _small_trace(quantizer=None):
    con, pmf = square_qam(6, amplitude_pmf=PAS_I)
    ch = ChannelConfig(snr_db=9.0, seed=13)
    labels = draw_labels(pmf, 500, ch.rng())
    y = awgn(con.points[labels], ch)
    cfg = DemapperConfig(assumed_snr_db=9.0, quantizer=quantizer)
    return demap_to_trace(labels, y, con, pmf, cfg, channel_snr_linear=ch.snr_linear)


def test_trace_layout_and_metadata():
    tr = _small_trace()
    assert tr.n == 3000 and tr.m == 6 and tr.bar_m == 3
    assert tr.scale == 1.0 and tr.scale_opt == pytest.approx(1.0)
    assert tr.tributaries[:6].tolist() == [1, 2, 3, 1, 2, 3]
    assert np.bincount(tr.tributaries)[1:].tolist() == [1000, 1000, 1000]
    la = tr.asymmetric()
    flip = tr.bits == 1
    assert np.allclose(la[flip], -tr.lvalues[flip])
    assert np.allclose(la[~flip], tr.lvalues[~flip])
    assert tr.h_b == pytest.approx(4.1255, abs=1e-3)


def test_trace_binary_roundtrip(tmp_path):
    for q in (None, Quantizer(64, 0.5)):
        tr = _small_trace(q)
        p = tmp_path / "t.lvt"
        write_trace(p, tr)
        back = read_trace(p)
        assert np.array_equal(back.bits, tr.bits)
        assert np.array_equal(back.tributaries, tr.tributaries)
        assert np.array_equal(back.lvalues, tr.lvalues)   # bit exact
        assert np.array_equal(back.priors, tr.priors)
        assert back.m == tr.m and back.bar_m == tr.bar_m
        assert back.scale == tr.scale and back.scale_opt == tr.scale_opt
        assert back.h_b == tr.h_b
        assert back.quantizer == tr.quantizer


def test_trace_bad_files(tmp_path):
    p = tmp_path / "bad.lvt"
    p.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(ValueError):
        read_trace(p)
    tr = _small_trace()
    p2 = tmp_path / "trunc.lvt"
    write_trace(p2, tr)
    p2.write_bytes(p2.read_bytes()[:-100])
    with pytest.raises(ValueError):
        read_trace(p2)
    # cut inside the quantizer header, before any record
    write_trace(p2, _small_trace(Quantizer(16, 1.0)))
    p2.write_bytes(p2.read_bytes()[:struct.calcsize("<4sHHQHHddd") + 24 + 5])
    with pytest.raises(ValueError, match="truncated"):
        read_trace(p2)


def test_trace_malformed_fields_rejected(tmp_path):
    # each case patches one field of a valid written trace; header layout
    # "<4sHHQHHddd" puts flags at byte 6, m at byte 16, scale at byte 20,
    # scale_opt at byte 28 and h_b at byte 36,
    # records follow the bar_m priors as (bit u1, tributary u1, lvalue f8)
    tr = _small_trace()
    p = tmp_path / "t.lvt"
    write_trace(p, tr)
    good = p.read_bytes()
    rec0 = struct.calcsize("<4sHHQHHddd") + 8 * tr.bar_m

    def patched(offset, payload):
        return good[:offset] + payload + good[offset + len(payload):]

    cases = {
        "bits must be 0 or 1": patched(rec0, b"\x02"),
        "positive multiple of": patched(16, struct.pack("<H", 5)),
        "h_b must be finite": patched(36, struct.pack("<d", float("nan"))),
        "scale must be finite and > 0": patched(20, struct.pack("<d", float("nan"))),
        "scale_opt must be finite and > 0": patched(28, struct.pack("<d", float("inf"))),
        "trailing bytes": good + b"\0" * 3,
        "unknown trace flags": patched(6, struct.pack("<H", 2)),
    }
    for message, data in cases.items():
        p.write_bytes(data)
        with pytest.raises(ValueError, match=message):
            read_trace(p)
    p.write_bytes(good)
    assert np.array_equal(read_trace(p).lvalues, tr.lvalues)


def test_trace_validation():
    with pytest.raises(ValueError):
        LValueTrace(
            bits=np.zeros(4, np.uint8), lvalues=np.zeros(3),
            tributaries=np.ones(4, np.uint8), m=2, bar_m=1, scale=1.0,
            scale_opt=1.0, priors=np.zeros(1), h_b=2.0,
        )
    with pytest.raises(ValueError):
        LValueTrace(
            bits=np.zeros(4, np.uint8), lvalues=np.zeros(4),
            tributaries=np.full(4, 5, np.uint8), m=2, bar_m=1, scale=1.0,
            scale_opt=1.0, priors=np.zeros(1), h_b=2.0,
        )
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        LValueTrace(
            bits=np.array([0, -1, 1, 0]), lvalues=np.zeros(4),
            tributaries=np.ones(4, np.uint8), m=2, bar_m=1, scale=1.0,
            scale_opt=1.0, priors=np.zeros(1), h_b=2.0,
        )


def _qpsk_trace(snr_db, assumed_db, scale=1.0, n=1_000_000, seed=17):
    con, pmf = square_qam(2)
    ch = ChannelConfig(snr_db=snr_db, seed=seed)
    labels = draw_labels(pmf, n // 2, ch.rng())
    y = awgn(con.points[labels], ch)
    cfg = DemapperConfig(assumed_snr_db=assumed_db, scale=scale)
    return demap_to_trace(labels, y, con, pmf, cfg, channel_snr_linear=ch.snr_linear)


def test_consistency_matched_qpsk():
    tr = _qpsk_trace(3.0, 3.0)
    res = consistency_check(tr)
    assert res
    for r in res:
        assert r.max_deviation < 0.05
        assert r.slope == pytest.approx(1.0, rel=0.05)
        # only the overlap region of the two conditionals is testable
        assert 0.0 < r.coverage <= 1.0


def test_consistency_snr_mismatch_slope():
    # assumed SNR half the true SNR: log-ratio slope doubles
    tr = _qpsk_trace(6.0, 6.0 - 10 * np.log10(2))
    assert tr.scale_opt == pytest.approx(2.0, rel=1e-12)
    for r in consistency_check(tr):
        assert r.slope == pytest.approx(2.0, rel=0.05)
        assert r.max_deviation < 0.1


def test_consistency_scale_two_slope():
    tr = _qpsk_trace(6.0, 6.0, scale=2.0)
    for r in consistency_check(tr):
        assert r.slope == pytest.approx(0.5, rel=0.05)


def test_default_quantizer_covers_tail():
    tr = _small_trace()
    q = default_quantizer(tr, 2048)
    assert q.l_max >= np.quantile(np.abs(tr.lvalues), 0.999)
    qt = quantize_trace(tr, q)
    assert qt.quantizer == q
    sat = np.abs(tr.lvalues) > q.l_max
    assert sat.mean() <= 2e-3   # only the extreme tail saturates
    err = np.abs(qt.lvalues - tr.lvalues)
    assert np.max(err[~sat]) <= q.step / 2 + 1e-12


def test_chunked_demap_consistent():
    con, pmf = square_qam(4)
    rng = np.random.default_rng(19)
    y = rng.normal(size=70_000) + 1j * rng.normal(size=70_000)   # spans chunks
    cfg = DemapperConfig(assumed_snr_db=8.0)
    lam = bitwise_lvalues(y, con, pmf, cfg)
    lam_head = bitwise_lvalues(y[:100], con, pmf, cfg)
    assert np.array_equal(lam[:100], lam_head)
    assert np.all(np.isfinite(lam))


def test_make_trace_shape_validation():
    _, pmf = square_qam(2)
    with pytest.raises(ValueError):
        make_trace(np.zeros((3, 2), np.uint8), np.zeros(6), pmf)


def test_nonfinite_lvalues_rejected(tmp_path):
    # a NaN or infinite L-value would turn the scaling searches' slope
    # into NaN and send them to a bracket end
    _, pmf = square_qam(2)
    for bad in (np.nan, np.inf, -np.inf):
        lam = np.ones((3, 2))
        lam[1, 0] = bad
        with pytest.raises(ValueError, match="1 of 6 L-values are NaN or infinite"):
            make_trace(np.zeros((3, 2), np.uint8), lam, pmf)
        # the last 8 bytes of a trace file are the last record's L-value
        p = tmp_path / "bad.lvt"
        write_trace(p, _small_trace())
        p.write_bytes(p.read_bytes()[:-8] + struct.pack("<d", bad))
        with pytest.raises(ValueError, match="L-values are NaN or infinite"):
            read_trace(p)


def test_extrinsic_plus_prior_composition():
    con, pmf = square_qam(6, amplitude_pmf=PAS_I)
    rng = np.random.default_rng(23)
    y = rng.normal(size=100) + 1j * rng.normal(size=100)
    lex = extrinsic_lvalues(y, con, pmf, 10 ** 0.9)
    pri = pmf.log_priors[np.arange(6) % 3]
    lam = bitwise_lvalues(y, con, pmf, DemapperConfig(assumed_snr_db=9.0))
    assert np.allclose(lam, pri + lex, atol=1e-12)


# --- bit identity of the gathered log-sum-exp -----------------------------

def masked_lse_extrinsic(y, con, pmf, snr_hat):
    """Per-subset masked log-sum-exp demapper, one bit and half at a time.

    The demapper's gathered form must reproduce these values bit for bit.
    """
    def lse(w, mask):
        wm = w[:, mask]
        mx = wm.max(axis=1)
        finite = np.isfinite(mx)
        out = np.full(mx.shape, -np.inf)
        with np.errstate(under="ignore"):
            out[finite] = mx[finite] + np.log(
                np.exp(wm[finite] - mx[finite][:, None]).sum(axis=1))
        return out

    y = np.asarray(y, dtype=complex).ravel()
    bar_m = con.bar_m
    labels = np.arange(con.pam_points.size)
    pri = np.tile(pmf.log_priors, 2)
    out = np.empty((y.size, con.m))
    for d, yd in enumerate((y.real, y.imag)):
        w = pmf.log_p_dim - snr_hat * (yd[:, None] - con.pam_points) ** 2
        for i in range(bar_m):
            mask = ((labels >> (bar_m - 1 - i)) & 1) == 0
            pos = d * bar_m + i
            out[:, pos] = lse(w, mask) - lse(w, ~mask) - pri[pos]
    return out


def _bit_identity_formats():
    out = [square_qam(m) for m in (4, 6, 8)]
    for preset in ("i", "ii", "iii"):
        comp = quantize_pmf(amplitude_preset(preset), 1024)
        out.append(square_qam(6, amplitude_pmf=comp.pmf))
    return out


# the last size is two or more full chunks and 77 symbols for every format
@pytest.mark.parametrize("n", [1, 168, (_CHUNK >> 1) + 77])
def test_gathered_demap_bit_identical_to_masked_lse(n):
    rng = np.random.default_rng(n)
    for con, pmf in _bit_identity_formats():
        snr_db = {2: 8.0, 3: 12.0, 4: 18.0}[con.bar_m]
        labels = draw_labels(pmf, n, rng)
        y = awgn(con.points[labels], ChannelConfig(snr_db, seed=n, block_id=con.m))
        for offset_db in (0.0, -3.0):
            cfg = DemapperConfig(assumed_snr_db=snr_db + offset_db, scale=0.8)
            ref = masked_lse_extrinsic(y, con, pmf, cfg.assumed_snr_linear)
            assert np.array_equal(
                extrinsic_lvalues(y, con, pmf, cfg.assumed_snr_linear), ref)
            lam = np.tile(pmf.log_priors, 2) + cfg.scale * ref
            assert np.array_equal(bitwise_lvalues(y, con, pmf, cfg), lam)
            q = Quantizer(16, 6.75)
            qcfg = DemapperConfig(assumed_snr_db=cfg.assumed_snr_db, scale=0.8, quantizer=q)
            assert np.array_equal(bitwise_lvalues(y, con, pmf, qcfg), q.apply(lam))


def test_gathered_demap_zero_probability_labels():
    # amplitudes 3 and 7 never sent: -inf terms inside subsets.  Amplitudes
    # 5 and 7 never sent: bit 2 is always 1, so its bit-0 subset is all
    # -inf and that position's L-value is NaN (an infinite extrinsic minus
    # an infinite prior) in both forms
    rng = np.random.default_rng(5)
    y = rng.normal(size=3000) + 1j * rng.normal(size=3000)
    for amp, dead in (([0.6, 0.0, 0.4, 0.0], False), ([0.5, 0.5, 0.0, 0.0], True)):
        con, pmf = square_qam(6, amplitude_pmf=amp)
        with np.errstate(divide="ignore", invalid="ignore"):
            ref = masked_lse_extrinsic(y, con, pmf, 10.0)
            got = extrinsic_lvalues(y, con, pmf, 10.0)
        assert np.array_equal(got, ref, equal_nan=True)
        assert np.isnan(got).any() == dead
        assert np.isfinite(got[:, [0, 2, 3, 5]]).all()


def test_numpy_order_sum_matches_numpy_row_sum():
    rng = np.random.default_rng(3)
    for k in range(1, 300):
        rows = np.exp(10.0 * rng.normal(size=(4, k)))
        got = _numpy_order_sum(np.ascontiguousarray(rows.T))
        assert np.array_equal(got, rows.sum(axis=1)), k
