import numpy as np
import pytest

from psbicm.constellation import (
    SymbolPmf,
    draw_labels,
    entropy_stats,
    gray_pam_levels,
    square_qam,
)
from psbicm.shaping import amplitude_preset, quantize_pmf

PAS_I = [0.698, 0.263, 0.037, 0.002]   # shaped 8-PAM amplitude pmf, operating point (i)


def test_gray_pam_levels_8pam():
    lev = gray_pam_levels(3)
    # all-zeros label on the most positive level, sign bit = MSB
    assert lev[0b000] == 7
    assert sorted(lev.tolist()) == [-7, -5, -3, -1, 1, 3, 5, 7]
    assert all(lev[lab] > 0 for lab in range(4))
    assert all(lev[lab | 0b100] == -lev[lab] for lab in range(4))
    # amplitude depends only on the two low bits
    amp = {lab & 0b011: abs(lev[lab]) for lab in range(8)}
    assert amp == {0b00: 7, 0b01: 5, 0b11: 3, 0b10: 1}


def test_gray_adjacency():
    # neighboring levels differ in exactly one label bit
    for bar_m in (1, 2, 3, 4, 5):
        lev = gray_pam_levels(bar_m)
        order = np.argsort(lev)   # labels sorted by level
        for a, b in zip(order[:-1], order[1:]):
            assert bin(int(a) ^ int(b)).count("1") == 1


@pytest.mark.parametrize("m", [2, 4, 6, 8, 10])
def test_square_qam_unit_energy_uniform(m):
    con, pmf = square_qam(m)
    assert con.points.size == 2**m
    e = float((pmf.p * np.abs(con.points) ** 2).sum())
    assert e == pytest.approx(1.0, abs=1e-12)
    st = entropy_stats(pmf)
    assert st.h_b == pytest.approx(m, abs=1e-12)
    assert st.sum_h_bi == pytest.approx(m, abs=1e-12)
    assert np.all(pmf.log_priors == 0.0)


def test_qpsk_geometry():
    con, _ = square_qam(2)
    # one bit per dimension: points at (+-1 +-1j)/sqrt(2), label MSB = I sign
    assert con.points[0b00] == pytest.approx((1 + 1j) / np.sqrt(2))
    assert con.points[0b01] == pytest.approx((1 - 1j) / np.sqrt(2))
    assert con.points[0b10] == pytest.approx((-1 + 1j) / np.sqrt(2))
    assert con.points[0b11] == pytest.approx((-1 - 1j) / np.sqrt(2))


def test_shaped_64qam_moments_and_entropies():
    con, pmf = square_qam(6, amplitude_pmf=PAS_I)
    # raw 1-D second moment: 0.698*1 + 0.263*9 + 0.037*25 + 0.002*49
    assert con.scale**2 / 2 == pytest.approx(4.088, abs=1e-12)
    assert (pmf.p * np.abs(con.points) ** 2).sum() == pytest.approx(1.0, abs=1e-12)
    st = entropy_stats(pmf)
    assert st.h_b == pytest.approx(4.124, abs=0.002)
    assert st.sum_h_bi == pytest.approx(4.238, abs=0.002)
    assert st.shaping_gap > 0


def test_shaped_priors():
    _, pmf = square_qam(6, amplitude_pmf=PAS_I)
    pri = pmf.log_priors
    assert pri[0] == 0.0   # sign tributary stays uniform
    # amplitude-bit marginals follow from the Gray grouping {1,3} / {3,5}
    assert pri[1] == pytest.approx(np.log(0.039 / 0.961), abs=1e-9)
    assert pri[2] == pytest.approx(np.log(0.700 / 0.300), abs=1e-9)


def test_bit_marginal_tributary_pooling():
    _, pmf = square_qam(6, amplitude_pmf=PAS_I)
    bm = pmf.bit_marginals
    assert bm.shape == (6, 2)
    # I and Q positions of one tributary carry identical marginals
    assert np.allclose(bm[:3], bm[3:])


def test_modulate_roundtrip():
    con, pmf = square_qam(4)
    rng = np.random.default_rng(7)
    labels = draw_labels(pmf, 1000, rng)
    bits = con.labels_to_bits(labels)
    assert np.array_equal(con.bits_to_labels(bits), labels)
    assert np.array_equal(con.bits_to_labels(bits.astype(bool)), labels)
    with pytest.raises(ValueError, match="0 or 1"):
        con.bits_to_labels([[2, 0, 0, 0]])
    with pytest.raises(ValueError, match="0 or 1"):
        con.bits_to_labels([[0, -1, 0, 0]])
    for shape in ((1000, 3), (1000, 5), ()):
        with pytest.raises(ValueError, match="0 or 1 on the last axis"):
            con.bits_to_labels(np.zeros(shape, dtype=np.uint8))


@pytest.mark.parametrize("m", [2, 4, 6, 8, 10, 16])
def test_labels_to_bits_equals_the_shift_form(m):
    # the low m bits of any integer label, negative ones included, as the
    # int64 shift-and-mask form gives them
    con, _ = square_qam(m)
    labels = np.random.default_rng(m).integers(-3, 1 << (m + 1), (50, 7))
    ref = ((labels[..., None] >> np.arange(m - 1, -1, -1)) & 1).astype(np.uint8)
    bits = con.labels_to_bits(labels)
    assert bits.dtype == np.uint8 and bits.flags.c_contiguous
    assert np.array_equal(bits, ref)
    assert np.array_equal(con.labels_to_bits(labels[0, 0]), ref[0, 0])
    assert np.array_equal(con.labels_to_bits(labels[0].astype(np.uint16)), ref[0])
    assert np.array_equal(con.labels_to_bits(labels.T), ref.transpose(1, 0, 2))


def test_symbol_pmf_validation():
    with pytest.raises(ValueError):
        SymbolPmf(p_dim=np.array([0.5, 0.6]), bar_m=1)
    with pytest.raises(ValueError):
        SymbolPmf(p_dim=np.array([1.5, -0.5]), bar_m=1)
    with pytest.raises(ValueError):                   # 3 labels for bar_m = 1
        SymbolPmf(p_dim=np.array([0.5, 0.25, 0.25]), bar_m=1)


def test_symbol_pmf_derived_arrays_cached_read_only():
    _, pmf = square_qam(6, amplitude_pmf=PAS_I)
    for name in ("p_dim", "p", "log_p_dim", "bit_marginals", "log_priors"):
        arr = getattr(pmf, name)
        assert arr is getattr(pmf, name)
        with pytest.raises(ValueError):
            arr[0] = 0.5


def _draw_formats():
    yield from (square_qam(m)[1] for m in (2, 4, 6, 8))
    yield from (square_qam(6, amplitude_preset(n))[1] for n in ("i", "ii", "iii"))
    yield square_qam(6, quantize_pmf(amplitude_preset("i"), 1024).pmf)[1]


def test_draw_labels_equals_rng_choice():
    # labels, dtype and the generator's next draw, bucket fallback included
    for pmf in _draw_formats():
        for seed in range(30):
            ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            ref = ref_rng.choice(pmf.p.size, size=5000, p=pmf.p)
            labels = draw_labels(pmf, 5000, rng)
            assert labels.dtype == ref.dtype == np.int64
            assert np.array_equal(labels, ref)
            assert rng.random() == ref_rng.random()


class _FixedVariates:
    def __init__(self, u):
        self.u = u

    def random(self, n):
        assert n == self.u.size
        return self.u


def test_draw_labels_at_cdf_steps_and_bucket_edges():
    # variates on and just below every cdf step and every bucket edge
    _, pmf = square_qam(6, amplitude_pmf=PAS_I)
    cdf = np.cumsum(pmf.p)
    cdf /= cdf[-1]
    edges = np.arange(4097) / 4096
    u = np.concatenate([cdf[:-1], np.nextafter(cdf, 0), edges[:-1], np.nextafter(edges[1:], 0)])
    labels = draw_labels(pmf, u.size, _FixedVariates(u))
    assert np.array_equal(labels, np.searchsorted(cdf, u, side="right"))
    assert (pmf.label_buckets[1] < 0).any()      # some buckets take the search


def test_draw_labels_statistics():
    _, pmf = square_qam(6, amplitude_pmf=PAS_I)
    rng = np.random.default_rng(123)
    labels = draw_labels(pmf, 200_000, rng)
    emp = np.bincount(labels, minlength=64) / labels.size
    assert np.max(np.abs(emp - pmf.p)) < 5e-3
