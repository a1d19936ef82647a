import hashlib
from importlib import resources

import numpy as np
import pytest

from psbicm import ChannelConfig, DemapperConfig, awgn, square_qam
from psbicm.fec import (
    HD_FEC_THRESHOLD,
    BitMapping,
    LdpcCode,
    apply_mapping,
    build_mapping,
    decode,
    encode,
    generate_code,
    invert_mapping,
    post_fec_ber,
    read_alist,
    reference_code,
    write_alist,
)
from psbicm.pas import PasStream, frame_lvalues


def reference_bp(rows, lam, max_iter=50):
    """Plain tanh-product sum-product decoder, loops and dicts only."""
    lam = list(map(float, lam))
    n = len(lam)
    m_cv = {(r, c): 0.0 for r, cols in enumerate(rows) for c in cols}
    col_rows = [[] for _ in range(n)]
    for r, cols in enumerate(rows):
        for c in cols:
            col_rows[c].append(r)

    def totals():
        return [lam[c] + sum(m_cv[(r, c)] for r in col_rows[c]) for c in range(n)]

    def satisfied(hard):
        return all(sum(hard[c] for c in cols) % 2 == 0 for cols in rows)

    tot = totals()
    for it in range(max_iter + 1):
        hard = [1 if t < 0 else 0 for t in tot]
        if satisfied(hard) and all(t != 0 for t in tot):
            return hard, it, True
        if it == max_iter:
            return hard, max_iter, False
        m_vc = {(r, c): tot[c] - m_cv[(r, c)] for (r, c) in m_cv}
        for r, cols in enumerate(rows):
            th = {c: np.tanh(np.clip(m_vc[(r, c)] / 2, -19.0, 19.0)) for c in cols}
            for c in cols:
                prod = 1.0
                for c2 in cols:
                    if c2 != c:
                        prod *= th[c2]
                prod = min(max(prod, -1 + 1e-12), 1 - 1e-12)
                m_cv[(r, c)] = 2.0 * np.arctanh(prod)
        tot = totals()


def parity_checks(code, bits):
    """Per-check parity of a bit vector; all zero iff it is a codeword."""
    bits = np.asarray(bits, dtype=np.uint8)
    return np.bitwise_xor.reduceat(bits[code.row_cols], code.row_ptr[:-1])


def gf2_rank(code):
    """Rank of the parity-check matrix over GF(2), python ints as bit rows."""
    pivots = {}
    for r in range(code.n_rows):
        v = 0
        for c in code.row_cols[code.row_ptr[r]:code.row_ptr[r + 1]]:
            v ^= 1 << int(c)
        while v and v.bit_length() - 1 in pivots:
            v ^= pivots[v.bit_length() - 1]
        if v:
            pivots[v.bit_length() - 1] = v
    return len(pivots)


def toy_code():
    """Hand-built n=8, k=4 staircase code for exhaustive checks."""
    rows = [[0, 1, 4], [1, 2, 4, 5], [2, 3, 5, 6], [3, 0, 6, 7]]
    return LdpcCode.from_row_lists(rows, 8, name="toy8")


def assert_same_decode(a, b):
    assert np.array_equal(a.codeword, b.codeword)
    assert (a.iterations, a.converged, a.k, a.restarts) == \
        (b.iterations, b.converged, b.k, b.restarts)


def code_rows(code):
    return [
        code.row_cols[code.row_ptr[r]:code.row_ptr[r + 1]].tolist()
        for r in range(code.n_rows)
    ]


def test_mapping_patterns_n12():
    fs1 = build_mapping("fs1", 12, 8, 3)
    assert fs1.mapping.tolist() == [3, 3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1]
    fs2 = build_mapping("fs2", 12, 8, 3)
    assert fs2.mapping.tolist() == [3, 2, 3, 2, 3, 2, 3, 2, 1, 1, 1, 1]
    # codeword position 0 fills the tributary-3 slot of the first symbol
    slots = apply_mapping(np.arange(12), fs1)
    assert slots.tolist() == [8, 4, 0, 9, 5, 1, 10, 6, 2, 11, 7, 3]


def test_mapping_counts_and_sign_block():
    for kind, seed in (("fs1", None), ("fs2", None), ("fu", 5), ("r", 9)):
        bm = build_mapping(kind, 24, 16, 3, seed=seed)
        counts = np.bincount(bm.mapping, minlength=4)[1:]
        assert counts.tolist() == [8, 8, 8]
        assert np.all(bm.mapping[-8:] == 1)
    a = build_mapping("fu", 24, 16, 3, seed=5)
    b = build_mapping("fu", 24, 16, 3, seed=6)
    c = build_mapping("fu", 24, 16, 3, seed=5)
    assert not np.array_equal(a.mapping, b.mapping)
    assert np.array_equal(a.mapping, c.mapping)


def test_mapping_validation():
    with pytest.raises(ValueError):
        build_mapping("fs1", 13, 9, 3)
    # parity block n - k = 10 exceeds the n/bar_m = 8 sign slots
    with pytest.raises(ValueError):
        build_mapping("fs1", 24, 14, 3)
    build_mapping("fs1", 24, 14, 3, pas=False)
    with pytest.raises(ValueError):
        build_mapping("zigzag", 12, 8, 3)
    with pytest.raises(ValueError):
        build_mapping("fu", 12, 8, 3)   # seed required
    with pytest.raises(ValueError):
        BitMapping(np.array([1, 1, 2, 2]), "fs1", 2)   # trailing block not all 1


def test_mapping_roundtrip_property():
    rng = np.random.default_rng(3)
    for trial in range(1000):
        bar_m = int(rng.integers(2, 5))
        n = bar_m * int(rng.integers(2, 7))
        kind = ("fs1", "fs2", "fu", "r")[trial % 4]
        seed = int(rng.integers(1 << 30)) if kind in ("fu", "r") else None
        bm = build_mapping(kind, n, n - n // bar_m, bar_m, seed=seed)
        x = rng.standard_normal(n)
        assert np.array_equal(invert_mapping(apply_mapping(x, bm), bm), x)
    with pytest.raises(ValueError):
        apply_mapping(np.zeros(5), build_mapping("fs1", 12, 8, 3))


def test_generated_code_structure_all_rates():
    for rate, n in [("1/3", 144), ("1/2", 96), ("2/3", 144),
                    ("3/4", 192), ("5/6", 288), ("9/10", 960)]:
        code = generate_code(n, rate, seed=2)
        num, den = map(int, rate.split("/"))
        assert code.n == n and code.k * den == n * num
        assert gf2_rank(code) == code.n_rows       # staircase: full rank
        assert code.encoder == "staircase"
        assert code.col_degrees[:code.k].min() >= 3
        h = code.to_dense().astype(np.int64)
        overlap = h @ h.T
        np.fill_diagonal(overlap, 0)
        assert overlap.max() <= 1                  # no 4-cycles
        info = np.random.default_rng(4).integers(0, 2, code.k).astype(np.uint8)
        assert not parity_checks(code, encode(code, info)).any()


def test_non_staircase_parity_has_no_encoder():
    # toy_code's parity part with one edge moved, added or duplicated
    for rows in ([[0, 1, 5], [1, 2, 4, 5], [2, 3, 5, 6], [3, 0, 6, 7]],
                 [[0, 1, 4], [1, 2, 4, 5], [2, 3, 5, 6], [3, 0, 4, 6, 7]],
                 [[0, 1, 4, 7], [1, 2, 4, 5], [2, 3, 5, 6], [3, 0, 6, 7]],
                 [[0, 1, 4], [1, 2, 4, 5, 5], [2, 3, 5, 6], [3, 0, 6, 7]]):
        code = LdpcCode.from_row_lists(rows, 8)
        assert code.encoder is None
        with pytest.raises(ValueError, match="no systematic encoder"):
            encode(code, np.zeros(4, dtype=np.uint8))
    assert toy_code().encoder == "staircase"


def test_generate_code_rejects_bad_geometry():
    with pytest.raises(ValueError):
        generate_code(20, "1/2")           # 10 has no f giving >=3 classes, z>=8
    with pytest.raises(ValueError):
        generate_code(96, "7/8")
    with pytest.raises(ValueError):
        generate_code(97, "1/2")


def test_encode_linearity_and_systematic():
    code = generate_code(96, "1/2", seed=11)
    rng = np.random.default_rng(12)
    assert not encode(code, np.zeros(code.k, dtype=np.uint8)).any()
    a = rng.integers(0, 2, code.k).astype(np.uint8)
    b = rng.integers(0, 2, code.k).astype(np.uint8)
    ca, cb = encode(code, a), encode(code, b)
    assert np.array_equal(ca[:code.k], a)
    assert not parity_checks(code, ca ^ cb).any()
    with pytest.raises(ValueError):
        encode(code, a[:-1])


def test_decode_saturated_and_single_flip():
    code = reference_code()
    rng = np.random.default_rng(13)
    info = rng.integers(0, 2, code.k).astype(np.uint8)
    cw = encode(code, info)
    lam = np.where(cw == 0, 40.0, -40.0)
    res = decode(code, lam)
    assert res.converged and res.iterations <= 1
    assert np.array_equal(res.info, info)
    assert_same_decode(decode(code, lam, restarts=400), res)

    lam[321] = -lam[321]
    res = decode(code, lam)
    assert res.converged and np.array_equal(res.codeword, cw)
    assert_same_decode(decode(code, lam, restarts=400), res)
    # independent loop-based sum-product agrees
    hard, _, conv = reference_bp(code_rows(code), lam, max_iter=10)
    assert conv and np.array_equal(hard, cw)


def test_decode_all_zero_lvalues_not_converged():
    code = generate_code(96, "1/2", seed=11)
    res = decode(code, np.zeros(code.n), max_iter=7)
    assert not res.converged
    assert res.iterations == 7
    assert res.restarts == 0
    # every rerun leaves unpinned positions at a zero total: the search
    # spends its whole budget and returns the first run's decisions
    res = decode(code, np.zeros(code.n), max_iter=7, restarts=3)
    assert not res.converged
    assert res.restarts == 3 and res.iterations == 7 * 4
    assert not res.codeword.any()


def test_decode_matches_reference_bp_on_noise():
    code = generate_code(96, "1/2", seed=11)
    rng = np.random.default_rng(17)
    rows = code_rows(code)
    agreements = 0
    for _ in range(10):
        info = rng.integers(0, 2, code.k).astype(np.uint8)
        cw = encode(code, info)
        sigma = 0.75
        y = (1.0 - 2.0 * cw) + sigma * rng.standard_normal(code.n)
        lam = 2.0 * y / sigma**2
        ours = decode(code, lam, max_iter=30)
        if ours.converged:
            assert_same_decode(decode(code, lam, max_iter=30, restarts=50), ours)
        ref_hard, _, ref_conv = reference_bp(rows, lam, max_iter=30)
        if ours.converged and ref_conv:
            assert np.array_equal(ours.codeword, ref_hard)
            agreements += 1
    assert agreements >= 5      # the SNR is high enough that most converge


def test_decoder_corrects_moderate_noise():
    code = reference_code()
    rng = np.random.default_rng(19)
    failures = 0
    for _ in range(10):
        info = rng.integers(0, 2, code.k).astype(np.uint8)
        cw = encode(code, info)
        sigma = 0.72                     # ~2.9 dB Eb/N0 at rate 1/2
        y = (1.0 - 2.0 * cw) + sigma * rng.standard_normal(code.n)
        res = decode(code, 2.0 * y / sigma**2)
        if not (res.converged and np.array_equal(res.codeword, cw)):
            failures += 1
        assert_same_decode(decode(code, 2.0 * y / sigma**2, restarts=400), res)
    assert failures == 0


def test_restarts_converge_only_to_codewords():
    # at this noise level flooding BP fails on most frames; a restart may
    # then converge to the sent codeword or to another one, but a
    # converged result always has a zero syndrome
    code = generate_code(96, "1/2", seed=11)
    rng = np.random.default_rng(29)
    sigma = 0.95
    outcomes = set()
    for _ in range(10):
        cw = encode(code, rng.integers(0, 2, code.k).astype(np.uint8))
        lam = 2.0 * ((1.0 - 2.0 * cw) + sigma * rng.standard_normal(code.n)) / sigma**2
        first = decode(code, lam, max_iter=30)
        res = decode(code, lam, max_iter=30, restarts=50)
        if first.converged:
            assert_same_decode(res, first)
            continue
        assert 1 <= res.restarts <= 50
        assert res.iterations > first.iterations
        if res.converged:
            assert not parity_checks(code, res.codeword).any()
        else:
            assert res.restarts == 50
            assert np.array_equal(res.codeword, first.codeword)
        outcomes.add((res.converged, bool(np.array_equal(res.codeword, cw))))
    # rescued, converged to another codeword, and exhausted all occur
    assert outcomes >= {(True, True), (True, False), (False, False)}


def test_restarts_recover_a_frame_flooding_bp_fails():
    # block 87 of criterion 09's fs1 stream at 12.0 dB (seed 51): flooding
    # BP stops on 59 wrong info bits after 200 iterations, the restart
    # search returns the sent codeword
    code = reference_code()
    con, pmf = square_qam(6)
    stream = PasStream(code, con, pmf, mapping="fs1", mapping_seed=7, seed=51)
    for _ in range(88):
        frame = stream.next_frame()
    y = awgn(con.points[frame.labels], ChannelConfig(12.0, seed=51, block_id=87))
    lam = frame_lvalues(y, frame.mapping, con, pmf, DemapperConfig(assumed_snr_db=12.0))
    first = decode(code, lam, max_iter=200)
    assert not first.converged and first.iterations == 200
    assert np.count_nonzero(first.info != frame.codeword[:code.k]) == 59
    res = decode(code, lam, max_iter=200, restarts=400)
    assert res.converged and 1 <= res.restarts <= 400
    assert np.array_equal(res.codeword, frame.codeword)


def test_restart_budget_validation():
    code = toy_code()
    lam = np.ones(code.n)
    for bad in (-1, 2.5, 3.0, "3", None, True):
        with pytest.raises(ValueError, match="restarts"):
            decode(code, lam, restarts=bad)
        with pytest.raises(ValueError, match="max_iter"):
            decode(code, lam, max_iter=bad)
    assert decode(code, lam, restarts=np.int64(2)).converged
    assert decode(code, lam, max_iter=np.int64(5)).converged
    assert decode(code, lam, max_iter=0).iterations == 0


def test_scaling_invariance_of_ml_objective():
    # the block decoding objective argmax_c sum_j (-1)^{c_j} s_d L_j is
    # invariant to the decoder scaling s_d; verify exhaustively on a toy code
    code = toy_code()
    cws = np.array([encode(code, np.array([(i >> 3) & 1, (i >> 2) & 1,
                                           (i >> 1) & 1, i & 1], dtype=np.uint8))
                    for i in range(16)])
    signs = 1.0 - 2.0 * cws
    rng = np.random.default_rng(23)
    for _ in range(200):
        lam = rng.standard_normal(code.n) * 3.0
        picks = [int(np.argmax(signs @ (sd * lam))) for sd in (0.25, 1.0, 4.0)]
        assert picks[0] == picks[1] == picks[2]


def test_reference_code_properties():
    code = reference_code()
    assert code.n == 1008 and code.k == 504
    assert code.encoder == "staircase" and gf2_rank(code) == 504
    # light columns first, then the heavy tail of the degree profile
    assert code.col_degrees[:code.k].tolist() == [3] * 330 + [10] * 174
    # no two columns share more than one check row (no length-4 cycles)
    h = code.to_dense().astype(np.int64)
    gram = h @ h.T
    np.fill_diagonal(gram, 0)
    assert gram.max() <= 1


def test_reference_code_matches_pinned_file():
    # the shipped alist is frozen: a changed file changes every study that
    # uses the reference code, so it is pinned byte for byte
    data = resources.files("psbicm").joinpath("data/n1008_r12.alist").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "6de70928160639f442ee5bed635df37830d02a46c0c7d6cca0d7fd8125515c42")
    code = reference_code()
    assert code.row_ptr.size == code.n_rows + 1 == 505
    assert code.row_cols.size == 3737


def test_alist_roundtrip(tmp_path):
    code = generate_code(96, "2/3", seed=29)
    p = tmp_path / "code.alist"
    write_alist(code, p)
    back = read_alist(p)
    assert back.n == code.n and back.k == code.k
    assert np.array_equal(back.row_ptr, code.row_ptr)
    assert np.array_equal(back.row_cols, code.row_cols)
    assert back.encoder == "staircase"

    # unpadded variant (no trailing zeros) must parse identically
    toks = p.read_text().split("\n")
    head, body = toks[:4], toks[4:]
    stripped = [" ".join(t for t in line.split() if t != "0") for line in body if line]
    p2 = tmp_path / "plain.alist"
    p2.write_text("\n".join(head + stripped) + "\n")
    again = read_alist(p2)
    assert np.array_equal(again.row_cols, code.row_cols)

    p3 = tmp_path / "trunc.alist"
    p3.write_text("4 2\n1 1\n")
    with pytest.raises(ValueError):
        read_alist(p3)
    p3.write_text("4 99999999999999999999\n1 1\n")
    with pytest.raises(ValueError, match="64-bit integer"):
        read_alist(p3)


def test_alist_rejects_inconsistent_adjacency(tmp_path):
    code = generate_code(96, "1/2")
    p = tmp_path / "code.alist"
    write_alist(code, p)
    lines = p.read_text().split("\n")
    first_row_line = 4 + code.n

    # row 0 lists its first column twice
    bad = list(lines)
    toks = bad[first_row_line].split()
    toks[1] = toks[0]
    bad[first_row_line] = " ".join(toks)
    p.write_text("\n".join(bad))
    with pytest.raises(ValueError, match="same column twice"):
        read_alist(p)

    # column 1 moves one edge to a row that does not list it
    bad = list(lines)
    toks = bad[5].split()
    listed = {int(t) for t in toks}
    toks[0] = str(min(set(range(1, code.n_rows + 1)) - listed))
    bad[5] = " ".join(toks)
    p.write_text("\n".join(bad))
    with pytest.raises(ValueError, match="column lines"):
        read_alist(p)


def test_post_fec_ber_threshold():
    a = np.zeros(100_000, dtype=np.uint8)
    r = post_fec_ber(a, a)
    assert r.ber == 0.0 and r.hd_fec_pass
    b = a.copy()
    b[0] = 1
    r = post_fec_ber(b, a)
    assert r.ber == pytest.approx(1e-5) and r.hd_fec_pass
    c = a.copy()
    c[:10] = 1
    r = post_fec_ber(c, a)
    assert r.ber == pytest.approx(1e-4) and not r.hd_fec_pass
    assert HD_FEC_THRESHOLD == 5e-5


def test_mapping_permutation_keeps_pooled_metrics():
    # permuting (bit, L) pairs through any mapping leaves pooled
    # sample metrics unchanged up to summation order
    from psbicm.metrics import soft_bit_cost

    rng = np.random.default_rng(31)
    n = 1008
    bits = rng.integers(0, 2, n)
    lam = rng.standard_normal(n) * 4 + np.where(bits == 0, 3.0, -3.0)
    la = np.where(bits == 0, lam, -lam)
    base_asi = 1.0 - float(np.mean(soft_bit_cost(la)))
    base_ber = float(np.mean(la < 0))
    for kind, seed in (("fs1", None), ("fs2", None), ("fu", 37)):
        bm = build_mapping(kind, n, n - n // 3, 3, seed=seed)
        la_perm = apply_mapping(la, bm)
        assert abs(1.0 - float(np.mean(soft_bit_cost(la_perm))) - base_asi) < 1e-12
        assert float(np.mean(la_perm < 0)) == base_ber
