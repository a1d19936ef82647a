import hashlib
from importlib import resources

import numpy as np
import pytest

from psbicm import ChannelConfig, DemapperConfig, awgn, square_qam
from psbicm.fec import (
    MAPPING_KINDS,
    LdpcCode,
    _flooding,
    _log_tanh,
    apply_mapping,
    build_mapping,
    decode,
    encode,
    generate_code,
    invert_mapping,
    read_alist,
    reference_code,
    write_alist,
)
from psbicm.pas import frame_lvalues, transmit
from psbicm.shaping import amplitude_preset, quantize_pmf


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


def reference_flooding(code, lam, max_iter, unsat=None):
    """Flooding sum-product in the phi form: magnitudes phi(|m_vc|), their
    row sums, and signs applied through np.where.  ``_flooding`` must
    match it bit for bit."""
    def phi(x):
        return -np.log(np.tanh(np.maximum(x, 1e-12) / 2.0))

    starts = code.row_ptr[:-1]
    cols = code.row_cols
    erow = code.edge_row
    m_cv = np.zeros(cols.size)
    for it in range(max_iter + 1):
        totals = lam + np.bincount(cols, weights=m_cv, minlength=code.n)
        hard = (totals < 0).astype(np.uint8)
        checks = np.bitwise_xor.reduceat(hard[cols], starts)
        if not checks.any() and np.all(totals != 0):
            return hard, it, True
        if unsat is not None:
            unsat += np.bincount(cols, weights=checks[erow], minlength=code.n)
        if it == max_iter:
            return hard, max_iter, False
        m_vc = totals[cols] - m_cv
        mag = phi(np.abs(m_vc))
        neg = (m_vc < 0).astype(np.uint8)
        row_mag = np.add.reduceat(mag, starts)
        row_neg = np.bitwise_xor.reduceat(neg, starts)
        ext_neg = row_neg[erow] ^ neg
        m_cv = np.where(ext_neg == 1, -1.0, 1.0) * phi(row_mag[erow] - mag)


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


def code_from_rows(rows, n, name="custom"):
    """LdpcCode from per-row column lists."""
    edges = [(r, c) for r, cols in enumerate(rows) for c in cols]
    return LdpcCode.from_edges(name, n, len(rows), *zip(*edges))


def toy_code():
    """Hand-built n=8, k=4 staircase code for exhaustive checks."""
    rows = [[0, 1, 4], [1, 2, 4, 5], [2, 3, 5, 6], [3, 0, 6, 7]]
    return code_from_rows(rows, 8, name="toy8")


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
    assert (fs1 % 3 + 1).tolist() == [3, 3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1]
    fs2 = build_mapping("fs2", 12, 8, 3)
    assert (fs2 % 3 + 1).tolist() == [3, 2, 3, 2, 3, 2, 3, 2, 1, 1, 1, 1]
    # codeword position 0 fills the tributary-3 slot of the first symbol
    slots = apply_mapping(np.arange(12), fs1)
    assert slots.tolist() == [8, 4, 0, 9, 5, 1, 10, 6, 2, 11, 7, 3]


def test_mapping_counts_and_sign_block():
    for kind, seed in (("fs1", None), ("fs2", None), ("fu", 5), ("r", 9)):
        perm = build_mapping(kind, 24, 16, 3, seed=seed)
        assert np.array_equal(np.sort(perm), np.arange(24))
        tributary = perm % 3 + 1
        counts = np.bincount(tributary, minlength=4)[1:]
        assert counts.tolist() == [8, 8, 8]
        assert np.all(tributary[-8:] == 1)
    a = build_mapping("fu", 24, 16, 3, seed=5)
    b = build_mapping("fu", 24, 16, 3, seed=6)
    c = build_mapping("fu", 24, 16, 3, seed=5)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, c)


def loop_slot_permutation(tributary, bar_m):
    """Slot of each codeword position, one tributary at a time: the
    positions of tributary t fill its slots u*bar_m + (t-1) in order."""
    occ = np.empty(tributary.size, dtype=np.int64)
    for t in range(1, bar_m + 1):
        idx = np.flatnonzero(tributary == t)
        occ[idx] = np.arange(idx.size)
    return occ * bar_m + (tributary - 1)


def test_mapping_permutation_equals_per_tributary_loop():
    for bar_m in range(1, 5):
        for block in (1, 3, 8, 21):
            n = bar_m * block
            for kind in MAPPING_KINDS:
                for seed in (0, 1, 17, 2**31 - 1):
                    perm = build_mapping(kind, n, n - block, bar_m, seed=seed)
                    ref = loop_slot_permutation(perm % bar_m + 1, bar_m)
                    assert perm.dtype == np.int64 and np.array_equal(perm, ref)


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
    perms = np.stack([build_mapping("r", 12, 8, 3, seed=s) for s in (1, 2)])
    with pytest.raises(ValueError, match="one row per mapping"):
        apply_mapping(np.zeros((3, 12)), perms)
    with pytest.raises(ValueError, match="one row per mapping"):
        invert_mapping(np.zeros(12), perms)
    with pytest.raises(ValueError, match="mapping size"):
        invert_mapping(np.zeros((2, 11)), perms)


def test_per_row_mappings_equal_row_by_row():
    rng = np.random.default_rng(8)
    perms = np.stack([build_mapping("r", 24, 18, 4, seed=s) for s in range(5)])
    x = rng.standard_normal((5, 24))
    slots = apply_mapping(x, perms)
    for row, perm, got in zip(x, perms, slots):
        assert np.array_equal(apply_mapping(row, perm), got)
    assert np.array_equal(invert_mapping(slots, perms), x)
    # one mapping applies to every row
    assert np.array_equal(apply_mapping(x, perms[0]), apply_mapping(x, perms[[0] * 5]))


def test_mapping_roundtrip_property():
    rng = np.random.default_rng(3)
    for trial in range(1000):
        bar_m = int(rng.integers(2, 5))
        n = bar_m * int(rng.integers(2, 7))
        kind = ("fs1", "fs2", "fu", "r")[trial % 4]
        seed = int(rng.integers(1 << 30)) if kind in ("fu", "r") else None
        perm = build_mapping(kind, n, n - n // bar_m, bar_m, seed=seed)
        x = rng.standard_normal(n)
        assert np.array_equal(invert_mapping(apply_mapping(x, perm), perm), x)
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
    # toy_code's parity part with one edge moved or added; a duplicated
    # edge is no code at all
    for rows in ([[0, 1, 5], [1, 2, 4, 5], [2, 3, 5, 6], [3, 0, 6, 7]],
                 [[0, 1, 4], [1, 2, 4, 5], [2, 3, 5, 6], [3, 0, 4, 6, 7]],
                 [[0, 1, 4, 7], [1, 2, 4, 5], [2, 3, 5, 6], [3, 0, 6, 7]]):
        code = code_from_rows(rows, 8)
        assert code.encoder is None
        with pytest.raises(ValueError, match="no systematic encoder"):
            encode(code, np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError, match="same column twice"):
        code_from_rows([[0, 1, 4], [1, 2, 4, 5, 5], [2, 3, 5, 6], [3, 0, 6, 7]], 8)
    assert toy_code().encoder == "staircase"


def test_from_edges_sorts_and_rejects():
    toy = toy_code()
    rows, cols = toy.edge_row, toy.row_cols
    order = np.random.default_rng(3).permutation(rows.size)
    code = LdpcCode.from_edges("toy8", 8, 4, rows[order], cols[order])
    assert np.array_equal(code.row_ptr, toy.row_ptr)
    assert np.array_equal(code.row_cols, toy.row_cols)
    with pytest.raises(ValueError, match="out of range"):
        LdpcCode.from_edges("x", 8, 4, rows, np.where(cols == 7, 8, cols))
    with pytest.raises(ValueError, match="out of range"):
        LdpcCode.from_edges("x", 8, 3, rows, cols)
    with pytest.raises(ValueError, match="at least one column"):
        LdpcCode.from_edges("x", 8, 5, rows, cols)


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


def encode_per_edge(code, info):
    """Staircase encoding as one edge at a time: s_j summed with np.add.at."""
    s = np.zeros(code.n_rows, dtype=np.int64)
    info_edges = code.row_cols < code.k
    np.add.at(s, code.edge_row[info_edges], info[code.row_cols[info_edges]])
    return np.concatenate([info, np.bitwise_xor.accumulate((s & 1).astype(np.uint8))])


def test_batched_encode_equals_per_row_encode():
    # rows 1 and 3 of the hand-built staircase carry no info edge; the
    # last one starts past the end of the info edges
    k = 2
    gappy = code_from_rows(
        [[0, k], [k, k + 1], [1, k + 1, k + 2], [k + 2, k + 3]], k + 4, name="gappy")
    assert gappy.encoder == "staircase"
    rng = np.random.default_rng(21)
    for code in (gappy, toy_code(), generate_code(96, "2/3", seed=29), reference_code()):
        info = rng.integers(0, 2, (2, 5, code.k), dtype=np.uint8)
        cw = encode(code, info)
        assert cw.dtype == np.uint8 and cw.shape == (2, 5, code.n)
        for row, word in zip(info.reshape(-1, code.k), cw.reshape(-1, code.n)):
            assert np.array_equal(encode(code, row), word)
            assert np.array_equal(encode_per_edge(code, row), word)
            assert not parity_checks(code, word).any()
    with pytest.raises(ValueError):
        encode(gappy, np.zeros((3, k + 1), dtype=np.uint8))


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


def test_phi_floor_equals_the_clip_form():
    # check inputs row_mag - mag can round to 0, -0.0 or a tiny negative;
    # the log-tanh helper is -phi, bit for bit, signed zeros included
    tiny = np.nextafter(0.0, 1.0)
    x = np.array([0.0, -0.0, -tiny, tiny, -1e-300, -1e-17, -2.2e-16, 1e-13,
                  np.nextafter(1e-12, 0.0), 1e-12, np.nextafter(1e-12, 1.0),
                  1e-6, 0.5, 3.0, 40.0, 1e300])
    phi = -np.log(np.tanh(np.clip(x, 1e-12, None) / 2.0))
    lt = _log_tanh(x.copy())
    assert np.array_equal(lt.view(np.uint64), (-phi).view(np.uint64))


def _oracle_frames():
    """(code, L-values, max_iter) cases for the flooding oracle test."""
    cases = []
    code = reference_code()
    con, pmf = square_qam(6)
    frames = transmit(code, con, pmf, 30, mapping="fs1", seed=3)
    y = np.stack([awgn(con.points[lab], ChannelConfig(11.0, seed=3, block_id=f))
                  for f, lab in enumerate(frames.labels)])
    _, lam = frame_lvalues(y, frames.perms, con, pmf, DemapperConfig(assumed_snr_db=11.0))
    cases += [(code, row, 60) for row in lam]

    code = generate_code(1008, "2/3")
    comp = quantize_pmf(amplitude_preset("i"), 1024)
    con, pmf = square_qam(6, amplitude_pmf=comp.pmf)
    frames = transmit(code, con, pmf, 20, composition=comp, mapping="r",
                      mapping_seed=4, seed=4)
    y = np.stack([awgn(con.points[lab], ChannelConfig(8.0, seed=4, block_id=f))
                  for f, lab in enumerate(frames.labels)])
    _, lam = frame_lvalues(y, frames.perms, con, pmf, DemapperConfig(assumed_snr_db=8.0))
    cases += [(code, row, 200) for row in lam]

    for code in (reference_code(), generate_code(96, "1/2", seed=11)):
        sign = np.where(np.arange(code.n) % 3 == 0, -1.0, 1.0)
        for lam in (np.zeros(code.n), np.full(code.n, -0.0), np.full(code.n, 40.0),
                    np.full(code.n, -40.0), 40.0 * sign, 0.0 * sign):
            cases += [(code, lam, 7)]
    return cases


def test_flooding_equals_the_phi_domain_loop():
    # bit for bit under IEEE round-to-nearest, so checked against the phi
    # form at run time rather than against a stored hash (SIMD tanh and
    # log differ across CPUs)
    outcomes = set()
    for code, lam, max_iter in _oracle_frames():
        u_new, u_ref = np.zeros(code.n), np.zeros(code.n)
        hard, it, ok = _flooding(code, lam, max_iter, u_new)
        ref_hard, ref_it, ref_ok = reference_flooding(code, lam, max_iter, u_ref)
        assert np.array_equal(hard, ref_hard)
        assert (it, ok) == (ref_it, ref_ok)
        assert np.array_equal(u_new, u_ref)
        if max_iter == 60:
            outcomes.add(ok)
    # some of the uniform frames exhaust their 60 iterations, some converge
    assert outcomes == {True, False}


def test_decode_rejects_nonfinite_lvalues():
    code = reference_code()
    one_nan, one_inf = np.full(code.n, 5.0), np.full(code.n, 5.0)
    one_nan[17] = np.nan
    one_inf[3] = -np.inf
    for lam, bad in ((np.full(code.n, np.nan), code.n), (one_nan, 1), (one_inf, 1),
                     (np.full(code.n, np.inf), code.n), (np.full(code.n, -np.inf), code.n)):
        for restarts in (0, 3):
            with pytest.raises(ValueError, match=f"{bad} of {code.n} L-values are NaN or infinite"):
                decode(code, lam, restarts=restarts)


def test_restarts_recover_a_frame_flooding_bp_fails():
    # block 87 of criterion 09's fs1 stream at 12.0 dB (seed 51): flooding
    # BP stops on 59 wrong info bits after 200 iterations, the restart
    # search returns the sent codeword
    code = reference_code()
    con, pmf = square_qam(6)
    frames = transmit(code, con, pmf, 88, mapping="fs1", mapping_seed=7, seed=51)
    codeword = frames.codewords[87]
    y = awgn(con.points[frames.labels[87]], ChannelConfig(12.0, seed=51, block_id=87))
    _, lam = frame_lvalues(y, frames.perms[87], con, pmf, DemapperConfig(assumed_snr_db=12.0))
    first = decode(code, lam, max_iter=200)
    assert not first.converged and first.iterations == 200
    assert np.count_nonzero(first.info != codeword[:code.k]) == 59
    res = decode(code, lam, max_iter=200, restarts=400)
    assert res.converged and 1 <= res.restarts <= 400
    assert np.array_equal(res.codeword, codeword)


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
    # row 1 lists no column
    p3.write_text("2 2\n1 2\n1 1\n2 0\n1\n1\n1 2\n")
    with pytest.raises(ValueError, match="at least one column"):
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
        perm = build_mapping(kind, n, n - n // 3, 3, seed=seed)
        la_perm = apply_mapping(la, perm)
        assert abs(1.0 - float(np.mean(soft_bit_cost(la_perm))) - base_asi) < 1e-12
        assert float(np.mean(la_perm < 0)) == base_ber
