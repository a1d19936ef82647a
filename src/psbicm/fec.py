"""Bit-tributary mappings, LDPC codes, and belief-propagation decoding.

A bit mapping is a permutation of codeword positions onto label slots,
which assigns each position to one bit tributary of the underlying PAM
labels; structured (fs1/fs2), per-codeword random (r) and
fixed unstructured (fu) mappings all keep the final n/bar_m positions on
tributary 1, so that with a systematic encoder whose parity block is no
longer than n/bar_m the parity bits land exclusively on sign slots.

Codes are systematic irregular repeat-accumulate constructions: the
information part of the parity-check matrix is built from shifted-identity
(circulant) blocks of size Z with column degree 3, the parity part is the
dual-diagonal accumulator staircase.  The staircase makes the matrix
provably full rank and gives O(n) encoding; circulant shifts are chosen
under explicit girth constraints so the Tanner graph has no 4-cycles.
Matrices round-trip through the standard alist text format and the
package ships one frozen n=1008, rate-1/2 instance for fast studies.

Decoding is flooding-schedule sum-product in the phi domain,
phi(x) = -ln tanh(x/2) being its own inverse.  The check update carries
the log-tanh values ln tanh(x/2) = -phi(x), which give the phi-domain
messages bit for bit without negating them; check magnitudes use
np.add.reduceat row sums and signs use np.bitwise_xor.reduceat parities,
with early exit once the hard decisions satisfy every check.  On frames
that run fails, an optional restart stage (the restart search of
augmented BP, Varnica, Fossorier and Kavcic 2007) pins the variables that
touched the most unsatisfied checks to saturated L-values, one and then
two at a time, and reruns BP; the first rerun whose hard decisions
satisfy every check is returned.  ``decode``'s ``restarts`` argument caps
the reruns per frame; its default 0 is exactly the flooding decoder.
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

# correctable input BER of the outer hard-decision code: a post-FEC BER at
# or below it passes
HD_FEC_THRESHOLD = 5e-5

MAPPING_KINDS = ("fs1", "fs2", "r", "fu")

# supported design rates: numerator/denominator pairs
_RATES = {
    "1/3": (1, 3),
    "1/2": (1, 2),
    "2/3": (2, 3),
    "3/4": (3, 4),
    "5/6": (5, 6),
    "9/10": (9, 10),
}

_REFERENCE_ALIST = "data/n1008_r12.alist"


# --- bit mappings --------------------------------------------------------

def build_mapping(kind, n, k, bar_m, seed=None, pas=True):
    """Construct one of the fs1/fs2/r/fu mappings as its slot permutation.

    Returns ``perm``, int64 of length n: codeword position j goes to slot
    ``perm[j]`` and feeds tributary ``perm[j] % bar_m + 1``.  Slots are
    PAM-symbol major: symbol u holds slots u*bar_m + (t-1) for
    tributaries t = 1..bar_m, and the positions of one tributary fill its
    slots in codeword order.

    In codeword order the tributaries run: fs1 block-contiguous
    [bar_m..bar_m, ..., 1..1]; fs2 cycles [bar_m, bar_m-1, .., 2] before
    the trailing 1-block; r and fu permute fs1's leading block randomly
    (r is meant to be rebuilt with a fresh seed per codeword, fu keeps one
    fixed seed).  Every tributary feeds n/bar_m positions and the last
    n/bar_m positions are all tributary 1, the sign slots.  With ``pas``
    the parity block must fit inside the sign slots: n - k <= n/bar_m.
    """
    kind = kind.lower()
    if kind not in MAPPING_KINDS:
        raise ValueError(f"unknown mapping kind {kind!r}")
    if n % bar_m:
        raise ValueError("bar_m must divide n")
    if pas and n - k > n // bar_m:
        raise ValueError("parity block exceeds the sign slots: need n - k <= n/bar_m")
    block = n // bar_m
    lead = np.repeat(np.arange(bar_m, 1, -1), block)
    if kind == "fs2":
        lead = np.tile(np.arange(bar_m, 1, -1), block)
    elif kind in ("r", "fu"):
        if seed is None:
            raise ValueError(f"{kind} mapping needs a seed")
        lead = np.random.default_rng(seed).permutation(lead)
    tributary = np.concatenate([lead, np.ones(block, dtype=lead.dtype)])
    # the stable sort lists positions tributary by tributary, each in
    # codeword order: the i-th is position i % block of tributary i // block + 1
    i = np.arange(n)
    perm = np.empty(n, dtype=np.int64)
    perm[np.argsort(tributary, kind="stable")] = (i % block) * bar_m + i // block
    return perm


def _slot_index(x, perm):
    """``perm`` broadcast to x's shape: one permutation for every row, or
    a (frames, n) stack with one per row of a 2-D x."""
    perm = np.asarray(perm)
    if perm.ndim == 2 and (x.ndim != 2 or x.shape[0] != perm.shape[0]):
        raise ValueError("need a 2-D array with one row per mapping")
    if x.shape[-1] != perm.shape[-1]:
        raise ValueError("length must equal the mapping size")
    return np.broadcast_to(perm, x.shape)


def apply_mapping(x, perm):
    """Codeword order -> tributary slot order (PAM-symbol major).

    Maps the last axis of x by a ``build_mapping`` permutation of shape
    (n,), or by one per row of a 2-D x, shape (frames, n).
    """
    x = np.asarray(x)
    out = np.empty_like(x)
    np.put_along_axis(out, _slot_index(x, perm), x, axis=-1)
    return out


def invert_mapping(x, perm):
    """Tributary slot order -> codeword order; inverse of apply_mapping."""
    x = np.asarray(x)
    return np.take_along_axis(x, _slot_index(x, perm), axis=-1)


# --- code representation -------------------------------------------------

@dataclass(frozen=True, eq=False)
class LdpcCode:
    """Sparse parity-check matrix in row-adjacency form.

    ``row_cols`` lists the variable columns of each check row
    back-to-back; ``row_ptr`` holds the n_rows+1 segment boundaries.
    ``k`` is the systematic prefix length n - n_rows.
    """

    name: str
    n: int
    k: int
    row_ptr: np.ndarray
    row_cols: np.ndarray

    @property
    def n_rows(self):
        return self.row_ptr.size - 1

    @property
    def rate(self):
        return self.k / self.n

    @cached_property
    def row_degrees(self):
        return np.diff(self.row_ptr)

    @cached_property
    def edge_row(self):
        return np.repeat(np.arange(self.n_rows), self.row_degrees)

    @cached_property
    def col_degrees(self):
        return np.bincount(self.row_cols, minlength=self.n)

    @cached_property
    def encoder(self):
        """"staircase" when the parity columns form the dual-diagonal
        accumulator (enabling ``encode``), else None.

        Parity column k+j must sit in rows j and j+1 only (the last one in
        row n_rows-1 only).  Columns are sorted within rows, so the parity
        edges, in row order, must be (0, k), (1, k), (1, k+1), (2, k+1), ...
        Such a parity part is full rank: the code has exactly 2**k codewords.
        """
        parity = self.row_cols >= self.k
        t = np.arange(2 * self.n_rows - 1)
        if (np.array_equal(self.edge_row[parity], (t + 1) // 2)
                and np.array_equal(self.row_cols[parity] - self.k, t // 2)):
            return "staircase"
        return None

    def to_dense(self):
        h = np.zeros((self.n_rows, self.n), dtype=np.uint8)
        h[self.edge_row, self.row_cols] = 1
        return h

    @classmethod
    def from_edges(cls, name, n, n_rows, rows, cols):
        """Build from (row, column) edge pairs given in any order.

        The edges are sorted once by ``row * n + col``.  An index out of
        range, a row that lists a column twice and an empty row are
        rejected.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if np.any(cols < 0) or np.any(cols >= n):
            raise ValueError("column index out of range")
        keys = np.sort(rows * n + cols)
        # with every column in range, a key is in range iff its row is
        if keys.size and (keys[0] < 0 or keys[-1] >= n_rows * n):
            raise ValueError("row index out of range")
        if np.any(np.diff(keys) == 0):
            raise ValueError("a row lists the same column twice")
        row_deg = np.bincount(rows, minlength=n_rows)
        if np.any(row_deg == 0):
            raise ValueError("every check row needs at least one column")
        row_ptr = np.concatenate([[0], np.cumsum(row_deg)])
        return cls(name=name, n=n, k=n - n_rows, row_ptr=row_ptr, row_cols=keys % n)


# --- quasi-cyclic IRA construction ---------------------------------------

def _candidate_geometries(n, num, den):
    """(block cols, block rows, z) candidates, preferred first.

    Needs >= 3 block rows for column degree 3 and z >= 8 for shift
    diversity; preference is a lifting size near 48, which balances
    girth headroom against block-row count.
    """
    if n % den:
        raise ValueError(f"n must be divisible by {den} for rate {num}/{den}")
    br_base = den - num
    out = []
    for f in range(1, n // den + 1):
        if (n // den) % f:
            continue
        zz = n // (den * f)
        if br_base * f < 3 or zz < 8:
            continue
        out.append((abs(zz - 48), den * f, br_base * f, zz))
    if not out:
        raise ValueError("no block geometry with >= 3 block rows and z >= 8")
    return [(bc, br, zz) for _, bc, br, zz in sorted(out)]


def _leg_rows(classes, shifts, z, q):
    """Check rows of one bit group, shape (z, degree).

    Bit c of a group connects, per leg, to row ((c + u) mod z) * q + v:
    each leg walks one residue class v (mod q) with in-class circulant
    shift u.  Consecutive bits of a group land q rows apart, so the
    parity runs they trigger in the accumulator have length >= q instead
    of 1 -- this row interleaving is what keeps sparse-information
    codewords heavy.
    """
    c = np.arange(z)
    return np.stack(
        [((c + int(u)) % z) * q + int(v) for v, u in zip(classes, shifts)], axis=1
    )


def _accumulated_weight(rows_sorted, m):
    """Parity weight of flips at the given sorted check rows.

    The accumulator chain toggles at each flipped row, so the parity set
    covers the alternating intervals [r_0, r_1), [r_2, r_3), ...; an odd
    flip count leaves the chain set through [r_last, m).
    """
    t = rows_sorted.shape[1]
    hi = t - 1 if t % 2 else t
    w = (rows_sorted[:, 1:hi:2] - rows_sorted[:, 0:hi:2]).sum(axis=1)
    if t % 2:
        w = w + (m - rows_sorted[:, -1])
    return w


def _pair_weights(rows_a, rows_b, m):
    """Codeword weights for every 2-info-bit pairing of rows_a x rows_b.

    Duplicated rows cancel to zero-length intervals automatically.
    """
    na, nb = rows_a.shape[0], rows_b.shape[0]
    merged = np.concatenate(
        [np.repeat(rows_a, nb, axis=0), np.tile(rows_b, (na, 1))], axis=1
    )
    merged.sort(axis=1)
    return 2 + _accumulated_weight(merged, m)


def _group_passes(cand, placed, m, w_floor):
    """Weight screen for one candidate bit group against placed groups.

    cand holds the sorted check rows of the group's z bits; rejected when
    any single bit, any pair within the group, or any pair with an
    already placed bit would give a codeword lighter than w_floor.
    """
    if (1 + _accumulated_weight(cand, m)).min() < w_floor:
        return False
    i, j = np.triu_indices(cand.shape[0], k=1)
    merged = np.sort(np.concatenate([cand[i], cand[j]], axis=1), axis=1)
    if (2 + _accumulated_weight(merged, m)).min() < w_floor:
        return False
    for other in placed:
        if _pair_weights(cand, other, m).min() < w_floor:
            return False
    return True


def _group_degrees(info_groups, q, num, den):
    """Information-column degree per bit group, heavy groups first.

    The staircase already contributes the degree-1/2 mass, so the
    threshold is set by the information side: a fraction of groups at a
    high degree and the rest at 3, in proportions that track deployed
    irregular accumulator profiles for each rate.  Geometries with few
    residue classes fall back to all-3: a heavy group must leave at
    least two classes unused or the shift search has no freedom left.
    """
    high, frac = {
        (1, 3): (12, 0.25), (1, 2): (8, 0.40), (2, 3): (12, 0.17),
        (3, 4): (12, 0.15), (5, 6): (13, 0.12), (9, 10): (4, 0.18),
    }[(num, den)]
    high = min(high, q - 2)
    if high <= 3:
        return [3] * info_groups
    n_high = int(round(frac * info_groups))
    return [high] * n_high + [3] * (info_groups - n_high)


def _pick_classes(q, deg, used, rng, samples=8):
    """Class combination for one group, preferring unloaded class pairs."""
    if deg >= q:
        return np.arange(q)
    best = None
    for _ in range(samples):
        classes = np.sort(rng.choice(q, size=deg, replace=False))
        load = sum(
            len(used.get((int(classes[a]), int(classes[b])), ()))
            for a in range(deg) for b in range(a + 1, deg)
        )
        if best is None or load < best[0]:
            best = (load, classes)
    return best[1]


def _pick_shifts(classes, used, z, q, rng):
    """Sequentially choose in-class shifts against the remaining budget.

    For each class the banned shifts are derived from already chosen
    legs: repeats of a consumed shift difference (cross-group 4-cycle),
    equal shifts on consecutive classes, and the difference-1 wrap of
    the (0, q-1) pair (both put one bit on two consecutive check rows).
    Returns None when a class has no shift left.
    """
    deg = classes.size
    shifts = np.empty(deg, dtype=np.int64)
    for j in range(deg):
        cj = int(classes[j])
        ok = np.ones(z, dtype=bool)
        for i in range(j):
            ci, ui = int(classes[i]), int(shifts[i])
            for d in used.get((ci, cj), ()):
                ok[(ui - d) % z] = False
            if cj == ci + 1:
                ok[ui] = False
            if (ci, cj) == (0, q - 1):
                ok[(ui - 1) % z] = False
        cand = np.flatnonzero(ok)
        if cand.size == 0:
            return None
        shifts[j] = int(rng.choice(cand))
    return shifts


def _search_layout(bc, br, z, rng, degrees, restarts=8, group_tries=300):
    """Draw class/shift placements satisfying girth and weight screens.

    Returns a list of (classes, shifts) per information bit group, or
    None when the geometry cannot be satisfied.  A group's legs sit in
    distinct residue classes, so no two legs of a group can collide and
    cross-group 4-cycles reduce to repeated in-class shift differences
    per class pair.  Staircase 4-cycles need a bit covering two
    consecutive rows, i.e. equal in-class shifts on consecutive classes
    (or u_first = u_last + 1 across the row-index wrap), and are
    excluded the same way.
    """
    q = br
    m = q * z
    # short parity chains cannot support the 2 + 2q target, so cap by m
    w_floor = max(6, min(2 + 2 * q, m // 12))
    for _ in range(restarts):
        used = {}                           # (v1, v2) -> set of shift diffs
        layout = []
        placed_rows = []
        for deg in degrees:
            hit = False
            for _try in range(group_tries):
                classes = _pick_classes(q, deg, used, rng)
                shifts = _pick_shifts(classes, used, z, q, rng)
                if shifts is None:
                    continue
                cand = np.sort(_leg_rows(classes, shifts, z, q), axis=1)
                if not _group_passes(cand, placed_rows, m, w_floor):
                    continue
                for a in range(deg):
                    for b in range(a + 1, deg):
                        pair = (int(classes[a]), int(classes[b]))
                        used.setdefault(pair, set()).add(int((shifts[a] - shifts[b]) % z))
                layout.append((classes, shifts))
                placed_rows.append(cand)
                hit = True
                break
            if not hit:
                layout = None
                break
        if layout is not None:
            return layout
    return None


def generate_code(n, rate, seed=0):
    """Generate a quasi-cyclic IRA code of length n at the given rate.

    ``rate`` is one of {1/3, 1/2, 2/3, 3/4, 5/6, 9/10} (string or float).
    Information bits are organized in groups of Z; each group gets
    degree-1 legs in distinct row-residue classes mod q (q = rows / Z),
    so consecutive bits of a group land q rows apart and their parity
    runs through the accumulator stay long.  Group degrees follow a
    rate-dependent irregular profile (most groups at 3, a fraction
    higher) when the geometry has enough classes.  Class/shift draws
    come from a seeded generator and are re-drawn until the girth
    constraints hold (distinct in-class shift differences per class
    pair, no bit covering two consecutive rows) and every 1- and
    2-info-bit codeword clears a weight floor scaled to q, which removes
    the construction's dominant undetected-error words.
    """
    if not isinstance(rate, str):
        matches = [s for s, (p, q) in _RATES.items() if abs(rate - p / q) < 1e-9]
        if not matches:
            raise ValueError(f"unsupported rate {rate!r}")
        rate = matches[0]
    if rate not in _RATES:
        raise ValueError(f"unsupported rate {rate!r}")
    num, den = _RATES[rate]
    rng = np.random.default_rng(seed)
    layout = None
    for bc, br, z in _candidate_geometries(n, num, den):
        degrees = _group_degrees(bc - br, br, num, den)
        layout = _search_layout(bc, br, z, rng, degrees)
        if layout is not None:
            break
    if layout is None:
        raise ValueError("could not satisfy girth and weight constraints; "
                         "try a different n")
    n_rows = br * z
    k = n - n_rows

    # bit c of group g sits in column g*z + c, one edge per leg; then the
    # accumulator staircase: parity column k+j in rows j and j+1
    legs = [_leg_rows(classes, shifts, z, br) for classes, shifts in layout]
    info_cols = [np.repeat(g * z + np.arange(z), leg.shape[1]) for g, leg in enumerate(legs)]
    j = np.arange(n_rows)
    rows = np.concatenate([leg.ravel() for leg in legs] + [j, j[1:]])
    cols = np.concatenate(info_cols + [k + j, k + j[:-1]])
    name = f"qcira_n{n}_r{rate.replace('/', '')}_z{z}_s{seed}"
    return LdpcCode.from_edges(name, n, n_rows, rows, cols)


# --- alist I/O -----------------------------------------------------------

def write_alist(code, path):
    """Write the parity-check matrix in standard alist text format.

    Layout: "n_cols n_rows", max degrees, per-column and per-row degree
    lists, then 1-indexed adjacency lines padded with zeros.
    """
    n, n_rows = code.n, code.n_rows
    col_lists = [[] for _ in range(n)]
    for r in range(n_rows):
        for c in code.row_cols[code.row_ptr[r]:code.row_ptr[r + 1]]:
            col_lists[c].append(r + 1)
    row_lists = [
        (code.row_cols[code.row_ptr[r]:code.row_ptr[r + 1]] + 1).tolist()
        for r in range(n_rows)
    ]
    max_col = max(len(x) for x in col_lists)
    max_row = max(len(x) for x in row_lists)
    lines = [
        f"{n} {n_rows}",
        f"{max_col} {max_row}",
        " ".join(str(len(x)) for x in col_lists),
        " ".join(str(len(x)) for x in row_lists),
    ]
    for x in col_lists:
        lines.append(" ".join(map(str, x + [0] * (max_col - len(x)))))
    for x in row_lists:
        lines.append(" ".join(map(str, x + [0] * (max_row - len(x)))))
    Path(path).write_text("\n".join(lines) + "\n")


def read_alist(path, name=None):
    """Read an alist file; tolerates both zero-padded and unpadded lines.

    The column lines must list exactly the edges of the row lines, and no
    line may list an index twice.
    """
    text = Path(path).read_text()
    name = name or Path(path).stem
    try:
        toks = np.array(text.split(), dtype=np.int64)
    except (ValueError, OverflowError) as e:
        raise ValueError(f"alist file holds a token that is not a 64-bit integer: {e}") from e
    pos = 0

    def take(count):
        nonlocal pos
        if pos + count > toks.size:
            raise ValueError("truncated alist file")
        out = toks[pos:pos + count]
        pos += count
        return out

    n, n_rows = (int(v) for v in take(2))
    max_col, max_row = (int(v) for v in take(2))
    col_deg = take(n)
    row_deg = take(n_rows)
    # padded or plain layout, detected by total token count
    remaining = toks.size - pos
    if remaining == n * max_col + n_rows * max_row:
        padded = True
    elif remaining == col_deg.sum() + row_deg.sum():
        padded = False
    else:
        raise ValueError("alist adjacency size matches neither padded nor plain layout")

    def adjacency(n_lines, max_deg, degrees, what):
        # the lines' entries, flat, and the line index of each; padded
        # lines carry max_deg entries (zeros beyond the degree)
        if padded:
            block = take(n_lines * max_deg).reshape(n_lines, max_deg)
            nonzero = block != 0
            if not np.array_equal(nonzero.sum(axis=1), degrees):
                raise ValueError(f"{what} degree list disagrees with adjacency")
            entries = block[nonzero]
        else:
            entries = take(int(degrees.sum()))
        return entries, np.repeat(np.arange(n_lines), degrees)

    col_rows, col_of = adjacency(n, max_col, col_deg, "column")
    row_cols, row_of = adjacency(n_rows, max_row, row_deg, "row")
    code = LdpcCode.from_edges(name, n, n_rows, row_of, row_cols - 1)
    # each edge as row * n + column: the code's, sorted, against the
    # column lines'
    if not np.array_equal(code.edge_row * n + code.row_cols,
                          np.sort((col_rows - 1) * n + col_of)):
        raise ValueError("alist column lines do not list the edges of the row lines")
    return code


def reference_code():
    """The shipped n=1008, rate-1/2 staircase-IRA code.

    The packaged alist is frozen output of a progressive-edge-growth
    (PEG, Hu, Eleftheriou and Arnold 2005) construction over the
    staircase accumulator, with a screen against low-weight
    accumulator-span codewords: 330 degree-3 columns followed by 174
    degree-10 columns (light columns first, which also places them on
    the weakest tributary under the block bit mapping), seed 1.  It was
    generated by ``fec.peg_code`` at commit 83bf1fe, since removed; the
    file is pinned by its SHA-256 in the tests.
    """
    ref = resources.files("psbicm").joinpath(_REFERENCE_ALIST)
    with resources.as_file(ref) as path:
        return read_alist(path, name="n1008_r12")


# --- encode / decode -----------------------------------------------------

def encode(code, info_bits):
    """Systematic staircase encoding: codeword = [info, parity].

    Parity follows the accumulator recursion p_j = s_j xor p_{j-1} where
    s_j is the parity of the information bits on check row j.  Encodes
    every length-k row of ``info_bits`` (shape (..., k)).
    """
    if code.encoder != "staircase":
        raise ValueError(f"code {code.name!r} has no systematic encoder")
    info = np.asarray(info_bits, dtype=np.uint8)
    if info.shape[-1:] != (code.k,):
        raise ValueError(f"info length must be k = {code.k}")
    # the info edges, in row order, form one segment per row; a zero
    # column appended keeps every segment start a valid index
    info_edges = code.row_cols < code.k
    deg = np.bincount(code.edge_row[info_edges], minlength=code.n_rows)
    starts = np.cumsum(deg) - deg
    bits = np.concatenate([info[..., code.row_cols[info_edges]],
                           np.zeros(info.shape[:-1] + (1,), dtype=np.uint8)], axis=-1)
    s = np.bitwise_xor.reduceat(bits, starts, axis=-1)
    s[..., deg == 0] = 0               # reduceat gives x[start] for an empty segment
    parity = np.bitwise_xor.accumulate(s, axis=-1)
    return np.concatenate([info, parity], axis=-1)


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of ``decode``.

    ``iterations`` counts flooding iterations over every BP run spent on
    the frame, the first pass and all restarts; ``restarts`` counts the
    reruns alone.  ``converged`` is True only if ``codeword`` satisfies
    every check.
    """

    codeword: np.ndarray
    iterations: int
    converged: bool
    k: int
    restarts: int = 0

    @property
    def info(self):
        return self.codeword[: self.k]


def _log_tanh(x):
    # ln tanh(x/2) = -phi(x), in place on x; the floor bounds check
    # magnitudes at phi(1e-12) ~ 28 instead of overflowing at exact zeros
    np.maximum(x, 1e-12, out=x)
    x *= 0.5
    np.tanh(x, out=x)
    return np.log(x, out=x)


def _flooding(code, lam, max_iter, unsat=None):
    """One flooding sum-product run: (hard decisions, iterations, converged).

    If ``unsat`` is given, every iteration adds to it, per variable, the
    number of its checks that the iteration's hard decisions leave
    unsatisfied.

    The check update carries lt = ln tanh(|m_vc|/2) = -phi(|m_vc|).
    Negating every operand of a sum or difference negates its rounded
    result, so lt minus its row sum is exactly the phi-domain extrinsic
    sum, and the sign is one multiply by -1 or +1: every message is bit
    for bit the phi form's.
    """
    starts = code.row_ptr[:-1]
    cols = code.row_cols
    erow = code.edge_row
    m_cv = np.zeros(cols.size)

    iterations = 0
    converged = False
    totals = lam
    for it in range(max_iter + 1):
        totals = lam + np.bincount(cols, weights=m_cv, minlength=code.n)
        # one gather gives the syndrome and, in place, the messages m_vc
        m_vc = totals[cols]
        checks = np.bitwise_xor.reduceat((m_vc < 0).view(np.uint8), starts)
        if not np.count_nonzero(checks) and np.all(totals != 0):
            iterations, converged = it, True
            break
        if unsat is not None:
            unsat += np.bincount(cols, weights=checks[erow], minlength=code.n)
        if it == max_iter:
            iterations = max_iter
            break
        m_vc -= m_cv
        neg = (m_vc < 0).view(np.uint8)
        lt = _log_tanh(np.abs(m_vc))
        ext_neg = np.bitwise_xor.reduceat(neg, starts)[erow] ^ neg
        lt -= np.add.reduceat(lt, starts)[erow]
        m_cv = _log_tanh(lt)
        m_cv *= ext_neg * 2.0 - 1.0

    return (totals < 0).astype(np.uint8), iterations, converged


# restart search of augmented BP: candidates ranked per run, tree depth,
# iterations per rerun (capped by max_iter) and the saturating L-value
_RESTART_CANDIDATES = 16
_RESTART_DEPTH = 2
_RESTART_ITER = 60
_SATURATION = 30.0


def _restart_search(code, lam, hard, unsat, budget, max_iter):
    """Breadth-first augmented-BP restarts after a failed flooding run.

    Each tree node is a set of variables pinned to +-_SATURATION; its
    children pin, in turn, each of the _RESTART_CANDIDATES unpinned
    variables that touched the most unsatisfied checks during the
    node's own BP run, first against that run's hard decision, then
    with it.  Returns (codeword or None, iterations, reruns) for the
    first rerun whose hard decisions satisfy every check.
    """
    iters = min(max_iter, _RESTART_ITER)
    queue = deque([((), hard, unsat)])
    spent = runs = 0
    while queue:
        pinned, hard, unsat = queue.popleft()
        order = np.argsort(-unsat, kind="stable")
        order = order[~np.isin(order, [j for j, _ in pinned])]
        for j in order[:_RESTART_CANDIDATES]:
            flip = _SATURATION if hard[j] else -_SATURATION
            for value in (flip, -flip):
                if runs == budget:
                    return None, spent, runs
                trial = pinned + ((j, value),)
                lam_t = lam.copy()
                for i, v in trial:
                    lam_t[i] = v
                counts = np.zeros(code.n) if len(trial) < _RESTART_DEPTH else None
                hard_t, it, ok = _flooding(code, lam_t, iters, counts)
                spent += it
                runs += 1
                if ok:
                    return hard_t, spent, runs
                if counts is not None:
                    queue.append((trial, hard_t, counts))
    return None, spent, runs


def decode(code, lvalues, max_iter=50, restarts=0):
    """Sum-product decoding of one codeword, with optional restarts.

    ``lvalues`` follow the positive-means-bit-0 convention and must be
    finite.  A first flooding-schedule run stops early once hard
    decisions satisfy every check with a strictly nonzero total at every
    position (all-zero inputs are a sum-product fixed point and report
    non-convergence).

    If that run does not converge and ``restarts`` > 0, the restart
    search of augmented belief propagation (Varnica, Fossorier and
    Kavcic, IEEE Trans. Commun. 2007) follows.  Variables are ranked by
    how many unsatisfied checks they touched, summed over all
    iterations; one top-ranked variable at a time is pinned to an
    L-value of +-30 and BP is rerun from fresh messages, breadth-first
    over single pins and then pairs.  The first rerun whose hard
    decisions satisfy every check is returned, even if a later one
    would find a more likely codeword.  ``restarts`` caps the number of
    reruns per frame; if none converges, the first run's result is
    returned.  With ``restarts=0`` (the default) the decoder is plain
    flooding BP, bit for bit.
    """
    for name, value in (("max_iter", max_iter), ("restarts", restarts)):
        if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                or value < 0):
            raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    lam = np.asarray(lvalues, dtype=float)
    if lam.shape != (code.n,):
        raise ValueError(f"need n = {code.n} L-values")
    bad = lam.size - np.count_nonzero(np.isfinite(lam))
    if bad:
        raise ValueError(f"{bad} of {lam.size} L-values are NaN or infinite")
    unsat = np.zeros(code.n) if restarts else None
    hard, iterations, converged = _flooding(code, lam, max_iter, unsat)
    runs = 0
    if not converged and restarts:
        found, spent, runs = _restart_search(code, lam, hard, unsat, restarts, max_iter)
        iterations += spent
        if found is not None:
            hard, converged = found, True
    return DecodeResult(codeword=hard, iterations=iterations,
                        converged=converged, k=code.k, restarts=runs)
