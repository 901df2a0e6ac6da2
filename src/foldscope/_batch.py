"""Internal numpy helpers for bulk enumeration.

Everything here is plumbing for the verification suites: sign grids over
instruction bits (unpacked from the bytes of the row indices), bulk
sequence prefixes as the b'+'/b'-' rows every scan reads
(pf_prefix_matrix, the one bulk sequence generator), the band kernel
that reads the latest first start for every n of a phi-band off one
longest-previous-factor pass per prefix, the target-LCP kernel that
compares every window of a phi-band with the one at 6p and whose one
product is the few values per row the lemma checks read (target_summary,
reduced chunk by chunk), and the split-digit automaton sweep that checks
a DFAO against the closed form over many instruction rows at once (one
pass over the low digits per distinct low half of a row, one over the
high digits from every state per distinct high half, the formula read
off pf_prefix_matrix on those halves, and one pass over every row that
gives both its verdict and its least failing k from two small tables of
least k).  Both band kernels read a window as blocks of min(p, 64) signs,
each one packed code of _window_codes (a 32- or 64-sign code is 4 or 8
bytes of the row packed from one of its 8 bit offsets, read big-endian;
narrower codes are built by shift-doubling, the faster way at their
widths), and find a common prefix at the first block pair whose XOR is
nonzero; each keeps its own walk over the blocks, so the lemma checks
share no sort, neighbour LCP or previous factor with the kernel that
gives S.  The S kernel sorts each row's windows with no stable comparison
sort (_window_order): one argsort of the block codes up to p = 64, and
past that one lexsort of the 16-bit dense ranks of the block codes,
whose passes numpy makes by radix; equal windows may come in any order,
which no step after the sort reads (_sorted_lcp).  Both take int8
instruction rows and return one row of int32 values per instruction row
(_by_chunks), each chunk's prefixes from pf_prefix_matrix, and build no
whole grid of prefixes; which rows reach a kernel is the band store's
choice (appearance.stored_band), which hands it each distinct key
f_0..f_(m+2) once per process.
Each band call gives its chunks one _Workspace: every array a chunk of
either kernel fills is allocated once, for the first (largest) chunk,
and filled in place through out= by every chunk after it, and the
workspace is dropped when the call returns.  Chunks that allocated and
freed their own arrays let glibc trim the heap top between them, so each
chunk page-faulted its whole working set back in.
The scalar implementations in folding.py / appearance.py / dfao.py stay
the reference; tests cross-check these against them.
"""

from __future__ import annotations

import math

import numpy as np

from .folding import position_blocks

PLUS = ord("+")
MINUS = ord("-")


def sign_grid(depth: int, width: int = 0) -> np.ndarray:
    """All 2^depth instruction patterns as a (2^depth, max(depth, width))
    array of +-1.

    Row i encodes f_t = +1 iff bit (t mod depth) of i is set, so row 0 is
    all -1, the last row is all +1, and columns past depth repeat the
    pattern cyclically.  The first min(width, 64) columns are the bits of
    i repeated every depth bits by doubling, unpacked from its
    little-endian bytes in one pass; wider grids take the rest from them.
    """
    width = max(depth, width)
    cover = min(width, 64)
    pattern = np.arange(1 << depth, dtype=f"<u{1 << ((cover - 1) // 8).bit_length()}")
    span = depth
    while 0 < span < cover:
        pattern |= pattern << pattern.dtype.type(span)
        span *= 2
    bits = np.unpackbits(pattern.view(np.uint8).reshape(len(pattern), -1), axis=1,
                         count=cover, bitorder="little")
    if width > cover:
        bits = bits.take(np.arange(width) % depth, axis=1)
    # 0/1 to -1/+1 as int8, in place
    bits <<= 1
    bits -= 1
    return bits.view(np.int8)


def pf_prefix_matrix(rows: np.ndarray, length: int) -> np.ndarray:
    """Sequence prefixes P[1:length] for every instruction row, as a
    (rows, length) uint8 matrix of b'+'/b'-'.

    rows[:, s] supplies f_s; requires enough columns for every position.
    """
    m, w = rows.shape
    if length.bit_length() > w:
        raise ValueError(f"{w} instruction columns cannot cover positions up to {length}")
    same_sign = np.where(rows > 0, np.uint8(PLUS), np.uint8(MINUS))
    flipped_sign = np.where(rows > 0, np.uint8(MINUS), np.uint8(PLUS))
    out = np.empty((m, length), dtype=np.uint8)
    for s, same, flipped in position_blocks(length):
        out[:, same.start::same.step] = same_sign[:, s:s + 1]
        out[:, flipped.start::flipped.step] = flipped_sign[:, s:s + 1]
    return out


# Prefix bytes per chunk of the band and target-LCP kernels.  A band
# call allocates its chunks' arrays once, in its _Workspace, sized for
# the first chunk (near 1.1 and 0.6 megabytes at p = 128), so a chunk
# after the first reuses pages already faulted in.  At 2^13, 2^14, 2^15
# and 2^16 bytes the sampled-sweep unit read 12.6, 10.9, 11.0 and 13.2 ms
# and 54, 221, 555 and 1,257 faults (in-process, 2-core Xeon), with
# verify-all flat within its noise: 2^14 stays.  Each step
# of the automaton sweep (the low-half passes with their prefixes, the
# high-half passes from every state and the pass over the rows) takes
# about as many cells per chunk, at up to about 20 bytes each: its whole
# tracemalloc peak, row keys included, is near 0.5 MiB on 4,096 and 8,192
# rows, for a failing machine as for a passing one.
CHUNK_ELEMENTS = 1 << 14

# The packed code of up to 8, 16, 32 or 64 signs fits these unsigned types.
_CODE_TYPES = (np.uint8, np.uint16, np.uint32, np.uint64)


class _Workspace:
    """The arrays of one band call, by name, and one arange.

    An array is allocated at its first request and handed out again, cut
    to the request's shape, to every later chunk of the call, which fills
    it in place; the first chunk is the largest, so each is allocated
    once.  A chunk that freed its arrays would let the allocator trim the
    top of the heap, and the next chunk would page-fault its whole working
    set back in.  An array holds what the last chunk left there, so a
    kernel writes every entry it reads, and a kernel may use an array for
    something else while its own contents are not needed yet.  Nothing is
    kept past the call.  A request for a name in another dtype, or for
    more entries than its first request, raises ValueError; the arange
    grows to the largest size asked for.
    """

    def __init__(self):
        self._arrays = {}
        self._ramp = None

    def __call__(self, name: str, dtype, *shape: int) -> np.ndarray:
        array = self._arrays.get(name)
        if array is None:
            array = self._arrays[name] = np.empty(shape, dtype)
        elif array.dtype != dtype:
            raise ValueError(f"workspace array {name!r} is {array.dtype}, not {np.dtype(dtype)}")
        elif array.shape != shape:
            size = math.prod(shape)
            if size > array.size:
                raise ValueError(f"workspace array {name!r} holds {array.size} entries, "
                                 f"not {size}")
            array = array.ravel()[:size].reshape(shape)
        return array

    def arange(self, size: int) -> np.ndarray:
        """0, 1, ..., size - 1, as intp."""
        if self._ramp is None or self._ramp.size < size:
            self._ramp = np.arange(size)
        return self._ramp[:size]


def _shift_in(codes: np.ndarray, by: int, tail: np.ndarray, into: np.ndarray) -> np.ndarray:
    """(codes << by) | tail over tail's columns, written into the flat array
    `into`."""
    out = into[:tail.size].reshape(tail.shape)
    np.left_shift(codes[:, :tail.shape[1]], by, out=out)
    return np.bitwise_or(out, tail, out=out)


def _window_codes(bits: np.ndarray, w: int, ws: _Workspace) -> np.ndarray:
    """codes[r, i] packs the w <= 64 signs of row r from i on, MSB first,
    so codes are equal exactly when the windows are and order as they do
    (bits itself for w = 1).

    At w = 32 and 64 each row is packed into bytes from each of its 8 bit
    offsets o (np.packbits), and the code at i = 8j + o is the w / 8 bytes
    from byte j of offset o read as one big-endian integer: one strided
    view over the packed bytes reads every code at once.  At w <= 16 the
    shifts are faster on full chunks: the code of the first `length`
    signs grows by doubling and, for a one bit of w, by one more sign,
    each step into the half of the workspace's "codes" that the step
    before it did not write.
    """
    if w == 1:
        return bits
    t = _CODE_TYPES[max(0, (w - 1).bit_length() - 3)]
    if w in (32, 64):
        # rows padded to 8 * groups + w - 1 signs, as every band row of 7p
        # - 1 (p >= 32) already is; row r from offset o is then the 8 *
        # groups + w - 8 signs from o on
        r, length = bits.shape
        n = length - w + 1
        groups = -(-n // 8)
        bits = np.pad(bits, ((0, 0), (0, 8 * groups - n))) if n % 8 else np.ascontiguousarray(bits)
        offsets = np.ndarray((r, 8, 8 * groups + w - 8), np.uint8, bits,
                             strides=(bits.strides[0], 1, 1))
        packed = np.packbits(offsets, axis=2)
        read = np.ndarray((r, groups, 8), np.dtype(t).newbyteorder(">"), packed,
                          strides=(packed.strides[0], 1, packed.strides[1]))
        codes = ws("codes", t, r, n)
        if n % 8:
            codes[...] = read.reshape(r, -1)[:, :n]
        else:
            codes.reshape(r, groups, 8)[...] = read
        return codes
    into, other = ws("codes", t, 2, bits.size)
    codes, length = bits, 1
    for bit in bin(w)[3:]:
        codes, into, other = _shift_in(codes, length, codes[:, length:], into), other, into
        length *= 2
        if bit == "1":
            codes, into, other = _shift_in(codes, 1, bits[:, length:], into), other, into
            length += 1
    return codes


def _dense_ranks(codes: np.ndarray, ws: _Workspace) -> np.ndarray:
    """ranks[r, i] is the number of distinct codes of row r below
    codes[r, i], so ranks are equal exactly when the codes are and order as
    they do, and a row's largest is its distinct count - 1; in the least
    unsigned type that holds a row's length - 1, uint16 for the 7p - 64
    block codes of every band up to p = 2048.

    One unstable argsort per row, one take of the codes in that order, a
    not_equal of sorted neighbours and a cumsum give the ranks in sorted
    order, and one scatter puts them back, all in the workspace.
    """
    r, n = codes.shape
    at = np.argsort(codes, axis=1)
    at += np.arange(0, codes.size, n)[:, None]
    at = at.ravel()
    ordered = ws("ordered", codes.dtype, r, n)
    codes.ravel().take(at, out=ordered.ravel(), mode="clip")
    steps = ws("steps", bool, r, n)
    steps[:, 0] = False
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=steps[:, 1:])
    rank_type = np.min_scalar_type(n - 1)
    ranked = np.cumsum(steps, axis=1, dtype=rank_type, out=ws("ranked", rank_type, r, n))
    ranks = ws("ranks", rank_type, r, n)
    ranks.ravel()[at] = ranked.ravel()
    return ranks


def _window_order(codes: np.ndarray, p: int, ws: _Workspace) -> np.ndarray:
    """Each row's 6p window starts - 1 in the order of their windows of
    length p, equal windows in any order, from the windows' p / w block
    codes of w = min(p, 64) signs (_window_codes), block 0 first.

    One block is one argsort per row: numpy's stable sort is a radix sort
    for codes of up to 16 bits (p <= 16), and its default unstable sort
    is the faster one for 32- and 64-bit codes.  Past one block, each
    block code is replaced by its dense rank in its row (_dense_ranks), as
    in the naming step of prefix doubling (Manber & Myers, "Suffix arrays:
    a new method for on-line string searches", 1993), and one lexsort over
    the p / 64 rank columns, block 0 the primary key, sorts each pass's
    16-bit keys by radix.
    """
    m, w = 6 * p, min(p, 64)
    if w < p:
        ranks = _dense_ranks(codes, ws)
        return np.lexsort([ranks[:, b:b + m] for b in range(p - w, -1, -w)], axis=1)
    return np.argsort(codes[:, :m], axis=1, kind="stable" if codes.itemsize <= 2 else "quicksort")


def _sorted_lcp(bits: np.ndarray, p: int, ws: _Workspace, starts: np.ndarray,
                gap: np.ndarray, scratch: np.ndarray) -> None:
    """For one chunk of 0/1 rows of length 7p - 1, fill `starts` with each
    row's 6p starts of its windows of length p in sorted order, row after
    row, and `gap` with the common prefix of each sorted window with the
    next (the pairs across a row boundary included) less p/2.  `scratch`
    is an intp array of 2 * len(starts) entries that the caller reads only
    after this returns.

    Equal windows may come in any order (_window_order), and the band is
    the same for every order of them.  In any order sorted by window, the
    common prefix of two ranks is the least neighbour LCP between them.
    Equal windows are joined by LCPs of p, the largest there is, so the
    walk from any window to the nearest one on either side that starts
    earlier passes the same least LCP whatever order the ties are in.  The
    live-chain rule (`shared`, `later`), the pointer jumping and the
    maximum.at table of _chunk_first_starts compare starts only, and none
    of them reads the order of ties.
    """
    m, w = 6 * p, min(p, 64)
    size = gap.size
    codes = _window_codes(bits, w, ws)
    order = _window_order(codes, p, ws)
    np.add(order.ravel(), 1, out=starts, dtype=np.int32)
    # order, offset in place, is the flat index of each sorted window's
    # block 0; block b is b further
    order += np.arange(0, codes.size, codes.shape[1])[:, None]
    at, flat = order.ravel(), codes.ravel()
    # a pair that first differs in block j shares j * w signs and, codes
    # being MSB-first, w - the bit length of their XOR there (p if equal).
    # The XORs go to the first half of scratch, and the ranked codes, then
    # the bit lengths' mantissas, to its second.  take writes into `out`
    # directly only in a mode that cannot raise, and every index is in range
    pairs = scratch.view(codes.dtype)
    first_diff, ranked = pairs[:size], pairs[-at.size:]
    flat.take(at, out=ranked, mode="clip")
    np.bitwise_xor(ranked[1:], ranked[:-1], out=first_diff)
    if w < p:
        # the equal blocks before first_diff's, counted
        equal_blocks = ws("equal_blocks", np.int32, size)
        equal_blocks.fill(0)
        x, undecided = ws("x", codes.dtype, size), ws("undecided", bool, size)
        for b in range(w, p, w):
            flat[b:].take(at, out=ranked, mode="clip")
            np.bitwise_xor(ranked[1:], ranked[:-1], out=x)
            np.equal(first_diff, 0, out=undecided)
            equal_blocks += undecided
            x *= undecided
            first_diff |= x
    _bit_length(first_diff, gap, scratch[-size:].view(np.float64))
    np.subtract(w - p // 2, gap, out=gap)
    if w < p:
        equal_blocks *= w
        gap += equal_blocks


def _chunk_first_starts(bits: np.ndarray, p: int, ws: _Workspace) -> np.ndarray:
    """band_first_starts for one chunk of 0/1 rows of length 7p - 1, in
    its band call's workspace."""
    r, m, half = bits.shape[0], 6 * p, p // 2
    size, cols = r * m, p - half
    # Node k walks left from rank k and node size + k right from it: `to`
    # is the node, on its own side, of the rank it has reached and `low`
    # the least gap it has passed, first the one on its side of rank k.
    # The gap between two sorted windows is their LCP clamped to p/2..p and
    # shifted down by p/2, since an LPF <= p/2 makes a window a first start
    # at every n of the band; it is 0 before each row's first rank and
    # after its last, so that no chain leaves its row.  A chain ends at the
    # nearest rank on its side with an earlier start (its LCP with that
    # window is then `low`) or once `low` is 0.  The last slot of
    # `node_start` is a sentinel only ended chains point at.
    # node_start, low and the S table share one int32 array
    ints = ws("ints", np.int32, 4 * size + 1 + r * (cols + 1))
    node_start, low = ints[:2 * size + 1], ints[2 * size + 1:4 * size + 1]
    to, starts, after = ws("to", np.intp, 2 * size), node_start[:size], low[size:]
    _sorted_lcp(bits, p, ws, starts, after[:-1], to)
    np.maximum(after, 0, out=after)
    after[m - 1::m] = 0
    low[0] = 0
    low[1:size] = after[:-1]
    ramp = ws.arange(size)
    np.subtract(ramp, 1, out=to[:size])
    np.add(ramp, size + 1, out=to[size:])
    node_start[size:-1] = starts
    node_start[-1] = starts[0]
    # Of two neighbours sharing more than p/2 signs, the chain of the one
    # that starts earlier walks on; the other's ends at once.  With
    # `shared` on the left side and `later` on the right, the right
    # chains that walk are shared and not later, and the left ones then
    # shared ^ right, that is shared and later.
    live = ws("live", bool, 2 * size)
    left, right = live[1:size], live[size:-1]
    np.greater(after[:-1], 0, out=left)
    np.greater(starts[:-1], starts[1:], out=right)
    np.greater(left, right, out=right)
    np.logical_xor(left, right, out=left)
    live[0] = live[-1] = False
    live = np.flatnonzero(live)
    # Pointer jumping: a live chain takes over the chain of the rank it has
    # reached, which starts later.  Each round moves it at least one rank,
    # so the rounds are at most the longest run of sorted windows that
    # share more than p/2 signs with the next.
    while live.size:
        via = to[live]
        passed = np.minimum(low[live], low[via])
        low[live] = passed
        via = to[live] = to[via]
        live = live[(passed > 0) & (node_start[via] > node_start[live])]
    # The shifted LPF is the larger side.  A window is a first start for
    # n = p/2 + 1 + c exactly when its shifted LPF is at most c, so S is a
    # running maximum over the columns of the latest start at each shifted
    # LPF; the last column holds the repeats of a length-p window.
    lpf = np.maximum(low[:size], low[size:], out=low[:size]).reshape(r, m)
    table = ints[4 * size + 1:].reshape(r, cols + 1)
    table.fill(0)
    index = to[:size].reshape(r, m)
    np.add(lpf, np.arange(0, table.size, cols + 1)[:, None], out=index)
    np.maximum.at(table.ravel(), index.ravel(), starts)
    return np.maximum.accumulate(table, axis=1, out=table)[:, :cols]


def _distinct_rows(rows: np.ndarray) -> tuple:
    """(distinct rows in key order, each row's index among them) of +-1
    instruction rows of at most 63 columns, keyed by their signs packed as
    one integer, one product of the sign bits with powers of two: the
    automaton sweep's distinct low and high halves."""
    key = (rows > 0) @ (np.int64(1) << np.arange(rows.shape[1], dtype=np.int64))
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return rows[first], inverse


def _by_chunks(rows: np.ndarray, p: int, columns: int, kernel) -> np.ndarray:
    """kernel(bits, p, ws) over chunks of about CHUNK_ELEMENTS prefix
    signs, stacked into one fresh (rows, columns) int32 array, one kernel
    row per instruction row; bits holds the band prefix P[1:7p - 1] of each
    row of the chunk as one 0/1 uint8 row, from pf_prefix_matrix, and ws is
    the call's one _Workspace, which every chunk fills in place and which
    is dropped when the call returns.  Rows of fewer than m + 3 columns (p
    = 2^m) raise ValueError (pf_prefix_matrix) before any kernel call.
    """
    length = 7 * p - 1
    out = np.empty((len(rows), columns), dtype=np.int32)
    step = max(1, CHUNK_ELEMENTS // length)
    ws = _Workspace()
    for lo in range(0, len(rows), step):
        prefixes = pf_prefix_matrix(rows[lo:lo + step], length)
        bits = ws("bits", np.uint8, *prefixes.shape)
        np.equal(prefixes, PLUS, out=bits.view(bool))
        out[lo:lo + step] = kernel(bits, p, ws)
    return out


def band_first_starts(rows: np.ndarray, p: int) -> np.ndarray:
    """Latest first start, over starts 1..6p, for every n of a phi-band.

    `rows` are +-1 instruction rows of at least m + 3 columns, f_0..f_(m+2)
    for p = 2^m, the signs the band prefix P[1:7p - 1] reads.  Entry [r, c]
    of the (rows, p - p//2) int32 result is, for n = p//2 + 1 + c,
    max(_scan_first_starts(prefix, n, 6p).values()) of row r.

    A window is the first start of its length-n factor exactly when its
    longest previous factor, LPF, the longest common prefix with any
    window that starts earlier, is below n (Crochemore & Ilie, "Computing
    Longest Previous Factor in linear time and applications", 2008), so
    S(n) = max{i : LPF(i) < n} and one LPF per window gives every n of
    the band.  Each row's 6p windows of length p are sorted once, by their
    p / w block codes of w = min(p, 64) signs, block 0 the primary key:
    one argsort per row up to p = 64, and past that one lexsort of the
    blocks' dense ranks (_window_order).  Equal windows may come in any
    order, since the common prefix of two sorted windows is the least
    neighbour LCP between them, equal windows are joined by the largest,
    p, and every later step compares starts only (_sorted_lcp).  Each
    window's common prefix with the one sorted after it is read off the
    first block pair that differs.  LPF(i) is
    then the larger common prefix with the nearest sorted window on either
    side that starts earlier: the least neighbour LCP in between, found by
    pointer jumping, which stops a walk once that least LCP is p/2 or
    less, since the band reads LPF only between p/2 and p.  One maximum.at
    puts each start at its (row, LPF) cell and a running maximum over the
    columns gives S.  The prefixes of 7p - 1 signs are sorted in chunks of
    about CHUNK_ELEMENTS prefix signs.
    """
    return _by_chunks(rows, p, p - p // 2, _chunk_first_starts)


def _bit_length(x: np.ndarray, out=None, mantissa=None) -> np.ndarray:
    """Exact bit length of every entry of an unsigned integer array, as
    int32, written into `out`; `mantissa` is float64 scratch of x's shape.
    Both are allocated when not given.

    frexp gives it as the exponent of a value float64 holds exactly, as it
    does every value below 2^53.  A 64-bit value is first cut, in place, to
    its one bits that have a zero above them, x & ~(x >> 1): its top bit
    stays and the bit below that is zero, so the float64 it rounds to
    keeps its exponent.
    """
    if out is None:
        out = np.empty(x.shape, dtype=np.int32)
    if mantissa is None:
        mantissa = np.empty(x.shape)
    if x.dtype.itemsize == 8:
        above = mantissa.view(x.dtype)
        np.right_shift(x, 1, out=above)
        np.invert(above, out=above)
        x &= above
    # cast first: frexp would take a narrow type through float16
    mantissa[...] = x
    np.frexp(mantissa, out=(mantissa, out))
    return out


def _chunk_target_lcp(bits: np.ndarray, p: int, ws: _Workspace) -> np.ndarray:
    """Entry [r, i] is the common prefix, capped at p, of row r's windows at
    starts i + 1 and 6p, for one chunk of 0/1 rows of length 7p - 1, in
    its band call's workspace: the step _chunk_target_summary reduces.
    Every window's blocks are compared with the target's, in start order,
    with no sort."""
    w = min(p, 64)
    codes = _window_codes(bits, w, ws)
    r, target, m = len(bits), 6 * p - 1, 6 * p
    # the XOR of the first differing block pair, and the equal blocks
    # before it, counted; the XORs of later blocks, 64-bit since w < p only
    # at w = 64, go where the bit lengths' mantissas will
    first_diff = ws("first_diff", codes.dtype, r, m)
    np.bitwise_xor(codes[:, :m], codes[:, target:target + 1], out=first_diff)
    mantissa = ws("mantissa", np.float64, r, m)
    if w < p:
        equal_blocks = ws("equal_blocks", np.int32, r, m)
        equal_blocks.fill(0)
        x, undecided = mantissa.view(codes.dtype), ws("undecided", bool, r, m)
        for b in range(w, p, w):
            np.bitwise_xor(codes[:, b:b + m], codes[:, target + b:target + b + 1], out=x)
            np.equal(first_diff, 0, out=undecided)
            equal_blocks += undecided
            x *= undecided
            first_diff |= x
    # codes are MSB-first, so a block's common prefix is w - bit length
    lcp = _bit_length(first_diff, ws("lcp", np.int32, r, m), mantissa)
    np.subtract(w, lcp, out=lcp)
    if w < p:
        equal_blocks *= w
        lcp += equal_blocks
    return lcp


# The columns of a target_summary row, and the first start of an n no
# start reaches (starts are 1-based).
OFF_TARGET, AT_TARGET, FIRST_START = 0, 1, 2
NOT_FOUND = 0


def _chunk_target_summary(bits: np.ndarray, p: int, ws: _Workspace) -> np.ndarray:
    """target_summary for one chunk of 0/1 rows of length 7p - 1, reduced
    in place from the chunk's own target-LCP rows."""
    lcp = _chunk_target_lcp(bits, p, ws)
    r, m, half = lcp.shape[0], 6 * p, p // 2
    out = ws("summary", np.int32, r, FIRST_START + p - half)
    np.maximum(lcp[:, :4 * p - 1].max(axis=1), lcp[:, 4 * p:m - 1].max(axis=1),
               out=out[:, OFF_TARGET])
    out[:, AT_TARGET] = lcp[:, m - 1]
    # after a running maximum along each row, the first start at LCP >= n
    # is where n would go in the row; offsetting row j's keys by j * (p + 1)
    # makes the chunk one sorted array, and an n its row never reaches
    # lands on the next row's first key
    np.maximum.accumulate(lcp, axis=1, out=lcp)
    offsets = np.arange(0, r * (p + 1), p + 1, dtype=np.int32)[:, None]
    lcp += offsets
    at = np.searchsorted(lcp.ravel(), (offsets + np.arange(half + 1, p + 1, dtype=np.int32)).ravel())
    at = at.reshape(r, p - half) - np.arange(0, r * m, m)[:, None]
    out[:, FIRST_START:] = np.where(at < m, at + 1, NOT_FOUND)
    return out


def target_summary(rows: np.ndarray, p: int) -> tuple:
    """The three things the lemma checks read off the common prefixes of
    each window up to start 6p with the one at 6p, in the band prefix
    P[1:7p - 1] of each +-1 instruction row (of at least m + 3 columns,
    p = 2^m): a (rows, 2 + p - p//2) int32 array, reduced chunk by chunk
    from _chunk_target_lcp so that no (rows, 6p) array is ever whole.

    Column OFF_TARGET is the largest common prefix, capped at p, with the
    window at 6p at any start up to 6p other than 4p and 6p, column AT_TARGET the one at 6p itself, and
    column FIRST_START + c the first start whose common prefix is at least
    n = p//2 + 1 + c, or NOT_FOUND when none is.  The first start is the
    longest-previous-factor idea turned toward the one fixed window at 6p
    (Crochemore & Ilie, 2008): after a running maximum of each row's
    target LCPs, one searchsorted finds it for every n of the band.
    """
    return _by_chunks(rows, p, FIRST_START + p - p // 2, _chunk_target_summary)


def _least_k(fail_hi: np.ndarray, least_lo: np.ndarray, high_of: np.ndarray,
             low_of: np.ndarray) -> np.ndarray:
    """Each row's least failing k over one chunk of rows, or at least the
    tables' sentinel where the row never fails.

    fail_hi[h, g, c] is first_bad[h, c] shifted to k's high digits where
    high half h fails code c at group g's value of last, and the sentinel
    where it does not; least_lo[l, g, c] is the least column of low half
    l in group g that holds code c, or the sentinel.  Every column with
    the same (g, c) fails at the same hi, so the least sum over (g, c) is
    the row's least k.
    """
    k = fail_hi[high_of] + least_lo[low_of]
    return k.reshape(len(k), -1).min(axis=1)


def compare_formula_vs_dfao(dfao, rows: np.ndarray, k_max: int):
    """Run the DFAO and the closed formula over every (row, k) pair.

    Checks all k <= k_max whose decidable width fits the rows' length and
    returns (cases, skipped_ks, mismatch); mismatch is None or a tuple
    (row_index, k, formula_value, dfao_value_or_None) minimizing (k, row).
    skipped_ks lists the positions the track length cannot decide.

    Each k is split as lo + 2^low * hi at low = w - w // 2 lsd-first
    digits, and each row as its low half f_0..f_{low-1} and its high half
    f_low..f_{w-1}.  One level-order pass per distinct low half runs the
    low digits from the start state, giving the state A[lo] after them,
    and one per distinct high half runs the high digits from every state
    q, giving the output byte B[q, hi].  After level i a pass holds one
    state per digit pattern, column c for digits = c (mod 2^(i+1)), and
    level i + 1 steps every column by digit 0 and by digit 1 through one
    flat (4*state + 2*sign + bit) table, concatenating the two halves;
    columns past the top digit value are dropped as they appear.

    The formula side comes from pf_prefix_matrix, the one sequence
    generator, on the distinct halves only, through two identities of
    P_f[k] = +-f_{v(k)} (the sign set by the odd part of k mod 4):
      (i)  for lo != 0, P_f[lo + 2^low * hi] = P_f[lo + 2^low * (hi mod 2)],
           since v(lo) < low and the value reads only bits 0..v(lo) + 1
           <= low of k, which the two positions share;
      (ii) P_f[2^low * hi] = P_{sigma^low f}[hi] for hi >= 1, sigma^low f
           = f_low, f_{low+1}, ..., since v(2^low * hi) = low + v(hi) and
           the odd parts are equal.
    So column lo != 0 of a row is one of four period-2 patterns, read off
    P[lo] and P[lo + 2^low] of its low half's 2^(low+1) - 1 prefix, and
    column 0 is its high half's own prefix.  first_bad[h, q, pattern] is
    the first hi at which B of high half h from state q leaves the
    pattern (pattern 4 being the high half's prefix, k = 0 and the
    undecidable k skipped), or the hi count if it never does.  Column lo
    of a row fails when that hi is at most last[lo], the last hi of the
    column at k <= top, which takes at most two values.  Every column of a
    row with the same value of last and the same (state, pattern) code
    fails at the same hi, and k is least in (hi, lo), so the least column
    lo of each (value, code) is the only one a row's least k can come
    from.  The low pass keeps that least lo per distinct low half
    (least_lo), the high pass the failing hi per distinct high half
    (fail_hi), and a row's least failing k is the least sum over its at
    most 2 * 5 * states (value, code) pairs (_least_k), or none.  One pass
    over the rows gives every row's verdict and the least (k, row), whose
    formula and DFAO values are read at that one cell.  The passes go in
    chunks of about CHUNK_ELEMENTS cells.
    """
    m, w = rows.shape
    top = min(k_max, (1 << w) - 1)
    undecidable = 1 << (w - 1)
    skipped = [k for k in (undecidable,) if k <= k_max] + list(range(1 << w, k_max + 1))
    cases = m * (top - (undecidable <= top))
    states = dfao.state_count
    state_type = np.min_scalar_type(4 * states)
    table = np.empty(4 * states, dtype=state_type)
    for (state, (sign, bit)), target in dfao.transitions.items():
        table[4 * state + (sign + 1) + bit] = target
    out = np.array([{1: PLUS, -1: MINUS}.get(v, 0) for v in dfao.output], dtype=np.uint8)
    low = w - w // 2
    # the columns lo = 0..los - 1 and hi = 0..his - 1 that reach k <= top
    los, his = min(top, (1 << low) - 1) + 1, (top >> low) + 1

    def sweep(cells, digit_signs, count):
        for i in range(digit_signs.shape[-1]):
            base = cells * state_type.type(4) + digit_signs[..., i:i + 1]
            ones = base[..., :max(0, count - (1 << i))] + 1
            cells = np.concatenate((table.take(base), table.take(ones)), axis=-1)
        return cells

    def signs(half):
        return np.where(half > 0, state_type.type(2), state_type.type(0))

    # the last hi of each column at k <= top: top >> low at the columns
    # lo <= top mod 2^low, one less at the rest.  The undecidable k =
    # 2^(w-1) is column 0's at hi = 2^(high-1), masked below, except at
    # w = 1, where it is column 1's only k and its last is -1.  The
    # tables keep one group per value least..most of last; column lo is in
    # group last[lo] - least.
    last = (top - np.arange(los)) >> low
    if undecidable < los:
        last[undecidable] = -1
    least = int(last.min())
    values = np.arange(least, int(last.max()) + 1)
    # every k <= top is below the sentinel, and two sentinels fit the type
    never = 1 << top.bit_length()
    k_type = np.min_scalar_type(2 * never)

    # The code of column lo of low half l is 5 * A[lo] + its pattern: bit
    # 0 its sign at even hi, bit 1 at odd hi (1 for '+'), 4 at lo = 0.
    # least_lo[l, g, c] is the least column of l with last == values[g]
    # and code c, one minimum.at over flat indices and values (repeated
    # indices leave a plain assignment's order unspecified, and numpy
    # 2.4.6 read wrong values broadcast against a 2-D index).  The prefix
    # pads f_low, which no position lo != 0 (mod 2^low) reads.
    low_rows, low_of = _distinct_rows(rows[:, :low])
    padded = np.concatenate((low_rows, np.ones((len(low_rows), 1), dtype=rows.dtype)), axis=1)
    least_lo = np.full((len(low_rows), len(values), 5 * states), never, dtype=k_type)
    columns = np.arange(los, dtype=k_type)
    lo = np.arange(1, los)
    group_at = (last - least) * (5 * states)
    step = max(1, CHUNK_ELEMENTS >> (low + 1))
    for first in range(0, len(low_rows), step):
        chunk = padded[first:first + step]
        after_low = sweep(np.full((len(chunk), 1), dfao.start_state, dtype=state_type),
                          signs(chunk[:, :low]), los).astype(np.intp)
        plus = pf_prefix_matrix(chunk, (2 << low) - 1) == PLUS
        after_low *= 5
        after_low[:, 0] += 4
        after_low[:, 1:] += plus[:, lo - 1] + 2 * plus[:, lo + (1 << low) - 1]
        after_low += group_at
        after_low += np.arange(first, first + len(chunk))[:, None] * least_lo[0].size
        np.minimum.at(least_lo.reshape(-1), after_low.ravel(), np.tile(columns, len(chunk)))

    # first_bad[h, 5 * q + pattern]; the wanted bytes of patterns 0..3 are
    # shared, pattern 4's are each high half's prefix from hi = 1 on
    high_rows, high_of = _distinct_rows(rows[:, low:])
    first_bad = np.empty((len(high_rows), 5 * states), dtype=np.min_scalar_type(his))
    parity = np.arange(his) & 1
    period2 = np.where((np.arange(4)[:, None] >> parity) & 1, np.uint8(PLUS), np.uint8(MINUS))
    every_state = np.arange(states, dtype=state_type)[:, None]
    step = max(1, CHUNK_ELEMENTS // (states * his))
    for first in range(0, len(high_rows), step):
        chunk = high_rows[first:first + step]
        r = len(chunk)
        got = out.take(sweep(np.broadcast_to(every_state, (r, states, 1)),
                             signs(chunk)[:, None, :], his))
        want = np.zeros((r, 5, his), dtype=np.uint8)
        want[:, :4] = period2
        if his > 1:
            want[:, 4, 1:] = pf_prefix_matrix(chunk, his - 1)
        bad = got[:, :, None, :] != want[:, None]
        # hi = 0 of column 0 is k = 0, no position
        bad[:, :, 4, 0] = False
        if los <= undecidable <= top:
            bad[:, :, 4, undecidable >> low] = False
        first_bad[first:first + step] = np.where(
            bad.any(axis=-1), bad.argmax(axis=-1), his).reshape(r, 5 * states)

    # fail_hi[h, g, c] = first_bad[h, c] << low where that hi is at most
    # values[g] (never at -1, the undecidable column), else the sentinel
    fail_hi = np.where(first_bad[:, None, :] <= values[:, None],
                       first_bad[:, None, :].astype(k_type) << low, k_type.type(never))
    step, k, j = max(1, CHUNK_ELEMENTS // least_lo[0].size), never, None
    for first in range(0, m, step):
        found = _least_k(fail_hi, least_lo, high_of[first:first + step], low_of[first:first + step])
        i = int(found.argmin())
        if found[i] < k:
            k, j = int(found[i]), first + i
    if j is None:
        return cases, skipped, None
    state = dfao.start_state
    for i in range(w):
        state = dfao.transitions[(state, (int(rows[j, i]), (k >> i) & 1))]
    formula = 1 if pf_prefix_matrix(rows[j:j + 1], k)[0, -1] == PLUS else -1
    return cases, skipped, (j, k, formula, dfao.output[state])
