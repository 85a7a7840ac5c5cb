"""Exact whole-array conversion of OBJ text, for meshes.write_obj and
meshes.read_obj.

OBJ numbers are converted exactly, whole arrays at a time.  The writer
forms the 17 significant digits D of each coordinate as the
round-half-even of |x| 10^(16-k) from an exact 128-bit product of its
53-bit significand and 5^(16-k), splits D into 4-digit groups and ANDs
their ASCII into rows of '%.17g' templates, whose zero bytes are dropped
at the end.  The reader finds the number tokens chunk by chunk: by one
scan for separators where every line reads `key SP tok SP tok SP tok LF`
and no token holds '/' or '#', as all that the writer writes does, and
by a general tokenizer elsewhere.  It folds each number's digits to an
integer D and exponent E, and rounds D 10^E to the nearest double, ties
to even, with an error-free float residual and, in close cases, the same
exact products.  The output is byte for byte that of '%.17g' % x and of
float(token).  Coordinates with 1e-11 <= |x| < 2^52, or 0, and tokens of
at most 24 bytes and 19 significant digits with |E| <= 27 take this path;
the rest (subnormals, very large or small values, inf, nan, long or odd
tokens) go one by one through '%.17g' % x and float(), which raises the
ValueError np.loadtxt raised.  On the side-100 catenoid, helicoid and CMC
meshes at alpha 0.5 to 4 the per-number path takes no number.

meshes imports this module when it first writes or reads OBJ.  Compiled
at package import, its source cost every nilcat process, OBJ or not,
about 13 ms of start-up without a bytecode cache and 1.7 MB of peak RSS
(solve-period: setup 0.229 -> 0.243 s, RSS 37.0 -> 38.7 MB in ten
benchmark runs each).  Without a bytecode cache its import is mostly
compiling the source (about 6 ms); building its tables takes 1.3 ms.
"""

import numpy as np

from .errors import DomainError

# A double |x| = m 2^e (m < 2^53) scaled by 10^q is m 5^q 2^(e+q).  For
# q <= 27 the product m 5^q is below 2^128, and `_mul128` forms it exactly
# from 32-bit halves in two uint64 limbs.  The writer shifts it right and
# rounds half to even, which gives the 17 significant digits of '%.17g'.
# The reader keeps a float candidate for a token's D 10^E when a residual
# exact to 2^-50 units in the last place puts it inside half a unit;
# otherwise it compares D 10^E with the same kind of product for the
# candidate's midpoints and steps the candidate until it is the correctly
# rounded double.  A number outside these ranges takes the only other
# path, one at a time: '%.17g' % x in the writer and float(token) in the
# reader.

_M32 = np.uint64(0xFFFFFFFF)
_POW5 = np.array([5 ** j for j in range(28)], dtype=np.uint64)
_POW10 = np.array([10 ** j for j in range(20)], dtype=np.uint64)


def _mul128(a, b):
    """Exact products of uint64 arrays a * b < 2^128 as (high, low) limbs."""
    a1, a0 = a >> 32, a & _M32
    b1, b0 = b >> 32, b & _M32
    t = a0 * b0
    u = a1 * b0
    v = a0 * b1
    mid = (t >> 32) + (u & _M32) + (v & _M32)
    return (a1 * b1 + (u >> 32) + (v >> 32) + (mid >> 32),
            (t & _M32) | (mid << 32))


def _shl128(hi, lo, s):
    """(hi, lo) << s for 0 <= s < 128.  A uint64 shift count that wraps
    below 0 is huge, and numpy shifts by 64 or more give 0."""
    return (hi << s) | (lo >> (64 - s)) | (lo << (s - 64)), lo << s


# Writer.  Each number becomes one row of a block, taken from a table of
# templates by its place in the line and, for a coordinate, its decimal
# exponent k and the index L of its last nonzero digit; the zero bytes of
# a row are padding, dropped at the end.  A coordinate row is six uint64
# words: the sign and the "0.000" of 0.000ddd (bytes 0-5), the digits
# d0..d16 of D at bytes 6, 8, .., 38 with a slot for the point after each,
# "e-XX" (40-43) and what follows the number (44-46): a space, or after
# the third a newline and the next line's key.  An index row is its digits
# right-aligned in uint32 words and the same 4 bytes after it.  A template
# holds 0xFF at the digits it writes and 0 at the zeros '%.17g' drops, so
# one AND with a table of digit groups fills them in; no index arrays.

_TINY = 1.0000000000000001e-11  # least double >= 1e-11: k >= -11, q <= 27
_HUGE = 2.0 ** 52  # below it m 5^q 2^(e+q) needs only a right shift
_KMIN, _KMAX = -11, 15
_BLOCK = 3 * 2 ** 11  # numbers per pass, whole lines; bounds the rows
_E8, _E4 = np.uint64(10 ** 8), np.uint32(10 ** 4)
_G4 = np.arange(10000)
_DIGITS = np.empty((10000, 4), np.uint8)  # "%04d" % g
for _i, _p in enumerate([1000, 100, 10, 1]):
    _DIGITS[:, _i] = _G4 // _p % 10 + 48
_TAB4 = _DIGITS.view("<u4").ravel()  # as four bytes
_DIG8 = np.full((10000, 8), 0xFF, np.uint8)  # the same, a point slot after
_DIG8[:, ::2] = _DIGITS  # each digit, all bits set
_DIG8 = _DIG8.view("<u8").ravel()
_TZ4 = sum(_G4 % p == 0 for p in (10, 100, 1000, 10000)).astype(np.uint8)


def _after(key: bytes):
    """The bytes after a number, by its place in the line: (3, 3)."""
    return np.array([b" \0\0", b" \0\0", b"\n" + key + b" "], "S3") \
        .view(np.uint8).reshape(3, 3)


def _float_rows():
    """Templates of the coordinate rows, (3 places x 27 k x 17 L, 6)."""
    k = np.arange(_KMIN, _KMAX + 1)[:, None]
    last = np.arange(17)
    row = np.zeros((3, len(k), 17, 48), np.uint8)
    small = (k >= -4) & (k < 0)  # 0.000ddd
    row[..., 1] = 48 * small
    row[..., 2] = 46 * small
    for i in range(3):
        row[..., 3 + i] = 48 * (small & (i < -k - 1))
    shown = np.maximum(last, k)  # digits after it are trailing zeros
    point = np.where(k >= 0, k, 0)  # the point follows this digit
    for j in range(1, 17):
        row[..., 6 + 2 * j] = 255 * (j <= shown)
    for j in range(16):
        row[..., 7 + 2 * j] = 46 * ((j == point) & (last > point) & ~small)
    sci = k < -4
    for i, c in enumerate([101, 45]):
        row[..., 40 + i] = c * sci
    row[..., 42] = (48 + -k // 10) * sci
    row[..., 43] = (48 + -k % 10) * sci
    row[..., 44:47] = _after(b"v")[:, None, None]
    return row.view("<u8").reshape(-1, 6)


def _int_rows():
    """Templates of the index rows by place and digit count 0-20: the digit
    bytes of a 20-digit field and the 4 bytes after it, as (63, 6) uint32."""
    nd = np.arange(21)[:, None]
    row = np.zeros((3, 21, 24), np.uint8)
    row[..., :20] = 255 * (np.arange(20) >= 20 - nd)
    row[..., 20:23] = _after(b"f")[:, None]
    return row.view("<u4").reshape(-1, 6)


_V_ROWS = _float_rows()
_F_ROWS = _int_rows()
_V_PLACE = np.arange(_BLOCK) % 3 * (len(_V_ROWS) // 3)
_F_PLACE = np.arange(_BLOCK) % 3 * (len(_F_ROWS) // 3)


def _groups(values, count):
    """The 4-digit groups of uint64 values below 10^(4 count), most
    significant first: uint64 division splits off 8 digits at a time and
    uint32 division halves them."""
    out = []
    while count > 0:
        if count > 2:
            values, half = np.divmod(values, _E8)
        else:
            half = values
        hi, lo = np.divmod(half.astype(np.uint32), _E4)
        out[:0] = [hi, lo][2 - min(count, 2):]
        count -= 2
    return out


def _scale(m, e, k):
    """floor(m 2^e 10^(16 - k)) and the round-half-even increment, for
    m 2^e in [_TINY, _HUGE) and k in [_KMIN, _KMAX]."""
    q = 16 - k
    hi, lo = _mul128(m, _POW5.take(q))
    s = (-e - q).astype(np.uint64)  # 0 <= s <= 63
    hi, lo = (hi << 1) | (lo >> 63), lo << 1
    r = (lo >> s) | (hi << (64 - s))  # the floor and the bit below it
    floor = r >> 1
    sticky = (lo & ((np.uint64(1) << s) - 1)) != 0
    return floor, r & (sticky | floor) & 1


def _float_text(x):
    """OBJ vertex text of the coordinates x, three per line, each line
    followed by the next one's key."""
    a = np.abs(x)
    fast = (a >= _TINY) & (a < _HUGE)
    zero = a == 0
    a = np.where(fast, a, 1.0)
    f, e = np.frexp(a)
    m = (f * 2.0 ** 53).astype(np.uint64)
    e = e - 53
    k = np.maximum(np.floor(np.log10(a)), _KMIN).astype(np.int64)
    d, up = _scale(m, e, k)
    off = np.flatnonzero((d < _POW10[16]) | (d >= _POW10[17]))
    if len(off):  # log10 can miss k by one next to a power of ten
        k[off] += np.where(d[off] < _POW10[16], -1, 1)
        d[off], up[off] = _scale(m[off], e[off], k[off])
    d += up
    carry = d == _POW10[17]
    d[carry] = _POW10[16]
    k += carry
    d[zero] = 0
    k[zero] = 0
    top, d = np.divmod(d, _POW10[16])
    groups = _groups(d, 4)
    zeros = _TZ4.take(groups[0])  # trailing zeros of d1..d16
    for g in groups[1:]:
        zeros = _TZ4.take(g) + (g == 0) * zeros
    rows = _V_ROWS.take(_V_PLACE[:len(x)] + (k - _KMIN) * 17 + 16 - zeros,
                        axis=0)
    rows[:, 0] |= ((top + np.uint64(48)) << np.uint64(48)) \
        | np.where(np.signbit(x), np.uint64(45), np.uint64(0))
    for j, g in enumerate(groups, 1):
        rows[:, j] &= _DIG8.take(g)
    text = rows.view(np.uint8)
    for i in np.flatnonzero(~(fast | zero)):
        text[i, :44] = np.frombuffer(_g17(x[i]).ljust(44, b"\0"), np.uint8)
    return text.tobytes().translate(None, b"\0")


def _g17(x) -> bytes:
    """One number the vectorised path left, as '%.17g' writes it."""
    return ("%.17g" % x).encode()


def _int_text(v):
    """OBJ face text of the positive int64 indices v, three per line, each
    line followed by the next one's key."""
    v = v.astype(np.uint64)
    nd = np.searchsorted(_POW10[1:], v, side="right") + 1
    count = -(-int(nd.max()) // 4)
    rows = _F_ROWS[:, 5 - count:].take(_F_PLACE[:len(v)] + nd, axis=0)
    for j, g in enumerate(_groups(v, count)):
        rows[:, j] &= _TAB4.take(g)
    return rows.tobytes().translate(None, b"\0")


def obj_bytes(vertices, faces) -> bytes:
    """The OBJ text of (n, 3) float64 vertices and 0-based int faces."""
    # Each line's key rides in the row of the line before it, after the
    # newline, so one uint32 word of an index row holds a line's end and
    # the next line's start.  Rows that open with the key instead need one
    # more word per index row: writing the side-100 catenoid took 5.9-6.3
    # -> 6.4-6.6 ms, the faces 1.4 -> 1.8 ms (least of 60, 2-vCPU VM).
    # Hence the first key is prepended here and the spare last one cut.
    parts = []
    for key, text, v in ((b"v ", _float_text, vertices.ravel()),
                         (b"f ", _int_text, (faces + 1).ravel())):
        blocks = [text(v[i:i + _BLOCK]) for i in range(0, len(v), _BLOCK)]
        if blocks:  # the last line is followed by a key and a space
            parts += [key, *blocks[:-1], blocks[-1][:-2]]
    return b"".join(parts)


# Reader.  The file is read as uint8 arrays of whole lines; a token is a
# run of bytes that are not whitespace (str.isspace), and a line ends at
# \n, \r\n or a lone \r.  A `v` or `f` record is a line whose first token
# is that letter; its numbers are the next three tokens on the line, after
# '#' starts a comment and, in `f` records, after the '/' of a corner
# 'a/b/c' drops the rest of the token.  When every line of a chunk reads
# `key SP tok SP tok SP tok LF` and the chunk holds no '/' or '#', as all
# that write_obj writes does, one scan for the bytes <= 32 gives all token
# bounds: four separators a line (Langdale & Lemire, VLDB J. 2019, find
# token bounds in one such pass).  Other chunks go through the general
# tokenizer.  Both hand the number tokens to the same kernels.  A number
# token is read through an unaligned uint64 view of the bytes as three
# words, word j in row j, its mantissa digits right-aligned and folded
# eight at a time (Lemire, Softw. Pract. Exp. 2021); the bytes of a class
# are counted and placed by multiplying their 0/1 lanes with constants.

_PAD = 24
_NL = b"\n" * _PAD
_CHUNK = 2 ** 17  # bytes per pass, whole lines; bounds the arrays
# Numbers per kernel call.  A float call holds about 300 bytes a number in
# temporaries, so this bounds them to 2.5 MB; reading the side-100
# catenoid OBJ took the same time with 8192 to 32768 and 5-10% more with
# 4096, which pays each call's fixed cost more often (2-vCPU VM).
_TOKENS = 2 ** 13
_WS = np.zeros(256, bool)
_WS[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_PLAIN = np.uint32(0x0A202020)  # " ", " ", " ", "\n" as a little-endian word
_LOW4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_FROM = np.array([[sum(0xFF << 8 * i for i in range(8) if 8 * j + i >= f)
                   for f in range(_PAD + 1)] for j in range(3)], np.uint64)
_ZEROS = np.uint64(0x3030303030303030)
_KEEP8 = _FROM[2, _PAD - 8:]  # row i: the 8 - i bytes of a short token
_ZPAD = ~_KEEP8 & _ZEROS  # and a '0' for each of the i bytes before it
_BACK = np.array([[_PAD], [_PAD - 8], [_PAD - 16]])  # word j starts 8 j in
_ONES = np.uint64(0x0101010101010101)
_AT = np.array([[sum((8 * j + i) << 8 * (7 - i) for i in range(8))]
                for j in range(3)], np.uint64)  # lane i of word j: 8 j + i
_HIGH4, _SIX = np.uint64(0xF0F0F0F0F0F0F0F0), np.uint64(0x0606060606060606)
_FOLD = (np.uint64(0x000000FF000000FF), np.uint64(0x000F424000000064),
         np.uint64(0x0000271000000001))
_POW10F = 10.0 ** np.arange(28)


def _total(lanes):
    """The number of set lanes of each token's three words."""
    total = ((lanes[0] + lanes[1] + lanes[2]) * _ONES) >> np.uint64(56)
    return total.astype(np.int64)


def _place(lanes):
    """The window position (0-23) of a token's one set lane."""
    at = (lanes * _AT) >> np.uint64(56)
    return (at[0] + at[1] + at[2]).astype(np.int64)


def _window(U, end, first):
    """The 24 bytes before end as three words, word j in row j, with the
    bytes before window position first cleared."""
    return U[end - _BACK] & _FROM.take(first, axis=1)


def _fold8(w):
    """The 8-digit number of eight digit bytes, the first most significant."""
    w = w * np.uint64(10) + (w >> 8)
    mask, m1, m2 = _FOLD
    return ((w & mask) * m1 + ((w >> 16) & mask) * m2) >> 32


def _cmp_mid(d, e, m, g):
    """sign(d 10^e - m 2^g), exactly, for |e| <= 27."""
    pos = e >= 0
    sign = np.where(pos, 1, -1)
    # d 5^e 2^(e-g) against m, or m 5^-e 2^(g-e) against d
    hi, lo = _mul128(np.where(pos, d, m), _POW5[np.abs(e)])
    h = sign * (e - g)
    ah, al = _shl128(hi, lo, np.maximum(h, 0).astype(np.uint64))
    bh, bl = _shl128(np.zeros_like(d), np.where(pos, m, d),
                     np.maximum(-h, 0).astype(np.uint64))
    gt = (ah > bh) | ((ah == bh) & (al > bl))
    lt = (ah < bh) | ((ah == bh) & (al < bl))
    return sign * (gt.astype(np.int8) - lt)


def _split_product(a, b, ab):
    """The rounding error a b - ab of ab = fl(a b), exactly (Dekker)."""
    t = 134217729.0 * a
    ah = t - (t - a)
    t = 134217729.0 * b
    bh = t - (t - b)
    al, bl = a - ah, b - bh
    return ((ah * bh - ab) + ah * bl + al * bh) + al * bl


def _nearest(d, e):
    """The double nearest d 10^e, ties to even, for 1 <= d < 10^19 and
    |e| <= 27.

    For -22 <= e < 0 a division gives the candidate q = fl(hi / 10^-e) of
    hi = fl(d), the exact remainder hi - q 10^-e gives d 10^e - q to within
    2^-50 units in the last place, and the candidate rounded with it is
    kept when that residual, 2^-20 of itself larger, still rounds away
    into it: then it is inside half a unit.  Every other number, ties and
    near-ties included, goes to the exact comparison of `_round`."""
    p = _POW10F[np.abs(e)]
    hi = d.astype(np.float64)
    lo = (d - hi.astype(np.uint64)).view(np.int64).astype(np.float64)
    q = hi / p
    qp = q * p
    resid = ((hi - qp) - _split_product(q, p, qp) + lo) / p
    c = q + resid
    resid -= c - q
    slow = np.flatnonzero((e >= 0) | (e < -22)
                          | (c + resid * (1 + 2.0 ** -20) != c))
    c[slow] = _round(d[slow], e[slow],
                     np.where(e[slow] >= 0, hi[slow] * p[slow], c[slow]))
    return c


def _round(d, e, c):
    """The double nearest d 10^e, ties to even, from a candidate c a few
    units in the last place off: c moves one unit at a time until d 10^e
    lies between the midpoints next to it."""
    todo = np.arange(len(d))
    while len(todo):
        dt, et, ct = d[todo], e[todo], c[todo]
        f, t = np.frexp(ct)
        m = (f * 2.0 ** 53).astype(np.uint64)
        g = t.astype(np.int64) - 54
        odd = (m & 1).astype(bool)
        above = _cmp_mid(dt, et, 2 * m + 1, g)
        edge = m == np.uint64(2 ** 52)  # the gap below is half as wide
        below = _cmp_mid(dt, et, np.where(edge, 4 * m - 1, 2 * m - 1),
                         g - edge)
        up = (above > 0) | ((above == 0) & odd)
        step = up | (below < 0) | ((below == 0) & odd)
        c[todo[step]] = np.nextafter(ct[step], np.where(up[step], np.inf, 0))
        todo = todo[step]
    return c


def _floats(b, U, start, end):
    """float64 values of the tokens b[start:end], and the indices of the
    tokens left to the per-token path.  A token is read here when it has
    the form [+-]d*[.d*][(e|E)[+-]d{1,3}] with at least one digit, at most
    24 bytes and 19 significant digits, and an exponent |E| <= 27 of its
    last digit."""
    n = len(start)
    size = end - start
    ok = size <= _PAD
    off = _PAD - np.minimum(size, _PAD)  # the token is window bytes off-23
    words = _window(U, end, off)
    M = words.view(np.uint8)
    digit = ((M - np.uint8(48)) < 10).view(np.uint64)  # 0/1 byte lanes
    valid = (M == 46).view(np.uint64)  # the point, then all of a number
    n_dot = _total(valid)
    dp = np.where(n_dot > 0, _place(valid), -1)  # where there is one
    valid += digit
    sign = ((M == 43) | (M == 45)).view(np.uint64)
    n_sign = _total(sign)
    valid += sign
    del sign
    e = (M | np.uint8(32)) == 101
    n_e = 0
    if e.any():  # few OBJ numbers have an exponent
        e = e.view(np.uint64)
        n_e = _total(e)
        valid += e
    ok &= _total(valid) == _PAD - off  # nothing else
    del valid
    head = b.take(start)
    neg = head == 45
    lead = neg | (head == 43)
    signs = lead.astype(np.int64)  # a sign may lead the token and the exponent
    ep, i = _PAD, ()  # the mantissa's end, and the tokens with an exponent
    if np.any(n_e):
        ep = np.where(n_e > 0, _place(e), _PAD)
        i = np.flatnonzero(n_e == 1)
        after = b.take(end[i] - _PAD + np.minimum(ep[i] + 1, _PAD - 1))
        signed = (after == 43) | (after == 45)
        signs[i] += signed
        digits = _PAD - 1 - ep[i] - signed
        ok[i[(digits < 1) | (digits > 3)]] = False
        tail = b[end[i, None] - [3, 2, 1]].astype(np.int64) - 48
        tail[np.arange(3) < 3 - digits[:, None]] = 0
        power = np.where(after == 45, -1, 1) * (tail @ [100, 10, 1])
        # the mantissa's own last three words
        back = _PAD - ep[i]
        words[:, i] = sub = _window(U, end[i] - back, off[i] + back)
        digit[:, i] = ((sub.view(np.uint8) - np.uint8(48)) < 10) \
            .view(np.uint64)
    ok &= (n_sign == signs) & (n_e <= 1) & (n_dot <= 1) & (dp < ep) \
        & (ep - off - lead - n_dot > 0)
    # the digits alone, the point read as a 0 digit
    x = _fold8(words & digit * np.uint64(0x0F))
    ok &= x[0] < 10 ** 3  # at most 19 digits, counting the point
    x = x[0] * _POW10[16] + x[1] * _POW10[8] + x[2]
    frac = np.where(n_dot > 0, ep - 1 - dp, 0)
    p = _POW10.take(np.minimum(frac, 18), mode="clip")  # 10 p fits
    d = np.where(n_dot > 0, x - 9 * (x // (10 * p)) * p, x)
    exp = -frac
    if len(i):
        exp[i] += power
    ok &= np.abs(exp) <= 27
    out = np.zeros(n)
    i = np.flatnonzero(ok & (d != 0))
    out[i] = _nearest(d[i], exp[i])
    return np.where(neg, -out, out), np.flatnonzero(~ok)


def _integers(U, start, end):
    """int64 values of the tokens b[start:end] of one to eight digits, and
    the indices of the other tokens, left to the per-token path."""
    size = end - start
    f = 8 - size  # bytes before the token, read as '0'
    w = U[end - 8] & _KEEP8.take(f, mode="clip") | _ZPAD.take(f, mode="clip")
    ok = (size <= 8) & ((w & _HIGH4) == _ZEROS) \
        & (((w + _SIX) & _HIGH4) == _ZEROS)
    return _fold8(w & _LOW4).astype(np.int64), np.flatnonzero(~ok)


def _number(token: bytes, integer: bool):
    """One token the vectorised path left: what np.loadtxt accepts, which is
    int() or float() without their '_' separators and non-ASCII digits."""
    if b"_" in token or not token.isascii():
        raise ValueError(f"could not convert {token!r} to a number")
    if not integer:
        return float(token)
    value = int(token)
    if not -2 ** 63 <= value < 2 ** 63:
        raise ValueError(f"{token!r} is out of the int64 range")
    return value


def _obj_bytes(path) -> bytes:
    """The file's bytes; other than ASCII, decoded as open() does and with
    every Unicode whitespace character made a space."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.isascii():
        return data
    with open(path, newline="") as fh:
        text = fh.read()
    space = {c: " " for c in range(128, 0x3001) if chr(c).isspace()}
    return text.translate(space).encode()


def obj_arrays(path):
    """The (n, 3) float64 vertices and 0-based (m, 3) int64 faces of the v
    and f records of an OBJ file."""
    data = memoryview(_obj_bytes(path))
    parts = []
    at = 0
    while at < len(data):  # whole lines, about _CHUNK bytes at a time
        end = data.obj.find(b"\n", at + _CHUNK) + 1 or len(data)
        parts.append(_obj_records(b"".join([_NL, data[at:end], _NL])))
        at = end
    verts = [p[0] for p in parts] or [np.empty((0, 3))]
    faces = np.concatenate([p[1] for p in parts]
                           or [np.empty((0, 3), np.int64)])
    faces -= 1
    return np.concatenate(verts), faces


def _obj_records(text: bytes):
    """The (n, 3) vertices and 1-based (m, 3) face indices of whole lines,
    given between _PAD newlines on each side."""
    b = np.frombuffer(text, np.uint8)
    # a '/' (face corner) or '#' (comment) cuts a token short, which only
    # the general tokenizer does, and a tab or CR would fail the plain scan
    # (write_obj writes none of them; a search is 3 us per chunk)
    plain = not any(c in text for c in (b"/", b"#", b"\t", b"\r"))
    bounds = _plain_bounds(b) if plain else None
    if bounds is None:
        if b"\r" in text:  # a lone \r ends a line; \r\n is whitespace and \n
            b = b.copy()
            b[np.flatnonzero((b[:-1] == 13) & (b[1:] != 10))] = 10
        bounds = _general_bounds(b, text)
    U = np.ndarray((len(b) - 7,), np.uint64, b, strides=(1,))
    out = []
    for (start, end), integer in zip(bounds, (False, True)):
        values = np.empty(len(start), np.int64 if integer else float)
        for i in range(0, len(start), _TOKENS):
            s, e = start[i:i + _TOKENS], end[i:i + _TOKENS]
            values[i:i + _TOKENS], slow = (_integers(U, s, e) if integer
                                           else _floats(b, U, s, e))
            for j in slow:
                values[i + j] = _number(b[s[j]:e[j]].tobytes(), integer)
        out.append(values.reshape(-1, 3))
    return out


def _plain_bounds(b):
    """The (start, end) bounds of the number tokens of the v and of the f
    records, when every line between the padding reads `key SP tok SP tok
    SP tok LF`; otherwise None."""
    end = len(b) - _PAD
    sep = np.flatnonzero(b[_PAD:end + (b[end - 1] != 10)] <= 32)
    if len(sep) % 4 or not len(sep) or sep[0] == 0:
        return None
    sep += _PAD
    if not ((b.take(sep).view("<u4") == _PLAIN).all()
            and (sep[1:] - sep[:-1] > 1).all()):  # no empty token
        return None
    lines = sep.reshape(-1, 4)
    key = np.where(b.take(lines[:, 0] - 2) == 10, b.take(lines[:, 0] - 1), 0)
    bounds = []
    for letter in (118, 102):
        rows = key == letter
        rows = lines if rows.all() else lines[rows]
        bounds.append(((rows[:, :3] + 1).ravel(), rows[:, 1:].ravel()))
    return bounds


def _general_bounds(b, text: bytes):
    """The (start, end) bounds of the number tokens of the v and then of
    the f records, yielded one after the other: the v numbers are read,
    and a bad one raises, before the f records are checked."""
    ws = b <= 32
    if np.any((b < 32) & (b != 10)):
        odd = np.flatnonzero(b < 32)  # tabs, \r and other control bytes
        ws[odd] = _WS[b[odd]]
    t = np.flatnonzero(ws[:-1] != ws[1:]) + 1
    start, end = t[0::2], t[1::2]
    # first token of a line: a newline in the whitespace before it
    first = b[start - 1] == 10
    first[:1] = True  # after the leading newlines
    i = np.flatnonzero(~first & ws[start - 2])
    if len(i):
        nl = np.flatnonzero(b == 10)
        first[i] = nl[np.searchsorted(nl, start[i]) - 1] >= end[i - 1]
    line = np.cumsum(first) - 1
    heads = np.flatnonzero(first)
    key = np.where(end[heads] - start[heads] == 1, b[start[heads]], 0)
    kind = key[line]
    keep = (kind != 0) & ~first
    cut = end
    if b"/" in text:  # a face corner a/b/c keeps a
        at = np.flatnonzero(b == 47)
        at = at[np.minimum(np.searchsorted(at, start), len(at) - 1)]
        cut = np.where((kind == 102) & (at >= start) & (at < cut), at, cut)
    if b"#" in text:  # a comment runs to the end of the line
        at = np.flatnonzero(b == 35)
        at = at[np.minimum(np.searchsorted(at, start), len(at) - 1)]
        hit = (at >= start) & (at < cut)
        cut = np.where(hit, at, cut)
        hit = np.flatnonzero(hit)
        prev = hit[np.maximum(np.searchsorted(hit, np.arange(len(start)))
                              - 1, 0)] if len(hit) else None
        if len(hit):
            keep &= ~((prev < np.arange(len(start))) & (line[prev] == line))
    keep = np.flatnonzero(keep & (cut > start))
    for letter in (118, 102):
        head = heads[key == letter]
        at = np.searchsorted(keep, head)
        if len(head) and (at[-1] + 2 >= len(keep) or np.any(
                line[keep[np.minimum(at + 2, len(keep) - 1)]] != line[head])):
            raise DomainError("an OBJ record holds fewer than three numbers")
        tok = keep[(at[:, None] + np.arange(3)).ravel()]
        yield start[tok], cut[tok]
