"""Exact whole-array conversion of OBJ text, for meshes.write_obj and
meshes.read_obj.

OBJ numbers are converted exactly, whole arrays at a time.  The writer
forms the 17 significant digits D of each coordinate as the
round-half-even of |x| 10^(16-k) from an exact 128-bit product of its
53-bit significand and 5^(16-k), and spells out the '%.17g' text by one
gather from a table of templates.  The reader splits the file into
tokens, folds each number's digits to an integer D and exponent E, and
rounds D 10^E to the nearest double, ties to even, with an error-free
float residual and, in close cases, the same exact products.  The output
is byte for byte that of '%.17g' % x and of float(token).  Coordinates
with 1e-11 <= |x| < 2^52, or 0, and tokens of at most 24 bytes and 19
significant digits with |E| <= 27 take this path; the rest (subnormals,
very large or small values, inf, nan, long or odd tokens) go one by one
through '%.17g' % x and float(), which raises the ValueError np.loadtxt
raised.  On the side-100 catenoid, helicoid and CMC meshes at alpha 0.5
to 4 the per-number path takes no number.

meshes imports this module when it first writes or reads OBJ.  Compiled
at package import, its source cost every nilcat process, OBJ or not,
about 13 ms of start-up without a bytecode cache and 1.7 MB of peak RSS
(solve-period: setup 0.229 -> 0.243 s, RSS 37.0 -> 38.7 MB in ten
benchmark runs each).
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


# Writer.  Each number gets 40 source bytes: its decimal digits in five
# 4-character groups (bytes 0-19; D's 17 digits are bytes 3-19 and the sign
# replaces byte 2) and the constant bytes of _CONST (bytes 20-39).  A
# template row of source columns, chosen by the number's place in its line,
# its decimal exponent k and the index L of its last nonzero digit, spells
# out the text; the zero bytes it pads with are dropped at the end.

_TINY = 1.0000000000000001e-11  # least double >= 1e-11: k >= -11, q <= 27
_HUGE = 2.0 ** 52  # below it m 5^q 2^(e+q) needs only a right shift
_KMIN, _KMAX = -11, 15
_FIELD = 24  # widest '%.17g' text: -2.2250738585072014e-308
_CONST = b" .e-0123456789vf\n\0\0\0"
_BLOCK = 3 * 2 ** 11  # numbers per pass, whole lines; bounds the index array
_DIGITS = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + 48) \
    .astype(np.uint8)
_TAB4 = _DIGITS.view("<u4").ravel()  # "%04d" % g as four bytes
_TZ4 = np.count_nonzero(np.cumprod(_DIGITS[:, ::-1] == 48, axis=1),
                        axis=1).astype(np.uint8)


def _col(ch: bytes) -> int:
    return 20 + _CONST.index(ch)


def _float_columns():
    """Source columns of the '%.17g' text of D 10^(k-16), 10^16 <= D < 10^17
    or D = 0, as a (k - _KMIN, L, _FIELD) table."""
    J = np.arange(_FIELD)
    L = np.arange(17)[:, None]
    pad, dot, zero = _col(b"\0"), _col(b"."), _col(b"0")
    digit = list(range(3, 20))
    table = []
    for k in range(_KMIN, _KMAX + 1):
        tail = []
        if k >= 0:  # k + 1 digits before the point
            full = [2] + digit[:k + 1] + [dot] + digit[k + 1:]
            n = 2 + k + (L > k) * (L - k + 1)
        elif k >= -4:  # 0.000ddd
            full = [2, zero, dot] + [zero] * (-k - 1) + digit
            n = 3 - k + L
        else:  # d.ddde-XX
            full = [2, digit[0], dot] + digit[1:]
            n = 2 + (L > 0) * (L + 1)
            tail = [_col(b"e"), _col(b"-")] + [_col(bytes([c]))
                                               for c in b"%02d" % -k]
        full = np.array(full + [pad] * (_FIELD - len(full)))
        row = np.where(J < n, full[J], pad)
        if tail:
            row = np.where((J >= n) & (J < n + 4),
                           np.array(tail)[np.clip(J - n, 0, 3)], row)
        table.append(row)
    return np.array(table, np.uint8).reshape(-1, _FIELD)


def _int_columns():
    """Source columns of a positive integer of nd digits, by nd."""
    J = np.arange(_FIELD)
    nd = np.arange(21)[:, None]
    return np.where(J < nd, 20 - nd + J, _col(b"\0")).astype(np.uint8)


def _line_table(fields, key: bytes):
    """Per place in the line, "key " before the first field, " " before the
    others and a newline after the last: (3 * len(fields), 2 + _FIELD + 1)."""
    pad, space = _col(b"\0"), _col(b" ")
    parts = []
    for pre, post in (((_col(key), space), pad), ((pad, space), pad),
                      ((pad, space), _col(b"\n"))):
        n = len(fields)
        parts.append(np.concatenate(
            [np.broadcast_to(np.array(pre, np.uint8), (n, 2)), fields,
             np.full((n, 1), post, np.uint8)], axis=1))
    return np.concatenate(parts)


_V_TABLE = _line_table(_float_columns(), b"v")
_F_TABLE = _line_table(_int_columns(), b"f")
_V_WIDTH = np.count_nonzero(_V_TABLE[:, 2:-1] != _col(b"\0"), axis=1)


def _digit_source(values, groups):
    """Source rows of uint64 values below 10^(4 groups), and their 4-digit
    groups from the lowest."""
    src = np.empty((len(values), 40), np.uint8)
    words = src.view("<u4")
    words[:, 5:] = np.frombuffer(_CONST, "<u4")
    low = []
    for j in range(4, 5 - groups, -1):
        values, g = np.divmod(values, 10000)
        words[:, j] = _TAB4[g]
        low.append(g)
    words[:, 5 - groups] = _TAB4[values]
    return src, low


def _scale(m, e, k):
    """floor(m 2^e 10^(16 - k)) and the round-half-even increment, for
    m 2^e in [_TINY, _HUGE) and k in [_KMIN, _KMAX]."""
    q = 16 - k
    hi, lo = _mul128(m, _POW5[q])
    s = (-e - q).astype(np.uint64)  # 0 <= s <= 63
    hi, lo = (hi << 1) | (lo >> 63), lo << 1
    r = (lo >> s) | (hi << (64 - s))  # the floor and the bit below it
    floor = r >> 1
    sticky = (lo & ((np.uint64(1) << s) - 1)) != 0
    return floor, r & (sticky | floor) & 1


def _float_text(x):
    """OBJ vertex lines of the coordinates x, three per line."""
    a = np.abs(x)
    fast = (a >= _TINY) & (a < _HUGE)
    zero = a == 0
    a = np.where(fast, a, 1.0)
    f, e = np.frexp(a)
    m = (f * 2.0 ** 53).astype(np.uint64)
    e = e - 53
    k = np.clip(np.floor(np.log10(a)), _KMIN, _KMAX).astype(np.int64)
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
    src, groups = _digit_source(d, 5)
    src[:, 2] = np.where(np.signbit(x), 45, 0)
    last = np.full(len(x), 16)  # index of the last nonzero digit
    run = np.ones(len(x), bool)
    for g in groups:
        last -= run * _TZ4[g]
        run &= g == 0
    rows = np.arange(len(x)) % 3 * (len(_V_TABLE) // 3) \
        + (k - _KMIN) * 17 + last
    slow = np.flatnonzero(~(fast | zero))
    text = _text(src, _V_TABLE, rows,
                 _FIELD if len(slow) else _V_WIDTH[rows].max())
    for i in slow:
        field = _g17(x[i]).ljust(_FIELD, b"\0")
        text[i, 2:2 + _FIELD] = np.frombuffer(field, np.uint8)
    return text.tobytes().translate(None, b"\0")


def _g17(x) -> bytes:
    """One number the vectorised path left, as '%.17g' writes it."""
    return ("%.17g" % x).encode()


def _int_text(v):
    """OBJ face lines of the positive int64 indices v, three per line."""
    v = v.astype(np.uint64)
    nd = np.searchsorted(_POW10[1:], v, side="right") + 1
    width = nd.max()
    src, _ = _digit_source(v, -(-width // 4))
    text = _text(src, _F_TABLE,
                 np.arange(len(v)) % 3 * (len(_F_TABLE) // 3) + nd, width)
    return text.tobytes().translate(None, b"\0")


def _text(src, table, rows, width):
    """Row i of the text is src[i, table[rows[i]]], keeping the first width
    columns of the number's field; zeros are padding."""
    idx = table[:, np.r_[:2 + width, -1]][rows] \
        + np.arange(0, src.size, src.shape[1])[:, None]
    return np.take(src, idx)


def obj_bytes(vertices, faces) -> bytes:
    """The OBJ text of (n, 3) float64 vertices and 0-based int faces."""
    x = vertices.ravel()
    f = (faces + 1).ravel()
    return b"".join(
        [_float_text(x[i:i + _BLOCK]) for i in range(0, len(x), _BLOCK)]
        + [_int_text(f[i:i + _BLOCK]) for i in range(0, len(f), _BLOCK)])


# Reader.  The file is read as uint8 arrays of whole lines; a token is a
# run of bytes that are not whitespace (str.isspace), and a line ends at
# \n, \r\n or a lone \r.  A `v` or `f` record is a line whose first token
# is that letter; its numbers are the next three tokens on the line, after
# '#' starts a comment and, in `f` records, after the '/' of a corner
# 'a/b/c' drops the rest of the token.  A number token is read through an
# unaligned uint64 view of the bytes: its mantissa digits right-aligned in
# three words and folded eight at a time (Lemire, Softw. Pract. Exp.
# 2021), with the point read as a 0 digit and taken out afterwards.

_PAD = 24
_CHUNK = 2 ** 17  # bytes per pass, whole lines; bounds the arrays
_WS = np.zeros(256, bool)
_WS[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_LOW4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_FROM = np.array([[sum(0xFF << 8 * i for i in range(8) if 8 * j + i >= f)
                   for j in range(3)] for f in range(_PAD + 1)], np.uint64)
_BYTE = np.zeros((_PAD + 1, 3), np.uint64)  # row i + 1: byte i alone
for _i in range(_PAD):
    _BYTE[_i + 1, _i // 8] = 0xFF << 8 * (_i % 8)
_HIGH4, _ZEROS, _SIX = (np.uint64(0x0101010101010101 * c)
                        for c in (0xF0, 0x30, 0x06))
_FOLD = (np.uint64(0x000000FF000000FF), np.uint64(0x000F424000000064),
         np.uint64(0x0000271000000001))
_POW10F = 10.0 ** np.arange(28)
_ONES = np.uint64(0x0101010101010101)
_POS = np.arange(_PAD, dtype=np.uint8)


def _count(mask):
    """Sum of each row of an (n, 24) array of small bytes, below 256."""
    w = mask.view(np.uint64)
    return (((w[:, 0] + w[:, 1] + w[:, 2]) * _ONES) >> 56).astype(np.int64)


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
    kept when that residual is inside half a unit by a margin of 2^-20 of
    one.  Every other number, ties and near-ties included, goes to the
    exact comparison of `_round`."""
    p = _POW10F[np.abs(e)]
    hi = d.astype(np.float64)
    lo = (d - hi.astype(np.uint64)).view(np.int64).astype(np.float64)
    q = hi / p
    qp = q * p
    resid = ((hi - qp) - _split_product(q, p, qp) + lo) / p
    c = q + resid
    resid -= c - q
    f = np.frexp(c)[0]
    half = np.spacing(c) * np.where((f == 0.5) & (resid < 0), 0.25, 0.5)
    slow = np.flatnonzero((e >= 0) | (e < -22)
                          | ~(np.abs(resid) < half * (1 - 2.0 ** -20)))
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
    off = _PAD - np.minimum(size, _PAD)
    words = np.stack([U[end - _PAD + 8 * j] for j in range(3)], axis=1)
    words &= _FROM[off]  # the token is bytes off-23 of its last 3 words
    M = words.view(np.uint8)
    digit = (M - np.uint8(48)) < 10
    dot = M == 46
    e = (M | np.uint8(32)) == 101
    sign = (M == 43) | (M == 45)
    n_dot, n_e = _count(dot), _count(e)
    ok &= _count(digit | dot | e | sign) == _PAD - off
    dp = np.where(n_dot > 0, _count(dot * _POS), -1)  # where there is one
    ep = np.where(n_e > 0, _count(e * _POS), _PAD)  # the mantissa's end
    neg = b[start] == 45
    lead = neg | (b[start] == 43)
    signs = lead.astype(np.int64)  # a sign may lead the token and the exponent
    i = np.flatnonzero(n_e == 1)
    signed = M[i, np.minimum(ep[i] + 1, _PAD - 1)]
    signs[i] += (signed == 43) | (signed == 45)
    ok &= _count(sign) == signs
    ok &= (n_e <= 1) & (n_dot <= 1) & (dp < ep) & (ep - off - lead - n_dot > 0)
    first = off + lead
    if len(i):  # with an exponent, the mantissa's own last three words
        first[i] += _PAD - ep[i]
        dp[i] += np.where(dp[i] >= 0, _PAD - ep[i], 0)
        words[i] = np.stack([U[end[i] - 2 * _PAD + ep[i] + 8 * j]
                             for j in range(3)], axis=1)
    # the digits from the first, the point read as a 0 digit
    words &= _FROM[np.minimum(first, _PAD)] \
        & ~_BYTE[np.minimum(dp, _PAD - 1) + 1] & _LOW4
    w = words.T
    ok &= (w[0] & np.uint64(0xFFFFFFFFFF)) == 0  # below 10^19
    x = _fold8(w[0]) * _POW10[16] + _fold8(w[1]) * _POW10[8] + _fold8(w[2])
    frac = np.where(n_dot > 0, _PAD - 1 - dp, 0)
    p = _POW10[np.clip(frac, 0, 18)]
    d = np.where(n_dot > 0, x - 9 * (x // (10 * p)) * p, x)
    exp = -frac
    if len(i):
        digits = _PAD - ep[i] - 1 - ((signed == 43) | (signed == 45))
        ok[i[(digits < 1) | (digits > 3)]] = False
        tail = b[end[i, None] - [3, 2, 1]].astype(np.int64) - 48
        tail[np.arange(3) < 3 - digits[:, None]] = 0
        value = tail @ [100, 10, 1]
        exp[i] += np.where(signed == 45, -value, value)
    ok &= np.abs(exp) <= 27
    out = np.zeros(n)
    i = np.flatnonzero(ok & (d != 0))
    out[i] = _nearest(d[i], exp[i])
    return np.where(neg, -out, out), np.flatnonzero(~ok)


def _integers(U, start, end):
    """int64 values of the tokens b[start:end] of one to eight digits, and
    the indices of the other tokens, left to the per-token path."""
    size = end - start
    keep = _FROM[np.maximum(8 - size, 0), 0]  # the high bytes of a word
    w = U[end - 8] & keep
    ok = (size <= 8) & ((w & _HIGH4) == (_ZEROS & keep)) \
        & (((w + (_SIX & keep)) & _HIGH4) == (_ZEROS & keep))
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
    data = _obj_bytes(path)
    parts = []
    at = 0
    while at < len(data):  # whole lines, about _CHUNK bytes at a time
        end = data.find(b"\n", at + _CHUNK) + 1 or len(data)
        parts.append(_obj_records(data[at:end]))
        at = end
    verts = [p[0] for p in parts] or [np.empty((0, 3))]
    faces = [p[1] for p in parts] or [np.empty((0, 3), np.int64)]
    return np.concatenate(verts), np.concatenate(faces) - 1


def _obj_records(data: bytes):
    """The (n, 3) vertices and 1-based (m, 3) face indices of whole lines."""
    b = np.frombuffer(b"\n" * _PAD + data + b"\n" * _PAD, np.uint8)
    if b"\r" in data:  # a lone \r ends a line; \r\n is whitespace and \n
        b = b.copy()
        b[np.flatnonzero((b[:-1] == 13) & (b[1:] != 10))] = 10
    ws = b <= 32
    if np.any((b < 32) & (b != 10)):
        odd = np.flatnonzero(b < 32)  # tabs, \r and other control bytes
        ws[odd] = _WS[b[odd]]
    U = np.ndarray((len(b) - 7,), np.uint64, b, strides=(1,))
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
    if b"/" in data:  # a face corner a/b/c keeps a
        at = np.flatnonzero(b == 47)
        at = at[np.minimum(np.searchsorted(at, start), len(at) - 1)]
        cut = np.where((kind == 102) & (at >= start) & (at < cut), at, cut)
    if b"#" in data:  # a comment runs to the end of the line
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
    out = []
    for letter, integer in ((118, False), (102, True)):
        head = heads[key == letter]
        at = np.searchsorted(keep, head)
        if len(head) and (at[-1] + 2 >= len(keep) or np.any(
                line[keep[np.minimum(at + 2, len(keep) - 1)]] != line[head])):
            raise DomainError("an OBJ record holds fewer than three numbers")
        tok = keep[(at[:, None] + np.arange(3)).ravel()]
        values, slow = (_integers(U, start[tok], cut[tok]) if integer
                        else _floats(b, U, start[tok], cut[tok]))
        for j in slow:
            values[j] = _number(b[start[tok[j]]:cut[tok[j]]].tobytes(),
                                integer)
        out.append(values.reshape(-1, 3))
    return out
