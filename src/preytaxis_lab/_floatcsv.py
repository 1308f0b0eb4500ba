"""Float CSV fields, byte for byte ``'%.17g' % x``, formatted with NumPy.

The all-float tables (timeseries.csv, snapshots.csv, final_state.csv,
curves.csv) are formatted about 4096 values per pass (``_Fields``).  For
finite x with 1e-11 <= |x| < 1e17 the decimal exponent k is exact from a
table of the smallest doubles at or above each power of ten.
|x| * 10**(16 - k) is formed in long double, where the power is exact and
the product correctly rounded, then truncated and rounded to the 17-digit
integer N; a scaled fraction of exactly 0.5 may hide a decimal tie and
leaves the value to Python.  N's digits come from a table of four-digit
groups, and word masks looked up by k and N's trailing zeros place the
point, the sign, the "0.000" prefix and the "e-NN" suffix of %g's two
forms.  Zero, subnormals, inf, values out of that range, ties, and every
value where long double has no 64-bit significand take ``'%.17g' % x``;
NaN is an empty field.
"""

import math

import numpy as np

# Float fields.  A field is 32 bytes, four uint64 words: the sign in byte
# 0, "0." and the zeros of 0.000ddd in bytes 1-5, the digits in bytes 6-23
# with the point, if any, after the digit it follows, "e-NN" in bytes
# 24-27 and the separator in byte 31; NUL bytes fill the rest and are
# deleted when the lines are joined.  kc = k + 12 indexes the tables by the
# decimal exponent k of x, -11 <= k <= 16 (kc 0 is below that range).

# A long double with a 64-bit (x87) or 113-bit (IEEE quad) significand
# holds 10**27 and every half-integer below 2**58 exactly and rounds each
# product correctly, which the digits' proof needs.  Elsewhere (a long
# double that is a double, or IBM double-double) every value takes '%.17g'.
_LONG_DOUBLE = np.finfo(np.longdouble).nmant in (63, 112)


def _at_least_power_of_ten(j: int) -> float:
    """The smallest double >= 10**j."""
    d = float(f"1e{j}")
    num, den = d.as_integer_ratio()
    below = num * 10**-j < den if j < 0 else num < den * 10**j
    return math.nextafter(d, math.inf) if below else d


# |x| >= _TEN[i] exactly when |x| >= 10**(i - 11), for i = 0..29
_TEN = np.array([_at_least_power_of_ten(j) for j in range(-11, 19)])
# By biased binary exponent b: kc of 2**(b - 1023), clipped to [0, 29].  A
# value's kc is this or one more, which one comparison with _TEN decides.
_KC_OF_EXPONENT = np.minimum(
    np.maximum(np.floor((np.arange(2048) - 1023) * math.log10(2)) + 12, 0), 29
).astype(np.int64)
# 10**(28 - kc) for kc = 1..28, exact in a long double (entry 0 unused)
_SCALE = np.concatenate(([1], np.cumprod(np.full(28, 10, np.longdouble))))[::-1]
# For q = 0..9999: its four ASCII digits, the first in the lowest byte,
# and how many of them are trailing zeros (all four for q = 0).
_D = np.arange(10, dtype=np.uint64)
_DIGITS4 = (
    (_D[:, None, None, None] + 48)
    | (_D[:, None, None] + 48) << np.uint64(8)
    | (_D[:, None] + 48) << np.uint64(16)
    | (_D + 48) << np.uint64(24)
).ravel()
_Z = np.arange(10) == 0
_TRAILING_ZEROS4 = (
    _Z * (1 + _Z[:, None] * (1 + _Z[:, None, None] * (1 + _Z[:, None, None, None])))
).ravel()


def _field_tables():
    """Byte masks and fixed characters of a field as uint64 word tables:
    head[w][kc] keeps digits up to the point, tail[w][kc * 17 + tz] the
    digits after it that are followed by a nonzero digit (tz trailing zeros
    of 17), shifted one byte up, fixed[w][kc * 17 + tz] holds the point and
    the "0.000" prefix, and suffix[kc] the exponent and the separator."""
    k = np.arange(29)[:, None, None] - 12
    # the digit the point follows; -1 where "0." comes before the digits
    point = np.where(k >= 0, k, np.where(k < -4, 0, -1))
    last = np.maximum(16 - np.arange(17)[None, :, None], point)
    b = np.arange(24)
    head = (b >= 6) & (b <= 6 + point)
    tail = (b >= point + 8) & (b <= last + 7)
    dot = (b == point + 7) & (point >= 0) & (last > point)
    prefix = (b >= k + 5) & (b <= 5) & (k >= -4) & (k < 0)
    fixed = np.where(dot | (prefix & (b == k + 6)), 46, np.where(prefix, 48, 0))

    def words(mask, fill=255):
        w = (mask * fill).astype(np.uint8).reshape(-1, 24).view(np.uint64)
        return [w[:, i].copy() for i in range(3)]

    suffix = np.zeros((29, 8), np.uint8)
    suffix[:, 7] = 44
    sci = np.arange(29) - 12 < -4
    e = 12 - np.arange(29)[sci]
    suffix[sci, 0], suffix[sci, 1] = 101, 45  # "e-"
    suffix[sci, 2], suffix[sci, 3] = 48 + e // 10, 48 + e % 10
    return words(head), words(tail), words(fixed, 1), suffix.view(np.uint64).ravel()


_HEAD, _TAIL, _FIXED, _SUFFIX = _field_tables()
_COMMA = np.uint64(44 << 56)  # a field's last word without an exponent
_NEWLINE = np.uint64((44 ^ 10) << 56)  # XOR turns the separator into "\n"
_CHUNK = 4096  # values formatted per pass
_U8, _U24, _U45, _U48, _U56 = (np.uint64(v) for v in (8, 24, 45, 48, 56))


class _Fields:
    """Scratch arrays for formatting up to ``size`` float64 values per call
    as 32-byte fields, so a table's chunks reuse them instead of
    allocating (fresh pages cost more than the arithmetic)."""

    def __init__(self, size: int):
        self.size = size
        self.f64 = np.empty((2, size))
        self.ld = np.empty((2, size), np.longdouble)
        self.flags = np.empty((2, size), bool)
        self.i64 = np.empty((11, size), np.int64)
        self.u64 = np.empty((8, size), np.uint64)

    def write(self, x: np.ndarray, out: np.ndarray):
        """Write the fields of the C-contiguous float64 array ``x`` into
        ``out``, an x.shape + (4,) uint64 array: each is '%.17g' % value,
        empty for NaN, with NULs between its characters and "," last."""
        xs = x.reshape(-1)
        m = xs.size
        words = self.u64[4:, :m]
        bad = np.flatnonzero(~self._digits(xs)) if _LONG_DOUBLE else np.arange(m)
        if bad.size:
            text = b"".join(
                ("%.17g" % v if v == v else "").encode().ljust(24, b"\0")
                for v in xs[bad].tolist()
            )
            words[:3, bad] = np.frombuffer(text, np.uint64).reshape(-1, 3).T
            words[3, bad] = _COMMA
        for i in range(4):
            out[..., i] = words[i].reshape(x.shape)

    def _digits(self, xs: np.ndarray) -> np.ndarray:
        """Fill self.u64[4:] with the fields of ``xs``; returns the mask
        of values whose digits are proven right.

        k is exact from the thresholds, so X = |x| * 10**(16 - k) lies in
        [1e16, 1e17).  Its long-double product s is X correctly rounded,
        and rounding is monotone with n + 0.5 on the grid, so s rounds to
        the same nearest integer N as X unless s is exactly n + 0.5 (then
        '%.17g' decides the tie).  No double in range rounds up to 1e17:
        the largest one below each power of ten keeps 17 digits."""
        m = xs.size
        ax, th = self.f64[:, :m]
        s, frac = self.ld[:, :m]
        ok, flag = self.flags[:, :m]
        e, kk, kc, n, a, hi, lo, q1, q3, tmp, idx = self.i64[:, :m]
        g, t0, t1, t2, w0, w1, w2, w3 = self.u64[:, :m]
        np.abs(xs, out=ax)
        np.right_shift(ax.view(np.int64), 52, out=e)
        np.take(_KC_OF_EXPONENT, e, out=kk, mode="clip")
        np.take(_TEN, kk, out=th, mode="clip")
        np.greater_equal(ax, th, out=flag)
        np.add(kk, flag, out=kk)
        np.clip(kk, 1, 28, out=kc)
        np.equal(kk, kc, out=ok)
        # values out of range are scaled as zeros, so no cast sees a NaN
        np.logical_not(ok, out=flag)
        np.copyto(ax, 0.0, where=flag)
        np.take(_SCALE, kc, out=s, mode="clip")
        np.multiply(ax, s, out=s)
        np.copyto(n, s, casting="unsafe")
        np.subtract(s, n, out=frac)
        np.not_equal(frac, 0.5, out=flag)
        np.logical_and(ok, flag, out=ok)
        np.greater(frac, 0.5, out=flag)
        np.add(n, flag, out=n)
        # N = a, then digits 1-16 as four groups q1, hi, q3, lo
        np.floor_divide(n, 10**16, out=a)
        np.multiply(a, 10**16, out=tmp)
        np.subtract(n, tmp, out=lo)
        np.floor_divide(lo, 10**8, out=hi)
        np.multiply(hi, 10**8, out=tmp)
        np.subtract(lo, tmp, out=lo)
        np.floor_divide(hi, 10**4, out=q1)
        np.multiply(q1, 10**4, out=tmp)
        np.subtract(hi, tmp, out=hi)
        np.floor_divide(lo, 10**4, out=q3)
        np.multiply(q3, 10**4, out=tmp)
        np.subtract(lo, tmp, out=lo)
        # the digits at bytes 6-22 of w0-w2, and shifted one byte up in t0-t2
        np.add(a, 48, out=a)
        np.left_shift(a.view(np.uint64), _U48, out=w0)
        np.take(_DIGITS4, q1, out=g, mode="clip")
        np.left_shift(g, _U56, out=t0)
        np.bitwise_or(w0, t0, out=w0)
        np.right_shift(g, _U8, out=w1)
        np.take(_DIGITS4, hi, out=g, mode="clip")
        np.left_shift(g, _U24, out=t0)
        np.bitwise_or(w1, t0, out=w1)
        np.take(_DIGITS4, q3, out=g, mode="clip")
        np.left_shift(g, _U56, out=t0)
        np.bitwise_or(w1, t0, out=w1)
        np.right_shift(g, _U8, out=w2)
        np.take(_DIGITS4, lo, out=g, mode="clip")
        np.left_shift(g, _U24, out=t0)
        np.bitwise_or(w2, t0, out=w2)
        np.left_shift(w2, _U8, out=t2)
        np.right_shift(w1, _U56, out=g)
        np.bitwise_or(t2, g, out=t2)
        np.left_shift(w1, _U8, out=t1)
        np.right_shift(w0, _U56, out=g)
        np.bitwise_or(t1, g, out=t1)
        np.left_shift(w0, _U8, out=t0)
        # trailing zeros of N: those of its last group, or more where
        # that group is 0000
        np.take(_TRAILING_ZEROS4, lo, out=tmp, mode="clip")
        np.equal(lo, 0, out=flag)
        if flag.any():
            z = np.flatnonzero(flag)
            tz = _TRAILING_ZEROS4
            q3z, hiz, q1z = q3[z], hi[z], q1[z]
            tmp[z] += tz[q3z] + (q3z == 0) * (tz[hiz] + (hiz == 0) * tz[q1z])
        np.multiply(kc, 17, out=idx)
        np.add(idx, tmp, out=idx)
        for w, t, head, tail, fixed in zip((w0, w1, w2), (t0, t1, t2), _HEAD, _TAIL, _FIXED):
            np.take(head, kc, out=g, mode="clip")
            np.bitwise_and(w, g, out=w)
            np.take(tail, idx, out=g, mode="clip")
            np.bitwise_and(t, g, out=t)
            np.bitwise_or(w, t, out=w)
            np.take(fixed, idx, out=g, mode="clip")
            np.bitwise_or(w, g, out=w)
        np.signbit(xs, out=flag)
        np.multiply(flag, _U45, out=g)
        np.bitwise_or(w0, g, out=w0)
        np.take(_SUFFIX, kc, out=w3, mode="clip")
        return ok


class _Lines:
    """A reused buffer of ``rows`` lines of ``width`` fields (uint64 words
    in a bytearray, which ``translate`` reads without a copy)."""

    def __init__(self, rows: int, width: int):
        self.buf = bytearray(rows * width * 32)
        self.words = np.frombuffer(self.buf, np.uint64).reshape(rows, width, 4)

    def text(self, rows: int) -> str:
        """The first ``rows`` lines with the NULs deleted.  The last field
        of each, written anew since the last call, ends the line."""
        self.words[:rows, -1, 3] ^= _NEWLINE
        buf = self.buf if rows == len(self.words) else self.buf[: self.words[:rows].nbytes]
        return buf.translate(None, b"\0").decode("ascii")


def state_lines(x: np.ndarray, states, with_time: bool):
    """(text, rows) blocks of a state table for ``_write_csv``: a line
    ``t,x,u,v`` (``x,u,v`` without time) per cell for each (t, u, v) in
    ``states``.  x is formatted once per table and t once per state; a
    block is a chunk of states whose u and v are formatted together."""
    states = list(states)
    n, j = x.size, int(with_time)  # j: the x field's index in a line
    per = max(1, _CHUNK // (2 * n))
    fields = _Fields(per * 2 * n)
    lines = _Lines(per * n, j + 3)
    line = lines.words.reshape(per, n, j + 3, 4)
    fields.write(x, line[0, :, j])
    line[1:, :, j] = line[0, :, j]
    if with_time:
        times = np.array([st[0] for st in states])
        t_words = np.empty((len(states), 4), np.uint64)
        for start in range(0, len(states), fields.size):
            piece = slice(start, start + fields.size)
            fields.write(times[piece], t_words[piece])
    uv = np.empty((per, 2, n))
    for start in range(0, len(states), per):
        c = min(per, len(states) - start)
        for i, (_, u, v) in enumerate(states[start : start + c]):
            uv[i, 0], uv[i, 1] = u, v
        if with_time:
            line[:c, :, 0] = t_words[start : start + c, None]
        fields.write(uv[:c], line[:c, :, j + 1 :].transpose(0, 2, 1, 3))
        yield lines.text(c * n), c * n


def column_lines(columns):
    """(text, rows) blocks for ``_write_csv`` of a table whose fields are
    the equal-length float arrays ``columns``."""
    values = np.array(columns, dtype=float).T.copy()
    rows, width = values.shape
    per = max(1, _CHUNK // width)
    fields = _Fields(per * width)
    lines = _Lines(per, width)
    for start in range(0, rows, per):
        block = values[start : start + per]
        fields.write(block, lines.words[: len(block)])
        yield lines.text(len(block)), len(block)
