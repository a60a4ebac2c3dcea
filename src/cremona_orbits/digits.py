"""Decimal text for integers of any size.

Python caps ``str(int)`` and ``int(str)`` at a process-wide number of digits
(4300 by default), and the iteration produces coordinates far past it.  These
two helpers split the number (or the text) by a power of ten and convert the
halves separately, so every piece handed to the builtins stays under 600
digits, which no setting of the cap refuses.  The cap itself is never changed.
"""

from __future__ import annotations

import functools
import re

# at most 579 digits: below the 640-digit floor of any int/str conversion cap
_DIRECT_DIGITS = 579
_DIRECT_LIMIT = 10 ** _DIRECT_DIGITS
_DECIMAL = re.compile(r"[+-]?[0-9]+\Z")


@functools.cache
def _rung(j: int) -> int:
    """10 ** (579 * 2 ** j), a split point of ``int_to_decimal`` and ``_parse_digits``.

    A number of d digits needs the rungs j <= log2(d / 579), so the cache
    holds one rung per doubling of the widest number converted so far.
    """
    return 10 ** (_DIRECT_DIGITS << j)


def _top_rung(d: int) -> int:
    """The largest rung index j with 579 << j <= d, or 0: the one split rule of both directions."""
    return max(0, (d // _DIRECT_DIGITS).bit_length() - 1)


def int_to_decimal(n: int) -> str:
    """``str(n)`` for an int of any size."""
    if n < 0:
        return "-" + int_to_decimal(-n)
    if n < _DIRECT_LIMIT:
        return str(n)
    # the highest rung 10 ** width with width at most a lower bound of the
    # digit count of n less one (log10(2) > 0.30102): the rung is at most n, so
    # the high part is nonzero and writes no leading zero, and the low part
    # holds at least half the digits and splits at the next rung down
    j = _top_rung((n.bit_length() - 1) * 30102 // 100000)
    hi, lo = divmod(n, _rung(j))
    return int_to_decimal(hi) + int_to_decimal(lo).rjust(_DIRECT_DIGITS << j, "0")


def decimal_to_int(text: str) -> int:
    """The int written as optional sign and ASCII digits; ValueError otherwise."""
    text = text.strip()
    if not _DECIMAL.match(text):
        raise ValueError("not a decimal integer: %r" % (text[:40],))
    return _parse_digits(text.lstrip("+"))


def _parse_digits(text: str) -> int:
    if len(text) <= _DIRECT_DIGITS:
        return int(text)
    if text[0] == "-":
        return -_parse_digits(text[1:])
    # the highest rung 10 ** width with width below the length: the high part
    # keeps at least one digit and at most as many as the low part, which
    # splits at the next rung down
    j = _top_rung(len(text) - 1)
    width = _DIRECT_DIGITS << j
    return _parse_digits(text[:-width]) * _rung(j) + _parse_digits(text[-width:])
