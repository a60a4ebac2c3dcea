"""Decimal text for integers of any size.

Python caps ``str(int)`` and ``int(str)`` at a process-wide number of digits
(4300 by default), and the iteration produces coordinates far past it.  These
two helpers split the number (or the text) by a power of ten and convert the
halves separately, so every piece handed to the builtins stays under 600
digits, which no setting of the cap refuses.  The cap itself is never changed.
"""

from __future__ import annotations

import re

# at most 579 digits: below the 640-digit floor of any int/str conversion cap
_DIRECT_BITS = 1920
_DIRECT_DIGITS = 579
_DECIMAL = re.compile(r"[+-]?[0-9]+\Z")


def int_to_decimal(n: int) -> str:
    """``str(n)`` for an int of any size."""
    if n < 0:
        return "-" + int_to_decimal(-n)
    if n.bit_length() <= _DIRECT_BITS:
        return str(n)
    # split near half the digit count; log10(2) < 0.30103
    half = n.bit_length() * 30103 // 200000
    hi, lo = divmod(n, 10 ** half)
    return int_to_decimal(hi) + int_to_decimal(lo).rjust(half, "0")


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
    half = len(text) // 2
    return _parse_digits(text[:-half]) * 10 ** half + _parse_digits(text[-half:])
