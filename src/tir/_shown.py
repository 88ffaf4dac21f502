"""How an error message shows a value it rejects: whole when short, by its size when long.

A message names a long value instead of echoing it, and never fails on one:
Python's `str()` of an int refuses past 4300 digits.
"""

from __future__ import annotations

import math

SHOWN_WHOLE = 40  # the most characters, or digits, shown whole


def _digits(value: int) -> int:
    """The number of decimal digits of abs(value), found without str()."""
    magnitude = abs(value)
    digits = int(magnitude.bit_length() * math.log10(2)) + 1  # exact or one too many
    return digits - (magnitude < 10 ** (digits - 1))


def shown(value, form=repr) -> str:
    """`form(value)`, unless `value` is a str of more than 40 characters or an int of more than 40 digits.

    Such a str is shown by its first 20 characters and its length, and such
    an int by its sign and its number of digits.
    """
    if isinstance(value, str) and len(value) > SHOWN_WHOLE:
        return f"{value[:SHOWN_WHOLE // 2]!r}... ({len(value)} characters)"
    if isinstance(value, int) and abs(value) >= 10**SHOWN_WHOLE:
        return f"{'a negative' if value < 0 else 'an'} integer of {_digits(value)} digits"
    return form(value)
