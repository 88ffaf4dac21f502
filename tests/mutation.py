"""Byte-level mutation of valid files, for fuzz tests of the parsers."""

from hypothesis import strategies as st


def edits(pieces, max_edits: int = 4):
    """One to `max_edits` edits (position, bytes cut there, piece put there).

    Positions wrap at the length of the data, and a cut of 10**6 truncates.
    """
    return st.lists(
        st.tuples(st.integers(0, 10**4), st.sampled_from([0, 0, 1, 2, 10**6]), st.sampled_from([b"", *pieces])),
        min_size=1,
        max_size=max_edits,
    )


def mutate(data: bytes, edit_list) -> bytes:
    """`data` with each edit of `edit_list` applied in turn."""
    for at, cut, piece in edit_list:
        at %= len(data) + 1
        data = data[:at] + piece + data[at + cut:]
    return data
