"""Hypothesis strategy for corrupting binary files, shared by the fuzz tests."""

from hypothesis import strategies as st

# one corruption of a file: keep a prefix, or flip one bit; positions are
# drawn from the header more often than the payload
CORRUPTION = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 2 ** 16), st.just(0)),
    st.tuples(st.just("flip"), st.one_of(st.integers(0, 40), st.integers(0, 2 ** 16)),
              st.integers(0, 7)),
)


def corrupt(blob: bytes, op) -> bytes:
    kind, pos, bit = op
    pos %= len(blob)
    if kind == "truncate":
        return blob[:pos]
    return blob[:pos] + bytes([blob[pos] ^ (1 << bit)]) + blob[pos + 1:]
