"""Corrupted binary files, shared by the fuzz and hostile-input tests."""

import struct

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


# RNSS contents that disagree with themselves while every size still holds
STORE_INCONSISTENCIES = ("class count", "entry vector", "accumulator")


def break_store(blob: bytes, case: str) -> bytes:
    """The RNSS file with class 0's count off by one, the first entry
    vector holding a nan, or the first accumulator holding an inf."""
    C, d, n_lam = struct.unpack_from("<III", blob, 5)
    (n,) = struct.unpack_from("<Q", blob, 17 + 8 * n_lam)
    records = 25 + 8 * n_lam
    accumulators = records + n * (20 + 4 * d)
    counts = accumulators + 4 * C * d
    out = bytearray(blob)
    if case == "class count":
        struct.pack_into("<Q", out, counts, struct.unpack_from("<Q", blob, counts)[0] + 1)
    elif case == "entry vector":
        struct.pack_into("<f", out, records + 20, float("nan"))
    else:
        struct.pack_into("<f", out, accumulators, float("inf"))
    return bytes(out)
