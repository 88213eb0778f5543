"""graph6 codec: format vectors, error taxonomy, round trips."""

import random

import pytest
from hypothesis import given, strategies as st

from specgap import graph6
from specgap.graphs import Graph, complete, from_edges, pair_count


def test_known_encodings():
    assert graph6.encode(complete(2)) == "A_"
    assert graph6.encode(complete(3)) == "Bw"
    assert graph6.encode(complete(4)) == "C~"
    assert graph6.encode(Graph(2, 0)) == "A?"
    # the standard worked example: order 5, edges 02 04 13 34
    g = from_edges(5, [(0, 2), (0, 4), (1, 3), (3, 4)])
    assert graph6.encode(g) == "DQc"


def test_known_decodings():
    assert graph6.decode("A_") == complete(2)
    assert graph6.decode("Bw") == complete(3)
    assert graph6.decode("DQc") == from_edges(5, [(0, 2), (0, 4), (1, 3), (3, 4)])
    g = graph6.decode("BW")
    assert g.order == 3
    assert sorted(g.edges()) == [(0, 2), (1, 2)]


def test_header_and_whitespace():
    assert graph6.decode(">>graph6<<A_") == complete(2)
    assert graph6.decode("A_\n") == complete(2)
    assert graph6.decode("  Bw  ") == complete(3)


def test_long_form_orders():
    g = Graph(63, 0)
    s = graph6.encode(g)
    assert s.startswith("~??~")
    assert graph6.decode(s) == g
    # largest short-form order uses a single prefix byte
    assert graph6.encode(Graph(62, 0))[0] == "}"
    big = Graph(100, (1 << 70) | 1)
    assert graph6.decode(graph6.encode(big)) == big
    # the 4-byte length field tops out at 258047
    with pytest.raises(graph6.Graph6Error):
        graph6.encode(Graph(258048))


def test_decode_errors():
    with pytest.raises(graph6.InvalidCharError):
        graph6.decode("A!")
    with pytest.raises(graph6.InvalidCharError):
        graph6.decode("B\x7fw")
    with pytest.raises(graph6.TruncatedPayloadError):
        graph6.decode("D")          # order 5 needs 2 payload bytes
    with pytest.raises(graph6.Graph6Error):
        graph6.decode("")
    with pytest.raises(graph6.NonzeroPaddingError):
        graph6.decode("AO")         # order 2: only payload bit 0 may be set
    with pytest.raises(graph6.Graph6Error):
        graph6.decode("A__")        # trailing byte
    with pytest.raises(graph6.Graph6Error):
        graph6.decode("?")          # order 0
    with pytest.raises(graph6.Graph6Error):
        graph6.decode("~~??????")   # 8-byte order form is out of scope
    with pytest.raises(graph6.NonzeroPaddingError):
        graph6.decode("DQd")        # order 5: the last two payload bits pad
    # the exception classes form one catchable family
    assert issubclass(graph6.InvalidCharError, graph6.Graph6Error)
    assert issubclass(graph6.Graph6Error, ValueError)


def test_padding_is_zeroed_on_encode():
    # order 5 leaves two pad bits in the last byte; they must stay clear
    for bits in range(1 << pair_count(5)):
        s = graph6.encode(Graph(5, bits))
        assert (ord(s[-1]) - 63) & 0b11 == 0


@given(order=st.integers(1, 20), data=st.data())
def test_round_trip(order, data):
    bits = data.draw(st.integers(0, (1 << pair_count(order)) - 1))
    g = Graph(order, bits)
    assert graph6.decode(graph6.encode(g)) == g


@given(order=st.sampled_from([62, 63, 64, 200]), data=st.data())
def test_round_trip_boundary_orders(order, data):
    # a few random edges rather than a dense mask: keep payloads small
    n_edges = data.draw(st.integers(0, 8))
    edges = set()
    for _ in range(n_edges):
        j = data.draw(st.integers(1, order - 1))
        i = data.draw(st.integers(0, j - 1))
        edges.add((i, j))
    g = from_edges(order, edges)
    assert graph6.decode(graph6.encode(g)) == g


@pytest.mark.parametrize("text", ["B\u00e9", "\u00e9w", "B\udc80", "Bw\u00a0"])
def test_non_ascii_text_is_an_invalid_char(text):
    # a non-ASCII character must not stand in for a payload byte
    with pytest.raises(graph6.InvalidCharError, match="outside graph6 range"):
        graph6.decode(text)


def test_invalid_char_names_the_first_bad_byte():
    with pytest.raises(graph6.InvalidCharError) as err:
        graph6.decode(b"B\x19\x80")
    assert str(err.value) == "byte 25 outside graph6 range 63..126"


@given(order=st.integers(63, 130), seed=st.integers(0, 2**32 - 1))
def test_round_trip_long_form(order, seed):
    # random edge sets of any density on orders that need the 4-byte length
    n_bits = pair_count(order)
    g = Graph(order, random.Random(seed).getrandbits(n_bits))
    s = graph6.encode(g)
    assert s[0] == "~" and len(s) == 4 + (n_bits + 5) // 6
    assert graph6.decode(s) == g
    assert graph6.decode(s.encode()) == g


def test_round_trip_order_1000():
    # half a million vertex pairs: an encoder that touched the whole payload
    # once per edge would take minutes here
    n_bits = pair_count(1000)
    g = Graph(1000, random.Random(1000).getrandbits(n_bits))
    s = graph6.encode(g)
    assert s[:4] == "~?Ng" and len(s) == 4 + (n_bits + 5) // 6
    assert graph6.decode(s) == g


# bytes near the graph6 range, with the length and header forms mixed in
_NEAR_RANGE = st.lists(st.integers(58, 130), max_size=12).map(bytes)
_ANY_BYTES = st.one_of(
    st.binary(max_size=40),
    _NEAR_RANGE,
    st.tuples(st.sampled_from([b"", b"~", b">>graph6<<", b" ", b"\n"]),
              _NEAR_RANGE).map(b"".join),
)


@given(data=_ANY_BYTES)
def test_arbitrary_bytes_decode_or_raise_graph6_error(data):
    try:
        g = graph6.decode(data)
    except graph6.Graph6Error:
        return
    assert isinstance(g, Graph)
    assert graph6.decode(graph6.encode(g)) == g


@given(text=st.text(max_size=20))
def test_arbitrary_text_decodes_or_raises_graph6_error(text):
    try:
        g = graph6.decode(text)
    except graph6.Graph6Error:
        return
    assert isinstance(g, Graph)
    assert text.isascii()  # only ASCII text can spell a graph
