"""Hostile request heads: every exchange ends in one well-formed reply.

``ServingApp.handle`` is driven over in-memory streams with
Hypothesis-built input: random bytes, bare-LF line ends, truncated heads
and bodies, and signed, huge, non-ASCII or conflicting
``Content-Length`` fields.  Whatever arrives, the connection must end in
exactly one well-formed HTTP/1.1 response whose status is one the
server means to send (no 500: a route bug would show as one), or in a
silent close when the client connected and sent nothing.  No exception
may escape the handler.

The server reads a request as a state machine fed one socket read at a
time, so the same bytes are also delivered in any split, one byte at a
time included: the reply must not depend on where the reads fell.
"""

from __future__ import annotations

import asyncio
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import LTCConfig
from repro.core.kernels import build_ltc
from repro.serve.server import ServingApp, _Connection

ALLOWED = {200, 400, 404, 405, 413, 503}

_STATUS = re.compile(rb"HTTP/1\.1 (\d{3}) [A-Za-z ]+\Z")


class _Sink:
    """The writer half of a connection, kept in memory."""

    def __init__(self) -> None:
        self.data = bytearray()
        self.eof = False
        self.closed = False

    def write(self, data: bytes) -> None:
        assert not self.eof and not self.closed
        self.data += data

    def write_eof(self) -> None:
        self.eof = True

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        self.closed = True


def _app() -> ServingApp:
    app = ServingApp(
        build_ltc(LTCConfig(num_buckets=4, bucket_width=2, items_per_period=16))
    )
    app.ltc.insert_many(list(range(12)))
    return app


def _exchange(data: bytes) -> bytes:
    """Send ``data`` then EOF to a fresh app; return what it wrote."""
    app = _app()
    sink = _Sink()

    async def run() -> None:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        await app.handle(reader, sink)  # type: ignore[arg-type]

    asyncio.run(run())
    assert sink.closed
    if sink.data:
        assert sink.eof
    return bytes(sink.data)


def _assert_one_response(out: bytes) -> int:
    head, sep, payload = out.partition(b"\r\n\r\n")
    assert sep, out
    status_line, *fields = head.split(b"\r\n")
    match = _STATUS.match(status_line)
    assert match, status_line
    status = int(match.group(1))
    assert status in ALLOWED, out
    names = [field.partition(b":")[0].lower() for field in fields]
    assert names.count(b"content-length") == 1
    length = next(
        int(field.partition(b":")[2]) for field in fields
        if field.lower().startswith(b"content-length:")
    )
    # The declared length is the whole rest: nothing follows the reply.
    assert length == len(payload)
    assert b"connection: close" in head.lower()
    return status


METHODS = st.sampled_from(["GET", "POST", "PUT", "get", "", "G\x00T", "POST\xff"])
TARGETS = st.one_of(
    st.sampled_from(
        [
            "/healthz", "/stats", "/top_k?k=3", "/top_k?k=-1", "/top_k?k=1_0",
            "/query/5", "/query/-5", "/query/\xd9\xa5", "/significant?threshold=1",
            "/significant?threshold=nan", "/ingest", "/snapshot", "/metrics",
            "//[x", "http://[::1", "*", "/%zz", "/top_k?k=" + "9" * 5000,
        ]
    ),
    st.text(alphabet=st.characters(min_codepoint=0x21, max_codepoint=0xFF), max_size=40),
)
LENGTH_VALUES = st.one_of(
    st.integers(0, 64).map(str),
    st.sampled_from(
        ["-5", "+5", "1_0", " 7", "7 ", "\x0b7", "\xb2", "\xa07", "0x10", "", "007",
         "9" * 30, "9" * 5000, "16777217", "18446744073709551616"]
    ),
)
FIELD = st.one_of(
    LENGTH_VALUES.map(lambda v: "Content-Length: " + v),
    LENGTH_VALUES.map(lambda v: "content-LENGTH:" + v),
    st.sampled_from(["Host: t", "X: \xff\xfe", "no colon", ": empty name", " "]),
)
BODIES = st.one_of(
    st.binary(max_size=64),
    st.sampled_from(
        [b'{"items": [1, 2, 3]}', b'{"items": [1], "counts": [2]}',
         b"[" * 5000, b'{"items": [-1]}', b'{"items": [1e400]}']
    ),
)


@st.composite
def requests(draw) -> bytes:
    """A request head (well-formed or not) and a body (whole or cut)."""
    eol = draw(st.sampled_from(["\r\n", "\n", "\r"]))
    line = f"{draw(METHODS)} {draw(TARGETS)} HTTP/1.1"
    fields = draw(st.lists(FIELD, max_size=4))
    head = eol.join([line, *fields]) + eol + eol
    raw = head.encode("latin-1", "replace")
    raw += draw(BODIES)
    cut = draw(st.one_of(st.none(), st.integers(0, len(raw))))
    return raw if cut is None else raw[:cut]


@settings(max_examples=400, deadline=None)
@given(data=st.one_of(st.binary(max_size=200), requests()))
@example(data=b"")
@example(data=b"GET //[x HTTP/1.1\r\n\r\n")
@example(data=b"POST /ingest HTTP/1.1\r\nContent-Length: 5000\r\n\r\n" + b"[" * 5000)
@example(data=b"POST /ingest HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}")
@example(data=b"GET /healthz HTTP/1.1\r\nHost: " + b"x" * 70000 + b"\r\n\r\n")
def test_every_exchange_ends_in_one_well_formed_reply(data):
    out = _exchange(data)
    if not data:
        assert out == b""  # a bare connect is closed silently
    else:
        _assert_one_response(out)


def test_unclosed_ipv6_authority_is_400():
    # urlsplit raises on "//[x"; that used to surface as a 500.
    out = _exchange(b"GET //[x HTTP/1.1\r\n\r\n")
    assert _assert_one_response(out) == 400


def test_deeply_nested_ingest_body_is_400():
    # json.loads raises RecursionError, not ValueError, past its nesting
    # limit; that used to surface as a 500.
    body = b"[" * 100_000
    out = _exchange(
        b"POST /ingest HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body) + body
    )
    assert _assert_one_response(out) == 400


def test_body_shorter_than_content_length_is_400():
    # EOF inside the body used to drop the connection unanswered.
    out = _exchange(b"POST /ingest HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}")
    assert _assert_one_response(out) == 400
    assert b"shorter than Content-Length" in out


# ------------------------------------------------------------- chunking
def _deliver(chunks) -> bytes:
    """Feed ``chunks`` to a fresh connection's ``data_received`` one by
    one, then EOF; return what it wrote."""
    app = _app()
    sink = _Sink()

    async def run() -> None:
        conn = _Connection(app)
        conn.connection_made(sink)  # type: ignore[arg-type]
        for chunk in chunks:
            conn.data_received(chunk)
        conn.eof_received()
        conn.connection_lost(None)

    asyncio.run(run())
    assert sink.closed
    return bytes(sink.data)


@st.composite
def deliveries(draw):
    """The bytes of one exchange and a split of them into chunks: at
    random points, or one byte at a time."""
    data = draw(st.one_of(st.binary(max_size=200), requests()))
    if draw(st.booleans()):
        cuts = list(range(1, len(data)))
    else:
        cuts = sorted(draw(st.sets(st.integers(1, max(1, len(data) - 1)))))
    bounds = [0, *(cut for cut in cuts if cut < len(data)), len(data)]
    return data, [data[a:b] for a, b in zip(bounds, bounds[1:])]


def _bytewise(data: bytes):
    return data, [data[i : i + 1] for i in range(len(data))]


def _padded_head(end: int) -> bytes:
    """A GET whose head's CRLF CRLF starts ``end`` bytes in."""
    line = b"GET /healthz HTTP/1.1\r\nX-Pad: "
    return line + b"a" * (end - len(line)) + b"\r\n\r\n"


@settings(max_examples=300, deadline=None)
@given(delivery=deliveries())
@example(delivery=_bytewise(b"GET /healthz HTTP/1.1\r\n\r\n"))
@example(delivery=(b"GET / HTTP/1.1\r\n\r\n", [b"GET / HTTP/1.1\r\n\r", b"\n"]))
@example(delivery=_bytewise(b"POST /ingest HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}"))
@example(delivery=_bytewise(_padded_head(64 * 1024)))
@example(delivery=_bytewise(_padded_head(64 * 1024 + 1)))
@example(delivery=_bytewise(b"GET /healthz HTTP/1.1\r\nHost: " + b"x" * 70000))
def test_any_split_answers_as_one_delivery(delivery):
    # Streams hid chunk boundaries; the state machine sees every one.
    # Whatever the split, the connection must write what it writes when
    # the same bytes arrive in one piece.
    data, chunks = delivery
    assert b"".join(chunks) == data
    assert _deliver(chunks) == _deliver([data] if data else [])


def test_head_bound_is_readuntils():
    # The head may end (its CRLF CRLF start) at most 64 KiB in, as with
    # StreamReader.readuntil's default limit; a byte later is a 400.
    assert _assert_one_response(_deliver([_padded_head(64 * 1024)])) == 200
    out = _deliver([_padded_head(64 * 1024 + 1)])
    assert _assert_one_response(out) == 400 and b"too large" in out
    # Without a CRLF CRLF, 64 KiB + 3 bytes may still grow into a head;
    # one more byte cannot, and is refused before EOF.
    sink = _Sink()

    async def run(size: int) -> None:
        conn = _Connection(_app())
        conn.connection_made(sink)  # type: ignore[arg-type]
        conn.data_received(b"G" * size)
        conn.connection_lost(None)

    asyncio.run(run(64 * 1024 + 3))
    assert not sink.data and not sink.closed
    asyncio.run(run(64 * 1024 + 4))
    assert _assert_one_response(bytes(sink.data)) == 400 and sink.closed
