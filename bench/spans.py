"""In-memory spans and a step-by-step replica of ``seal``/``open``.

The traced run cannot look inside ``seal`` and ``open``, so it calls the
same public layer functions in the same order, each inside a span.  The
replica's wire bytes, plaintext and exception type are compared with
``seal``/``open`` on the same input; when they differ, the internals have
changed shape and the per-layer numbers are stale (the end-to-end numbers,
measured on ``seal``/``open`` themselves, stay valid).

A span is (op, span id, parent id, name, start ns, end ns, segment).
Spans of one top-level operation share the op id, which is the root
span's id.  A span's self time is its duration minus that of its direct
children.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from itertools import count
from time import perf_counter_ns

from gchw import analysis, auth, envelope, keyschedule
from gchw.ahuffman import decode as huffman_decode
from gchw.ahuffman import encode as huffman_encode
from gchw.bits import BitString
from gchw.blockcipher import decrypt_block, encrypt_block, partition, unpartition
from gchw.errors import (
    AuthenticationError,
    CorruptionError,
    KeyDerivationError,
    ParseError,
    SingularMatrixError,
)
from gchw.keyschedule import KeyMatrixPair
from gchw.matrix import SquareMatrix
from gchw.wavelet import haar2d_forward


class Tracer:
    """Records spans in memory; ``error_origin`` names the span that raised.

    Each span also carries the runner's host-speed segment, so its time can
    be scaled like the end-to-end timings and read in the same units.
    """

    def __init__(self):
        self.segment = 0
        self.spans = []
        self._stack = []
        self._ids = count()
        self.error_origin = None

    def span(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "op", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.sid = next(tr._ids)
        if tr._stack:
            self.parent = tr._stack[-1]
            self.op = self.parent.op
        else:
            self.parent = None
            self.op = self.sid
            tr.error_origin = None
        tr._stack.append(self)
        self.start = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = perf_counter_ns()
        tr = self.tracer
        tr._stack.pop()
        parent = None if self.parent is None else self.parent.sid
        tr.spans.append((self.op, self.sid, parent, self.name, self.start, end, tr.segment))
        # the innermost span an exception leaves first is where it was raised
        if exc is not None and (tr.error_origin is None or tr.error_origin[0] is not exc):
            tr.error_origin = (exc, self.name)
        return False


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def traced_derive(tr: Tracer, key) -> KeyMatrixPair:
    """``keyschedule.derive``, stage by stage."""
    with tr.span("keyschedule.derive"):
        with tr.span("keyschedule.base_transform"):
            with tr.span("recurrence.golden_base"):
                golden = keyschedule.golden_base(key)
            with tr.span("keyschedule.pad_to_z"):
                padded = keyschedule.pad_to_z(golden, key.level)
            with tr.span("wavelet.haar"):
                t = haar2d_forward(padded, key.level)
        z = t.order
        for attempt in range(keyschedule.MAX_ATTEMPTS):
            with tr.span("keyschedule.randomize"):
                rows = [list(row) for row in t.rows]
                stream = keyschedule._randomization_stream(key.seed, attempt)
                cells = [(i, j) for i in range(z) for j in range(z)]
                if attempt == 0:
                    cells = [(i, j) for i, j in cells if rows[i][j] == 0]
                for i, j in cells:
                    rows[i][j] += next(stream) % 255 + 1
                e = SquareMatrix(rows)
            try:
                with tr.span("matrix.inverse"):
                    e_inv = e.inverse()
            except SingularMatrixError:
                continue
            return KeyMatrixPair(e=e, e_inv=e_inv, z=z, scale_exp=2 * key.level, attempt=attempt)
        raise KeyDerivationError(
            f"no nonsingular matrix within {keyschedule.MAX_ATTEMPTS} attempts"
        )


def traced_seal(tr: Tracer, message: bytes, key):
    """``envelope.seal``, stage by stage; returns (envelope, key matrix pair)."""
    with tr.span("ahuffman.encode"):
        bits = huffman_encode(message)
    with tr.span("bits.pack"):
        compressed = bits.pack()
    with tr.span("auth.mac"):
        tag = auth.mac(key.mac_key, compressed)
    kp = traced_derive(tr, key)
    with tr.span("blockcipher.partition"):
        plain_blocks = partition(compressed, kp.z)
    with tr.span("blockcipher.encrypt"):
        blocks = tuple(encrypt_block(b, kp) for b in plain_blocks)
    env = envelope.CipherEnvelope(
        version=envelope.VERSION,
        z=kp.z,
        scale_exp=kp.scale_exp,
        plain_byte_count=len(message),
        compressed_bit_count=len(bits),
        compressed_symbol_count=len(message),
        blocks=blocks,
        tag=tag,
    )
    return env, kp


def traced_open(tr: Tracer, wire: bytes, key) -> bytes:
    """``deserialize`` then ``envelope.open``, stage by stage."""
    with tr.span("envelope.deserialize"):
        env = envelope.deserialize(wire)
    with tr.span("envelope.check"):
        if env.version != envelope.VERSION:
            raise ParseError(f"unsupported envelope version {env.version}")
    kp = traced_derive(tr, key)
    with tr.span("envelope.check"):
        if env.z != kp.z or env.scale_exp != kp.scale_exp:
            raise CorruptionError("envelope was sealed under different key parameters")
    with tr.span("keyschedule.adjugate"):
        kp.adjugate_scaled_cols
    with tr.span("blockcipher.decrypt"):
        plain_blocks = [decrypt_block(b, kp) for b in env.blocks]
    with tr.span("blockcipher.unpartition"):
        compressed = unpartition(plain_blocks, (env.compressed_bit_count + 7) // 8)
    with tr.span("auth.verify"):
        if not auth.verify(key.mac_key, compressed, env.tag):
            raise AuthenticationError("MAC tag mismatch: data attack or wrong key")
    with tr.span("bits.unpack"):
        bits = BitString.unpack(compressed, env.compressed_bit_count)
    with tr.span("ahuffman.decode"):
        message = huffman_decode(bits, env.compressed_symbol_count)
    with tr.span("envelope.check"):
        if len(message) != env.plain_byte_count:
            raise CorruptionError("decoded length does not match the recorded byte count")
    return message


def traced_analyze(tr: Tracer, message: bytes, key, seeds: int):
    """``analyze_message`` then the contrast seal and ``contrast_csv``."""
    reports = []
    baseline = None
    for index in range(seeds):
        with tr.span("analysis.seal"):
            env, _ = traced_seal(tr, message, analysis.seed_variant(key, index))
        with tr.span("analysis.stats"):
            series = analysis.cipher_series(env)
            n = min(len(message), len(series))
            plain = [float(b) for b in message[:n]]
            cipher = series[:n]
            corr = analysis.correlation(plain, cipher)
            t, p = analysis.paired_t(plain, cipher)
            if baseline is None:
                baseline = series
            ut, up = analysis.unpaired_t(series, baseline)
        reports.append(analysis.AnalysisReport(corr, t, p, ut, up, n))
    with tr.span("analysis.seal"):
        env, _ = traced_seal(tr, message, key)
    with tr.span("analysis.contrast_csv"):
        csv = analysis.contrast_csv(message, env)
    return reports, csv


# Per-call times are reported only from the ops where a layer does the
# workload's own work: the round trip for the cipher layers, the analysis
# and attack ops for theirs.
_CALL_OPS = {"analysis": ("analyze",), "attack": ("recover",)}
_ROUNDTRIP_OPS = ("seal", "open")


def summarize(spans, scales) -> dict:
    """Per-call medians, per-op self-time shares and coverage.

    ``scales[i]`` converts segment i's wall ns to host-normalized ns.
    """
    child_ns = defaultdict(int)
    op_kind = {}
    for op, sid, parent, name, start, end, _ in spans:
        if parent is None:
            op_kind[sid] = name
        else:
            child_ns[parent] += end - start
    calls = defaultdict(list)
    self_ns = defaultdict(lambda: defaultdict(int))
    root_ns = defaultdict(int)
    covered_ns = defaultdict(int)
    for op, sid, parent, name, start, end, segment in spans:
        kind = op_kind[op]
        duration = end - start
        self_ns[kind][layer_of(name)] += duration - child_ns[sid]
        if parent is None:
            root_ns[kind] += duration
            covered_ns[kind] += child_ns[sid]
        elif kind in _CALL_OPS.get(layer_of(name), _ROUNDTRIP_OPS):
            calls[name].append(duration * scales[segment])
    metrics = {}
    for name, durations in calls.items():
        if name.startswith("attack."):
            metrics[f"{name}_us"] = (statistics.median(durations) / 1e3, "us")
        else:
            metrics[f"{name}_ms"] = (statistics.median(durations) / 1e6, "ms")
    for kind, layers in self_ns.items():
        for layer, ns in layers.items():
            if layer != kind:
                metrics[f"{kind}.share.{layer}"] = (ns / root_ns[kind], "fraction")
    if root_ns:
        metrics["trace.coverage"] = (sum(covered_ns.values()) / sum(root_ns.values()), "fraction")
    return metrics
