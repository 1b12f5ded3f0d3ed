"""Closed loop over one workload: one client, one thread, every output checked.

Untraced runs time the public calls (``seal``+``serialize``,
``deserialize``+``open``, ``analyze_message``...).  Traced runs interleave
each untraced call with the step-by-step replica from ``spans`` on the same
input, alternating which goes first so host drift hits both alike; the
difference between the two is the tracing overhead.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

import gchw
import spans
from gchw.keyschedule import parse_key
from workloads import WORKLOADS

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
SETUP_REPEATS = 7

# name -> (unit, better); BENCHMARK.json lists the same metrics.
END_TO_END = {
    "seal_ms_p50": ("ms", "lower"),
    "seal_ms_p90": ("ms", "lower"),
    "open_ms_p50": ("ms", "lower"),
    "open_ms_p90": ("ms", "lower"),
    "roundtrip_MBps": ("MB/s", "higher"),
    "iteration_ms_p50": ("ms", "lower"),
    "wire_ratio": ("ratio", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_MiB": ("MiB", "lower"),
}
_SHARED_LAYERS = (
    "ahuffman",
    "bits",
    "auth",
    "keyschedule",
    "recurrence",
    "wavelet",
    "matrix",
    "blockcipher",
    "envelope",
)
PER_LAYER = {
    **{
        f"{name}_ms": ("ms", "lower")
        for name in (
            "keyschedule.derive",
            "keyschedule.base_transform",
            "recurrence.golden_base",
            "wavelet.haar",
            "keyschedule.randomize",
            "matrix.inverse",
            "keyschedule.adjugate",
        )
    },
    "keyschedule.attempts": ("count", "lower"),
    "keyschedule.det_bits": ("bits", "lower"),
    "keyschedule.max_entry_bits": ("bits", "lower"),
    "ahuffman.encode_ms": ("ms", "lower"),
    "ahuffman.decode_ms": ("ms", "lower"),
    "ahuffman.bits_per_byte": ("bits/B", "lower"),
    "bits.pack_ms": ("ms", "lower"),
    "bits.unpack_ms": ("ms", "lower"),
    "auth.mac_ms": ("ms", "lower"),
    "auth.verify_ms": ("ms", "lower"),
    "blockcipher.encrypt_ms": ("ms", "lower"),
    "blockcipher.decrypt_ms": ("ms", "lower"),
    "blockcipher.blocks": ("count", "lower"),
    "blockcipher.pad_fraction": ("fraction", "lower"),
    "envelope.serialize_ms": ("ms", "lower"),
    "envelope.deserialize_ms": ("ms", "lower"),
    "envelope.wire_bytes": ("B", "lower"),
    **{
        f"{op}.share.{layer}": ("fraction", "lower")
        for op in ("seal", "open")
        for layer in _SHARED_LAYERS
    },
    "trace.coverage": ("fraction", "higher"),
    "trace.overhead_ms": ("ms", "lower"),
    "trace.replica_ok": ("flag", "higher"),
    "host.ref_ms": ("ms", "lower"),
}
REJECT_LAYERS = ("envelope", "keyschedule", "blockcipher", "auth", "bits", "ahuffman")

# On a shared 2-vCPU host the same seal was seen to swing between about 150
# and 265 ms, in phases of seconds to tens of seconds, with process time
# tracking wall time.  A fixed pure-Python loop of the kinds of work gchw
# spends its time on (list updates, small sums, byte appends, Fraction
# elimination) slows by about the same factor.  It runs at checkpoints:
# before every iteration, between the seal and the open of a round trip,
# between the phases of a study session, and once at the end.  Each timing
# is scaled by REF_NOMINAL_MS / (mean of the loop times at the two
# checkpoints around it): the timed metrics read "ms at the host speed where
# the loop takes REF_NOMINAL_MS".  Wall-clock values are kept in the report
# as *_wall_*.
REF_NOMINAL_MS = 3.2


def reference_ms() -> float:
    """Time one pass of the fixed reference loop, in wall ms."""
    start = perf_counter_ns()
    m = [
        [Fraction((3 * i + j + 1) ** (1 + (i == j)), 1 << (i % 3)) for j in range(6)]
        for i in range(6)
    ]
    for col in range(6):
        pivot = 1 / m[col][col]
        m[col] = [x * pivot for x in m[col]]
        for r in range(6):
            if r != col:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    weights = list(range(64))
    nodes = [0] * 64
    acc = 0
    for i in range(2000):
        j = (i * 7) & 63
        k = (j + 1) & 63
        weights[j] += 1
        if weights[j] > weights[k]:
            nodes[j], nodes[k] = nodes[k], nodes[j]
        acc += sum(a * b for a, b in zip(weights[:8], nodes[:8]))
    out = bytearray()
    for i in range(1500):
        out.append((i * 31 + acc) & 255)
    return (perf_counter_ns() - start) / 1e6


# One set-up sample, in a fresh interpreter: import, key parse, first derive.
_SETUP_CODE = """
import sys, time
texts = sys.stdin.read().split("\\n\\n")
start = time.perf_counter()
import gchw
from gchw.keyschedule import parse_key
for text in texts:
    gchw.derive(parse_key(text))
print(time.perf_counter() - start)
"""


def host_scales(refs) -> list[float]:
    """Scale of segment i, from the loop times at its start (refs[i]) and end."""
    return [2 * REF_NOMINAL_MS / (before + after) for before, after in zip(refs, refs[1:])]


def measure_setup(key_texts) -> tuple[list[float], list[float]]:
    """Set-up times in fresh interpreters: (host-normalized s, wall s)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    wall = []
    refs = []
    for _ in range(SETUP_REPEATS):
        refs.append(reference_ms())
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE],
            input="\n".join(key_texts),
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
            check=True,
        )
        wall.append(float(done.stdout))
    refs.append(reference_ms())
    return [s * scale for s, scale in zip(wall, host_scales(refs))], wall


def ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def p50(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return p50(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Runner:
    """Times, checks and (when tracing) replicates each operation."""

    def __init__(self, tracer: spans.Tracer | None = None):
        self.tracer = tracer
        # name -> [(segment, ns)], scaled to host-normalized ms by finish()
        self.raw = defaultdict(list)
        self.samples = defaultdict(list)
        self.refs = []
        self.segment = 0
        self.roundtrip_bytes = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.mismatches = []
        self.digest = hashlib.sha256()
        self.exact = defaultdict(int)
        self.key_facts = []
        self.residual = 0.0
        self._traced_first = False

    def checkpoint(self) -> None:
        """Time the reference loop; later timings belong to a new segment."""
        self.refs.append(reference_ms())
        self.segment = len(self.refs) - 1
        if self.tracer is not None:
            self.tracer.segment = self.segment

    def _record(self, name: str, ns: int) -> None:
        self.raw[name].append((self.segment, ns))

    def finish(self, scales) -> None:
        """Turn the raw timings into host-normalized ms samples."""
        for name, timings in self.raw.items():
            self.samples[name] = [ns / 1e6 * scales[i] for i, ns in timings]

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)

    def _mismatch(self, what: str) -> None:
        if len(self.mismatches) < 5:
            self.mismatches.append(what)

    def _replica(self, fn, *args):
        """Run a replica; returns (result, exception, span that raised it, ns)."""
        tr = self.tracer
        start = perf_counter_ns()
        try:
            result = fn(tr, *args)
        except Exception as exc:  # compared with what the untraced call did
            origin = tr.error_origin[1] if tr.error_origin else None
            return None, exc, origin, perf_counter_ns() - start
        return result, None, None, perf_counter_ns() - start

    def _paired(self, untraced, fn, *args):
        """Run the untraced call and, when tracing, its replica in alternating order.

        An exception escaping either is returned, not raised, so the caller
        can count it: a replica that breaks only marks the trace stale.
        """
        if self.tracer is None:
            return _capture(untraced), None
        self._traced_first = not self._traced_first
        if self._traced_first:
            replica = self._replica(fn, *args)
            return _capture(untraced), replica
        outcome = _capture(untraced)
        return outcome, self._replica(fn, *args)

    def roundtrip(self, message: bytes, key, exact: bool):
        """seal+serialize, then deserialize+open; returns the wire bytes."""

        def call():
            t0 = perf_counter_ns()
            wire = gchw.serialize(gchw.seal(message, key))
            seal = (self.segment, perf_counter_ns() - t0)
            # a checkpoint between the two, so each is scaled by the host
            # speed right around it
            self.checkpoint()
            t1 = perf_counter_ns()
            plain = gchw.open_envelope(gchw.deserialize(wire), key)
            return wire, plain, seal, (self.segment, perf_counter_ns() - t1)

        self.attempted += 1
        (outcome, exc), replica = self._paired(call, _traced_roundtrip, message, key)
        if exc is not None:
            self._fail(f"round trip raised {type(exc).__name__}: {exc}")
            return None
        wire, plain, seal, open_ = outcome
        if plain != message:
            self._fail("round trip returned different bytes")
            return None
        self.raw["seal_ms"].append(seal)
        self.raw["open_ms"].append(open_)
        self.roundtrip_bytes.append(len(message))
        if exact:
            self.digest.update(wire)
            self.exact["plain_bytes"] += len(message)
            self.exact["wire_bytes"] += len(wire)
        if replica is not None:
            self._check_roundtrip(replica, message, wire, seal[1] + open_[1], exact)
        return wire

    def _check_roundtrip(self, replica, message, wire, untraced_ns, exact):
        result, error, _, traced_ns = replica
        if error is not None:
            self._mismatch(f"round-trip replica raised {type(error).__name__}: {error}")
            return
        env, kp, traced_wire, traced_plain = result
        if traced_wire != wire or traced_plain != message:
            self._mismatch("round-trip replica disagrees with seal/open")
            return
        self._record("traced_roundtrip_ms", traced_ns)
        self._record("untraced_roundtrip_ms", untraced_ns)
        if exact:
            cells = env.z * env.z
            self.exact["compressed_bits"] += env.compressed_bit_count
            self.exact["blocks"] += len(env.blocks)
            self.exact["cells"] += len(env.blocks) * cells
            self.exact["pad_cells"] += len(env.blocks) * cells - (env.compressed_bit_count + 7) // 8
            biggest = max(abs(v) for row in kp.e_scaled for v in row)
            self.key_facts.append(
                (kp.attempt + 1, kp.det_scaled.bit_length(), biggest.bit_length())
            )

    def reject(self, forged: bytes, key, exact: bool) -> None:
        """deserialize+open of a forged envelope; must raise a typed error."""

        def call():
            t0 = perf_counter_ns()
            try:
                gchw.open_envelope(gchw.deserialize(forged), key)
            except gchw.GchwError as exc:
                return exc, perf_counter_ns() - t0
            return None, perf_counter_ns() - t0

        self.attempted += 1
        (outcome, exc), replica = self._paired(call, _traced_reject, forged, key)
        if exc is not None:
            self._fail(f"forged envelope raised untyped {type(exc).__name__}: {exc}")
            return
        error, elapsed = outcome
        if error is None:
            self._fail("forged envelope was accepted")
            return
        self._record("reject_ms", elapsed)
        if replica is None:
            return
        _, traced_error, origin, _ = replica
        if type(traced_error) is not type(error):
            got = type(traced_error).__name__
            self._mismatch(f"reject replica raised {got}, open raised {type(error).__name__}")
        elif exact:
            self.exact[f"{spans.layer_of(origin)}.rejected"] += 1

    def analyze(self, text: bytes, key, seeds: int) -> None:
        """analyze_message, then the contrast seal and contrast_csv, as ``gchw analyze``."""

        def call():
            t0 = perf_counter_ns()
            reports = gchw.analyze_message(text, key, seeds=seeds)
            env = gchw.seal(text, key)
            csv = gchw.contrast_csv(text, env)
            return reports, env, csv, perf_counter_ns() - t0

        self.attempted += 1
        (outcome, exc), replica = self._paired(call, _traced_analyze, text, key, seeds)
        if exc is not None:
            self._fail(f"analysis raised {type(exc).__name__}: {exc}")
            return
        reports, env, csv, elapsed = outcome
        rows = 1 + max(len(text), len(env.blocks) * env.z * env.z)
        sane = all(
            -1.0 <= r.correlation <= 1.0 and 0.0 <= r.paired_p <= 1.0 and 0.0 <= r.unpaired_p <= 1.0
            for r in reports
        )
        if len(reports) != seeds or not sane or csv.count("\n") != rows:
            self._fail("analysis output is malformed")
            return
        self._record("analyze_ms", elapsed)
        if replica is not None:
            result, error, _, _ = replica
            if error is not None or result != (reports, csv):
                self._mismatch("analysis replica disagrees with analyze_message/contrast_csv")

    def recover(self, x: float, exact: bool) -> None:
        """recover_x on the Stakhov ciphertext of the unit matrix M1."""
        c1 = gchw.stakhov_encrypt(gchw.attack.M1, x)

        def call():
            t0 = perf_counter_ns()
            result = gchw.recover_x(c1)
            return result, perf_counter_ns() - t0

        self.attempted += 1
        (outcome, exc), replica = self._paired(call, _traced_recover, c1)
        if exc is not None:
            self._fail(f"recover_x raised {type(exc).__name__}: {exc}")
            return
        result, elapsed = outcome
        if not abs(result.recovered_x - x) <= 1e-9:
            self._fail(f"recover_x missed: {result.recovered_x!r} != {x!r}")
            return
        self._record("recover_ms", elapsed)
        if exact:
            self.residual = max(self.residual, result.residual)
        if replica is not None and replica[0] != result:
            self._mismatch("recover replica disagrees with recover_x")


def _capture(fn, *args):
    """(result, None), or (None, exception) for any exception fn raises."""
    try:
        return fn(*args), None
    except Exception as exc:  # counted by the caller, never hidden
        return None, exc


def _traced_roundtrip(tr, message, key):
    with tr.span("seal"):
        env, kp = spans.traced_seal(tr, message, key)
        with tr.span("envelope.serialize"):
            wire = gchw.serialize(env)
    with tr.span("open"):
        plain = spans.traced_open(tr, wire, key)
    return env, kp, wire, plain


def _traced_reject(tr, forged, key):
    with tr.span("reject"):
        return spans.traced_open(tr, forged, key)


def _traced_analyze(tr, text, key, seeds):
    with tr.span("analyze"):
        return spans.traced_analyze(tr, text, key, seeds)


def _traced_recover(tr, c1):
    with tr.span("recover"):
        with tr.span("attack.recover"):
            return gchw.recover_x(c1)


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the final-line result plus a full report."""
    wl = WORKLOADS[workload]
    key_texts = wl.key_texts(seed)
    setup, setup_wall = ([], []) if trace else measure_setup(key_texts)
    keys = [parse_key(text) for text in key_texts]
    runner = Runner(spans.Tracer() if trace else None)
    first_segments = []
    iteration_ns = []
    deadline = perf_counter_ns() + int(seconds * 1e9)
    index = 0
    while index < wl.exact_items or perf_counter_ns() < deadline:
        item = wl.item(seed, index, keys)
        runner.checkpoint()
        first_segments.append(runner.segment)
        start = perf_counter_ns()
        wl.run(runner, item, index < wl.exact_items)
        iteration_ns.append(perf_counter_ns() - start)
        index += 1
    runner.checkpoint()
    first_segments.append(runner.segment)
    refs = runner.refs
    scales = host_scales(refs)
    runner.finish(scales)
    # an iteration may span several segments: scale it by every loop time
    # from its first checkpoint to the one after it
    iteration_ms = [
        ns / 1e6 * REF_NOMINAL_MS / statistics.fmean(refs[first : after + 1])
        for ns, first, after in zip(iteration_ns, first_segments, first_segments[1:])
    ]

    s = runner.samples
    ex = runner.exact
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "iterations": index,
        "samples": {name: len(values) for name, values in sorted(s.items())},
        "failures": runner.failures,
        "exact": {
            "wire_digest": runner.digest.hexdigest(),
            "wire_ratio": ratio(ex["wire_bytes"], ex["plain_bytes"]),
        },
    }
    if workload == "study-L3":
        report["exact"]["attack.residual"] = runner.residual
    found = {
        "error_rate": (runner.failed / runner.attempted, "fraction"),
        "host.ref_ms": (p50(refs), "ms"),
    }
    if trace:
        found.update(_per_layer(runner, wl, scales))
        report["exact"].update(_exact_trace_counts(runner))
        report["replica_mismatches"] = runner.mismatches
        wanted = PER_LAYER
    else:
        found.update(
            {
                "seal_ms_p50": (p50(s["seal_ms"]), "ms"),
                "seal_ms_p90": (p90(s["seal_ms"]), "ms"),
                "open_ms_p50": (p50(s["open_ms"]), "ms"),
                "open_ms_p90": (p90(s["open_ms"]), "ms"),
                "roundtrip_MBps": (
                    ratio(sum(runner.roundtrip_bytes), sum(s["seal_ms"]) + sum(s["open_ms"])) / 1e3,
                    "MB/s",
                ),
                "iteration_ms_p50": (p50(iteration_ms), "ms"),
                "wire_ratio": (report["exact"]["wire_ratio"], "ratio"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_MiB": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            }
        )
        if workload == "study-L3":
            found["reject_ms_p50"] = (p50(s["reject_ms"]), "ms")
            found["reject_ms_p90"] = (p90(s["reject_ms"]), "ms")
            found["analyze_ms_p50"] = (p50(s["analyze_ms"]), "ms")
            found["recover_us_p50"] = (p50(s["recover_ms"]) * 1e3, "us")
        for name in ("seal_ms", "open_ms"):
            wall = [ns / 1e6 for _, ns in runner.raw[name]]
            found[name.replace("_ms", "_wall_ms_p50")] = (p50(wall), "ms")
        found["setup_wall_s"] = (statistics.median(setup_wall), "s")
        report["setup_s_samples"] = setup
        wanted = END_TO_END
    report["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in sorted(found.items())}
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": found.get(name, (0.0,))[0], "unit": unit}
            for name, (unit, _) in wanted.items()
        },
        "report": report,
    }


def _exact_trace_counts(runner: Runner) -> dict:
    """Counts over the exact items; zero where no replica matched (stale trace)."""
    ex = runner.exact
    attempts, det_bits, entry_bits = zip(*runner.key_facts) if runner.key_facts else ((), (), ())
    counts = {
        "ahuffman.bits_per_byte": ratio(ex["compressed_bits"], ex["plain_bytes"]),
        "blockcipher.blocks": ex["blocks"],
        "blockcipher.pad_fraction": ratio(ex["pad_cells"], ex["cells"]),
        "envelope.wire_bytes": ex["wire_bytes"],
        "keyschedule.attempts": ratio(sum(attempts), len(attempts)),
        "keyschedule.det_bits": max(det_bits, default=0),
        "keyschedule.max_entry_bits": max(entry_bits, default=0),
    }
    if any(key.endswith(".rejected") for key in ex):
        counts.update({f"{layer}.rejected": ex[f"{layer}.rejected"] for layer in REJECT_LAYERS})
    return counts


def _per_layer(runner: Runner, wl, scales) -> dict:
    s = runner.samples
    found = dict(spans.summarize(runner.tracer.spans, scales))
    units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    for name, value in _exact_trace_counts(runner).items():
        if name in units or name.endswith(".rejected"):
            found[name] = (value, units.get(name, "count"))
    overhead = p50(s["traced_roundtrip_ms"]) - p50(s["untraced_roundtrip_ms"])
    found["trace.overhead_ms"] = (overhead, "ms")
    found["trace.replica_ok"] = (0 if runner.mismatches else 1, "flag")
    if wl.name == "study-L3":
        found["attack.residual"] = (runner.residual, "abs")
    return found
