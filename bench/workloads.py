"""Seeded inputs and the three benchmark workloads.

Every input is a pure function of (workload, seed, iteration index), so two
runs with one seed see the same messages, keys and bit flips, whatever the
host speed.  Keys are made as key-file text (README "Formats"), so the
benchmark's set-up can time parsing them.

Workload choice (see README.md for the full interaction map):

* ``bulk-text-L2``: 64 KiB text under one paper-session key (n=5, level 2).
  Huffman and bit packing dominate; the key schedule is under 1%.
* ``short-msg-L4``: 16 B - 1 KiB messages, half text and half random,
  round-robin over three keys at level 4.  ``derive`` dominates, keys
  repeat (a per-key memo shows), and three keys defeat a one-entry cache.
* ``study-L3``: one research session per iteration: a random 8 KiB round
  trip, forged copies of its envelope, ``analyze_message`` over five fresh
  seed variants plus ``contrast_csv``, and the Stakhov key recovery.
"""

from __future__ import annotations

import hashlib
import random

from gchw.keyschedule import parse_key

DEV_SEED = 1
# Kept out of tuning: a later claim of a gain is re-checked on this seed.
HOLDOUT_SEED = 20261017

# The paper's three demo messages (scripts/replicate_experiments.py).
DEMO_MESSAGES = (
    b"Cryptographist is the science of overt secret writing",
    b"mmmmmmomm",
    b"meet me after party",
)

_WORDS = (
    "the of and to a in is that it was for on are as with his they at be this "
    "from have or by one had not but what all were when we there can an your "
    "which their said if do will each about how up out them then she many some "
    "so these would other into has more her two like him see time could no make "
    "than first been its who now people my made over did down only way find use "
    "may water long little very after words called just where most know get "
    "through back much before go good new write our used me man too any day same "
    "right look think also around another came come work three word must because "
    "does part even place well such here take why things help put years different "
    "away again off went old number great tell men say small every found still "
    "between name should home big give air line set own under read last never us "
    "left end along while might next sound below saw something thought both few "
    "those always looked show large often together asked house world going want "
    "school important until form food keep children feet land side without boy "
    "once animals life enough took sometimes four head above kind began almost "
    "live page got earth need far hand high year mother light parts country father"
).split()
# Zipf weights over the word list, roughly the shape of English word counts.
_CUM_WEIGHTS = []
_total = 0.0
for _rank in range(len(_WORDS)):
    _total += 1.0 / (_rank + 1)
    _CUM_WEIGHTS.append(_total)


def item_rng(workload: str, seed: int, index: int) -> random.Random:
    """Independent generator for one iteration (str seeding is stable)."""
    return random.Random(f"{workload}/{seed}/{index}")


def english_text(rng: random.Random, size: int) -> bytes:
    """``size`` bytes of English-like prose: Zipf words, sentences, paragraphs."""
    parts = []
    length = 0
    while length < size:
        count = rng.randint(4, 18)
        words = rng.choices(_WORDS, cum_weights=_CUM_WEIGHTS, k=count)
        words[0] = words[0].capitalize()
        if count > 8 and rng.random() < 0.5:
            words[rng.randrange(2, count - 2)] += ","
        sentence = " ".join(words) + rng.choice(".....?!")
        sentence += "\n\n" if rng.random() < 0.15 else " "
        parts.append(sentence)
        length += len(sentence)
    return "".join(parts).encode("ascii")[:size]


def key_text(kind: str, level: int, secret_source: bytes) -> str:
    """A key file (README "Formats") with secrets hashed from ``secret_source``."""
    seed = hashlib.sha256(b"seed|" + secret_source).hexdigest()
    mac_key = hashlib.sha256(b"mac|" + secret_source).hexdigest()
    return f"kind={kind}\nn=5\np=1\nlevel={level}\nseed={seed}\nmac_key={mac_key}\n"


class BulkText:
    """64 KiB English-like messages under one Fibonacci n=5, level 2 key."""

    name = "bulk-text-L2"
    size = 64 * 1024
    # iterations whose outputs feed the exact counts (wire_digest, ...)
    exact_items = 4

    def key_texts(self, seed):
        return [key_text("fibonacci", 2, f"{self.name}/{seed}".encode())]

    def item(self, seed, index, keys):
        return keys[0], english_text(item_rng(self.name, seed, index), self.size)

    def run(self, runner, item, exact):
        key, message = item
        runner.roundtrip(message, key, exact)


class ShortMessages:
    """Short messages round-robin over Fibonacci, Lucas and ELC keys at level 4.

    Each cycle holds every size of a fixed ladder (16 B .. 1 KiB, geometric)
    once as text and once as random bytes, in a seeded order, so the padding
    load and hence ``wire_ratio`` barely depend on the seed.  The first
    cycle starts with the paper's demo messages.
    """

    name = "short-msg-L4"
    ladder = tuple(round(16 * 64 ** (k / 23)) for k in range(24))
    cycle = 2 * len(ladder)
    exact_items = len(DEMO_MESSAGES) + cycle

    def key_texts(self, seed):
        return [
            key_text(kind, 4, f"{self.name}/{seed}/{kind}".encode())
            for kind in ("fibonacci", "lucas", "elc")
        ]

    def item(self, seed, index, keys):
        key = keys[index % len(keys)]
        if index < len(DEMO_MESSAGES):
            return key, DEMO_MESSAGES[index]
        cycle_no, slot = divmod(index - len(DEMO_MESSAGES), self.cycle)
        order = list(range(self.cycle))
        random.Random(f"{self.name}/{seed}/cycle{cycle_no}").shuffle(order)
        shape = order[slot]
        size = self.ladder[shape // 2]
        rng = item_rng(self.name, seed, index)
        message = english_text(rng, size) if shape % 2 == 0 else rng.randbytes(size)
        return key, message

    def run(self, runner, item, exact):
        key, message = item
        runner.roundtrip(message, key, exact)


class Study:
    """One research session at level 3 under a fresh Fibonacci n=5 key."""

    name = "study-L3"
    payload_size = 8 * 1024
    analysis_size = 4 * 1024
    seed_variants = 5
    forgeries = 8
    exact_items = 2

    def key_texts(self, seed):
        # the session-0 key; later sessions derive their own fresh keys
        return [self._session_key_text(seed, 0)]

    def _session_key_text(self, seed, index):
        return key_text("fibonacci", 3, f"{self.name}/{seed}/session{index}".encode())

    def item(self, seed, index, keys):
        rng = item_rng(self.name, seed, index)
        key = parse_key(self._session_key_text(seed, index))
        payload = rng.randbytes(self.payload_size)
        flips = [rng.random() for _ in range(self.forgeries)]
        text = english_text(rng, self.analysis_size)
        x = rng.uniform(0.05, 8.0)
        return key, payload, flips, text, x

    def run(self, runner, item, exact):
        key, payload, flips, text, x = item
        wire = runner.roundtrip(payload, key, exact)
        # read the host speed again, so the round trip is scaled by the
        # loop times right around it rather than across the whole session
        runner.checkpoint()
        if wire is not None:
            bit_count = 8 * len(wire)
            for fraction in flips:
                position = int(fraction * bit_count)
                forged = bytearray(wire)
                forged[position // 8] ^= 0x80 >> (position % 8)
                runner.reject(bytes(forged), key, exact)
        runner.analyze(text, key, self.seed_variants)
        runner.recover(x, exact)


WORKLOADS = {w.name: w for w in (BulkText(), ShortMessages(), Study())}
