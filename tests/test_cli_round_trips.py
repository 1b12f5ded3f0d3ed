"""Console round trips through ``gchw.cli.main``: short messages at levels 1-6,
64 KiB at levels 5 and 6 and at the level-1 wire limit, wrong keys that
share the MAC key, envelopes tagged again after a body entry or the bit
count was changed, ``compress`` and ``decompress`` against the reference
FGK codec, and the envelope version a message is sealed under.

Every call reads its key file again, so each derives the key as a fresh
``gchw`` process would.  Random inputs are seeded, so a failure reproduces.
"""

import dataclasses
import random
import struct
import time
from pathlib import Path

import pytest

from gchw import auth, envelope
from gchw.bits import BitString
from gchw.errors import CorruptStreamError
from gchw.matrix import MODULUS
from helpers import reference_decode, reference_encode
from test_cli import run

ROOT = Path(__file__).resolve().parent.parent


def secret(value: int) -> str:
    """``value`` as the 64 hex digits of a key file secret."""
    return f"{value:064d}"


def keygen(path, level: int, *extra: str, n: int = 5) -> None:
    argv = ("--kind", "fibonacci", "--n", str(n), "--level", str(level), *extra, "--out", str(path))
    assert run("keygen", *argv) == 0


def seeded_keys(tmp_path, name: str, level: int):
    """Keys of seeds 1 and 3 that share MAC key 2: at n = 5 their z, scale_exp and
    entry_bytes (header bytes 5-8) match, so the tag passes under either and
    only decryption can object."""
    paths = [tmp_path / f"{name}{seed}-{level}.key" for seed in (1, 3)]
    for seed, path in zip((1, 3), paths):
        keygen(path, level, "--seed", secret(seed), "--mac-key", secret(2))
    return paths


def round_trip(tmp_path, key, plain, name: str):
    """Encrypt ``plain`` under ``key``, decrypt it again, and return the envelope's path."""
    sealed, opened = tmp_path / f"{name}.gchw", tmp_path / f"{name}.out"
    assert run("encrypt", "--key", str(key), "--in", str(plain), "--out", str(sealed)) == 0
    assert run("decrypt", "--key", str(key), "--in", str(sealed), "--out", str(opened)) == 0
    assert opened.read_bytes() == plain.read_bytes()
    return sealed


def assert_wrong_key_rejected(tmp_path, capsys, key, sealed) -> None:
    out = tmp_path / "wrong.out"
    capsys.readouterr()
    assert run("decrypt", "--key", str(key), "--in", str(sealed), "--out", str(out)) == 3
    assert "decrypted entry is not an integer" in capsys.readouterr().err
    assert not out.exists()


def random_file(path, size: int, seed: int):
    path.write_bytes(random.Random(seed).randbytes(size))
    return path


@pytest.mark.parametrize("level", range(1, 7))
def test_short_messages_round_trip_packed_by_row(tmp_path, capsys, level):
    # random bytes seal as stored (version 3), so the body holds the message
    # itself, and these sizes pack a block of fewer than Z data rows by row
    right, wrong = seeded_keys(tmp_path, "rows", level)
    sealed = {}
    for size in (1, 15, 17, 255):
        plain = random_file(tmp_path / f"rows{size}.bin", size, size)
        sealed[size] = round_trip(tmp_path, right, plain, f"rows{size}")
    assert_wrong_key_rejected(tmp_path, capsys, wrong, sealed[17])


@pytest.mark.parametrize("level", [5, 6])
def test_64_kib_round_trips_at_the_levels_that_re_encrypt(tmp_path, capsys, level):
    plain = random_file(tmp_path / "reenc.bin", 1 << 16, level)
    right, wrong = seeded_keys(tmp_path, "reenc", level)
    sealed = round_trip(tmp_path, right, plain, f"reenc{level}")
    other = round_trip(tmp_path, wrong, plain, f"reenc3-{level}")
    assert sealed.read_bytes()[5:9] == other.read_bytes()[5:9]
    assert_wrong_key_rejected(tmp_path, capsys, wrong, sealed)


def test_level_6_round_trip_within_a_time_bound(tmp_path):
    # each call derives the 64 x 64 key again; the bound catches a derive
    # that is no longer fast
    plain = random_file(tmp_path / "l6.bin", 1 << 16, 6)
    start = time.perf_counter()
    keygen(tmp_path / "l6.key", 6)
    round_trip(tmp_path, tmp_path / "l6.key", plain, "l6")
    assert time.perf_counter() - start < 60


def test_a_key_past_the_wire_is_refused_and_the_level_1_limit_round_trips(tmp_path, capsys):
    wide = tmp_path / "wide.key"
    capsys.readouterr()
    code = run("keygen", "--kind", "fibonacci", "--n", "1000", "--level", "1", "--out", str(wide))
    assert code == 5
    assert "64-bit" in capsys.readouterr().err
    assert not wide.exists()
    # n = 77 is the largest Fibonacci n at level 1 for this seed; its entries
    # need all 8 bytes of the wire, in 13-byte decryption slots
    plain = random_file(tmp_path / "limit.bin", 1 << 16, 77)
    start = time.perf_counter()
    keygen(tmp_path / "limit.key", 1, "--seed", secret(0), n=77)
    sealed = round_trip(tmp_path, tmp_path / "limit.key", plain, "limit")
    assert time.perf_counter() - start < 60
    assert sealed.read_bytes()[8] == 8  # entry_bytes follows "GCHW", version, z and scale_exp


def retagged(env, mac_key: bytes, **changes) -> bytes:
    """The wire of ``env`` with ``changes``, tagged again under ``mac_key``, so the
    tag passes and only decryption can object."""
    wire = envelope.serialize(dataclasses.replace(env, **changes))
    return wire[: -auth.TAG_SIZE] + auth.mac(mac_key, wire[: -auth.TAG_SIZE])


WORDS = (
    "the golden matrix cipher block adaptive huffman secret key wavelet haar level message"
).split()


@pytest.mark.parametrize("level", [4, 5, 6])
@pytest.mark.parametrize("version", [envelope.STORED, envelope.VERSION], ids=["stored", "compressed"])
def test_a_body_entry_moved_by_p_and_a_bit_count_one_byte_short_are_named(
    tmp_path, capsys, level, version
):
    # level 4 keys check the received entries' range, level 5 and 6 keys
    # re-encrypt; both bodies take several passes at every level
    rng = random.Random(30)
    if version == envelope.STORED:
        data = rng.randbytes(1 << 16)
    else:
        data = " ".join(rng.choice(WORDS) for _ in range(16000)).encode()
    plain = tmp_path / "plain"
    plain.write_bytes(data)
    right, wrong = seeded_keys(tmp_path, "tamper", level)
    sealed = round_trip(tmp_path, right, plain, "tamper")
    env = envelope.deserialize(sealed.read_bytes())
    assert env.version == version
    # the first entry moved by p toward zero stays inside the entry width
    width = env.entry_bytes
    entry = int.from_bytes(env.body[:width], "big", signed=True)
    moved = entry - MODULUS if entry >= 0 else entry + MODULUS
    body = moved.to_bytes(width, "big", signed=True) + env.body[width:]
    # with 8 bits fewer, every block decrypts, but the last data byte lies
    # where -1 padding must be; a stored envelope carries 8 bits per byte
    short = {"compressed_bit_count": env.compressed_bit_count - 8}
    if version == envelope.STORED:
        short["plain_byte_count"] = env.plain_byte_count - 1
    forgeries = {
        "moved": ({"body": body}, "decrypted entry is not an integer"),
        "short": (short, "block tail is not all padding"),
    }
    for name, (changes, message) in forgeries.items():
        forged, out = tmp_path / f"{name}.gchw", tmp_path / f"{name}.out"
        forged.write_bytes(retagged(env, bytes.fromhex(secret(2)), **changes))
        capsys.readouterr()
        start = time.perf_counter()
        assert run("decrypt", "--key", str(right), "--in", str(forged), "--out", str(out)) == 3
        # naming the faulty row lifts it through the inverse mod p that
        # derive already made, well inside the bound even at level 6
        assert time.perf_counter() - start < 10
        assert message in capsys.readouterr().err
        assert not out.exists()
    assert_wrong_key_rejected(tmp_path, capsys, wrong, sealed)


@pytest.fixture(scope="module")
def corpus() -> bytes:
    """README.md, ROADMAP.md and the library's sources: prose, then Python source."""
    paths = [ROOT / "README.md", ROOT / "ROADMAP.md", *sorted((ROOT / "src" / "gchw").glob("*.py"))]
    return b"".join(path.read_bytes() for path in paths)


@pytest.fixture(scope="module")
def corpus_ahc(corpus, tmp_path_factory) -> bytes:
    """The corpus as ``gchw compress`` writes it, after a round trip through ``decompress``."""
    folder = tmp_path_factory.mktemp("corpus")
    plain, ahc, unz = folder / "corpus.txt", folder / "corpus.ahc", folder / "corpus.unz"
    plain.write_bytes(corpus)
    assert run("compress", "--in", str(plain), "--out", str(ahc)) == 0
    assert run("decompress", "--in", str(ahc), "--out", str(unz)) == 0
    assert unz.read_bytes() == corpus
    return ahc.read_bytes()


def decompress(tmp_path, capsys, ahc: bytes, name: str):
    """Exit code, stderr and output bytes (None if no file) of ``gchw decompress`` on ``ahc``."""
    packed, out = tmp_path / f"{name}.ahc", tmp_path / f"{name}.unz"
    packed.write_bytes(ahc)
    capsys.readouterr()
    status = run("decompress", "--in", str(packed), "--out", str(out))
    return status, capsys.readouterr().err, out.read_bytes() if out.exists() else None


def test_compress_round_trips_64_kib_of_random_bytes_and_of_text(tmp_path, corpus):
    inputs = {"random": random.Random(16).randbytes(1 << 16), "text": corpus[: 1 << 16]}
    for name, data in inputs.items():
        assert len(data) == 1 << 16
        plain, ahc, unz = (tmp_path / f"{name}.{ext}" for ext in ("bin", "ahc", "unz"))
        plain.write_bytes(data)
        assert run("compress", "--in", str(plain), "--out", str(ahc)) == 0
        assert run("decompress", "--in", str(ahc), "--out", str(unz)) == 0
        assert unz.read_bytes() == data


def test_the_corpus_compresses_to_the_reference_encoding(corpus, corpus_ahc):
    # the byte distribution shifts from prose to source, so the encoder
    # drops kept codes high in the tree
    bits = reference_encode(corpus)
    assert corpus_ahc[:16] == struct.pack(">QQ", len(corpus), len(bits))
    assert corpus_ahc[16:] == bits.pack()


@pytest.mark.parametrize(
    "delta, message", [(1, "bit stream ended mid-code"), (-1, "trailing bits after the final symbol")]
)
def test_the_corpus_miscounted_by_one_symbol_is_rejected(
    tmp_path, capsys, corpus_ahc, delta, message
):
    ahc = bytearray(corpus_ahc)
    ahc[:8] = (int.from_bytes(ahc[:8], "big") + delta).to_bytes(8, "big")
    status, err, out = decompress(tmp_path, capsys, bytes(ahc), "miscounted")
    assert status == 3
    assert message in err
    assert out is None


def test_a_flipped_bit_in_the_corpus_decodes_as_the_reference_decoder_does(
    tmp_path, capsys, corpus_ahc
):
    # one bit of the body's last eighth, in the mature tree
    ahc = bytearray(corpus_ahc)
    count, bits = struct.unpack(">QQ", ahc[:16])
    at = bits - bits // 8
    ahc[16 + at // 8] ^= 0x80 >> at % 8
    status, err, out = decompress(tmp_path, capsys, bytes(ahc), "bitflip")
    try:
        expected = reference_decode(BitString.unpack(ahc[16:], bits), count)
    except CorruptStreamError as exc:
        assert status == 3 and str(exc) in err, (status, err, str(exc))
    else:
        assert status == 0 and out == expected, (status, err)


def test_random_bytes_are_stored_and_text_is_compressed(tmp_path, corpus):
    key = tmp_path / "mode.key"
    keygen(key, 2, "--seed", secret(7), "--mac-key", secret(8))
    inputs = {"random": (random.Random(16).randbytes(1 << 16), 3), "text": (corpus[: 1 << 16], 2)}
    for name, (data, version) in inputs.items():
        plain = tmp_path / f"{name}.bin"
        plain.write_bytes(data)
        sealed = round_trip(tmp_path, key, plain, name)
        assert sealed.read_bytes()[4] == version  # the version byte follows the 4-byte magic
