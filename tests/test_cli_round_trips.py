"""Console round trips through ``gchw.cli.main``: short messages at levels 1-6,
64 KiB at levels 5 and 6 and at the level-1 wire limit, and wrong keys that
share the MAC key.

Every call reads its key file again, so each derives the key as a fresh
``gchw`` process would.  Random inputs are seeded, so a failure reproduces.
"""

import random
import time

import pytest

from test_cli import run


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
