"""End-to-end CLI behaviour, including exit codes."""

import csv
import io
import struct

import pytest

from gchw import analysis, envelope
from gchw.analysis import analyze_message, cipher_series, contrast_csv
from gchw.cli import main
from gchw.keyschedule import load_key_file

SEED = "11" * 32
MAC = "22" * 32


def run(*argv):
    return main(list(argv))


@pytest.fixture
def keyfile(tmp_path):
    path = tmp_path / "test.key"
    code = run(
        "keygen", "--kind", "fibonacci", "--n", "5", "--level", "2",
        "--seed", SEED, "--mac-key", MAC, "--out", str(path),
    )
    assert code == 0
    return path


def test_keygen_writes_parseable_key(keyfile):
    key = load_key_file(keyfile)
    assert key.n == 5 and key.level == 2 and key.p == 1
    assert key.seed == bytes.fromhex(SEED)


def test_keygen_random_secrets_differ(tmp_path):
    a = tmp_path / "a.key"
    b = tmp_path / "b.key"
    assert run("keygen", "--kind", "lucas", "--n", "3", "--level", "1", "--out", str(a)) == 0
    assert run("keygen", "--kind", "lucas", "--n", "3", "--level", "1", "--out", str(b)) == 0
    assert load_key_file(a).seed != load_key_file(b).seed


def test_keygen_dump_golden(tmp_path, capsys):
    path = tmp_path / "g.key"
    code = run(
        "keygen", "--kind", "fibonacci", "--n", "1", "--p", "1", "--level", "1",
        "--seed", SEED, "--mac-key", MAC, "--out", str(path), "--dump-golden",
    )
    assert code == 0
    assert capsys.readouterr().out == "1 1\n1 0\n"


def test_keygen_refuses_a_key_whose_entries_cannot_fit_the_wire(tmp_path, capsys):
    out = tmp_path / "wide.key"
    code = run("keygen", "--kind", "fibonacci", "--n", "1000", "--level", "1", "--out", str(out))
    assert code == 5
    assert "past the signed 64-bit wire" in capsys.readouterr().err
    assert not out.exists()


def test_keygen_writes_a_key_near_the_wire_limit(tmp_path):
    path = tmp_path / "n70.key"
    code = run(
        "keygen", "--kind", "fibonacci", "--n", "70", "--level", "1",
        "--seed", SEED, "--mac-key", MAC, "--out", str(path),
    )
    assert code == 0
    key = load_key_file(path)
    assert key.n == 70 and key.matrix_pair.entry_bytes == 8


def test_keygen_rejects_bad_hex(tmp_path):
    for seed in ("zz", "11" * 31):  # not hex; hex of 31 bytes
        code = run(
            "keygen", "--kind", "fibonacci", "--n", "5", "--level", "2",
            "--seed", seed, "--out", str(tmp_path / "k"),
        )
        assert code == 5


def test_keygen_rejects_bad_parameters(tmp_path):
    code = run(
        "keygen", "--kind", "lucas", "--n", "5", "--p", "3", "--level", "2",
        "--out", str(tmp_path / "k"),
    )
    assert code == 5


def test_key_file_with_p_64_exits_5(tmp_path, keyfile):
    # p = 64 would give a Q_p base of order 65 and so Z = 128
    big_p = tmp_path / "p64.key"
    big_p.write_text(keyfile.read_text().replace("p=1\n", "p=64\n"))
    plain = tmp_path / "m.txt"
    plain.write_bytes(b"attack at dawn")
    code = run("encrypt", "--key", str(big_p), "--in", str(plain), "--out", str(tmp_path / "x"))
    assert code == 5


def test_encrypt_decrypt_roundtrip(tmp_path, keyfile):
    plain = tmp_path / "plain.bin"
    sealed = tmp_path / "sealed.gchw"
    opened = tmp_path / "opened.bin"
    payload = bytes(range(256)) * 3
    plain.write_bytes(payload)
    assert run("encrypt", "--key", str(keyfile), "--in", str(plain), "--out", str(sealed)) == 0
    assert sealed.read_bytes()[:4] == b"GCHW"
    assert run("decrypt", "--key", str(keyfile), "--in", str(sealed), "--out", str(opened)) == 0
    assert opened.read_bytes() == payload


def test_decrypt_with_wrong_key_fails(tmp_path, keyfile, capsys):
    plain = tmp_path / "m.txt"
    sealed = tmp_path / "m.gchw"
    plain.write_bytes(b"meet me after party")
    assert run("encrypt", "--key", str(keyfile), "--in", str(plain), "--out", str(sealed)) == 0
    other = tmp_path / "other.key"
    assert run(
        "keygen", "--kind", "fibonacci", "--n", "5", "--level", "2",
        "--seed", "33" * 32, "--mac-key", "44" * 32, "--out", str(other),
    ) == 0
    out = tmp_path / "x"
    capsys.readouterr()
    assert run("decrypt", "--key", str(other), "--in", str(sealed), "--out", str(out)) == 2
    assert "authentication failure" in capsys.readouterr().err
    assert not out.exists()


def flip(at):
    """A tamper that flips the lowest bit of wire byte ``at``."""

    def tamper(wire):
        wire = bytearray(wire)
        wire[at] ^= 1
        return bytes(wire)

    return tamper


def set_field(index, value):
    """A tamper that sets field ``index`` of the wire header to ``value(old)``."""

    def tamper(wire):
        fields = list(envelope._HEADER.unpack_from(wire))
        fields[index] = value(fields[index])
        return envelope._HEADER.pack(*fields) + wire[envelope._HEADER.size :]

    return tamper


# the tag covers header and body, so a flipped tag or body byte fails
# authentication; a truncated wire or a malformed header field is a parse
# error.  The header fields are "GCHW", version, z, scale_exp, entry_bytes,
# the two counts and block_count
TAMPERS = {
    "tag": (flip(-1), 2, "authentication failure"),
    "first-body-byte": (flip(envelope._HEADER.size), 2, "authentication failure"),
    "truncated": (lambda wire: wire[:-5], 4, "parse error"),
    "version": (set_field(1, lambda old: 1), 4, "parse error"),
    "z": (set_field(2, lambda old: 3), 4, "parse error"),
    "scale_exp": (set_field(3, lambda old: 3), 4, "parse error"),
    "entry_bytes": (set_field(4, lambda old: 0), 4, "parse error"),
    "block_count": (set_field(7, lambda old: old + 1), 4, "parse error"),
}


@pytest.mark.parametrize("name", TAMPERS)
def test_decrypt_tampered_envelope(tmp_path, keyfile, capsys, name):
    tamper, code, message = TAMPERS[name]
    plain = tmp_path / "m.txt"
    sealed = tmp_path / "m.gchw"
    plain.write_bytes(b"attack at dawn")
    assert run("encrypt", "--key", str(keyfile), "--in", str(plain), "--out", str(sealed)) == 0
    sealed.write_bytes(tamper(sealed.read_bytes()))
    out = tmp_path / "x"
    capsys.readouterr()
    assert run("decrypt", "--key", str(keyfile), "--in", str(sealed), "--out", str(out)) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_compress_decompress_roundtrip(tmp_path):
    plain = tmp_path / "data.bin"
    packed = tmp_path / "data.ahc"
    unpacked = tmp_path / "back.bin"
    plain.write_bytes(b"mmmmmmomm" * 20)
    assert run("compress", "--in", str(plain), "--out", str(packed)) == 0
    assert packed.stat().st_size < plain.stat().st_size
    assert run("decompress", "--in", str(packed), "--out", str(unpacked)) == 0
    assert unpacked.read_bytes() == plain.read_bytes()


def test_compressed_file_layout(tmp_path):
    plain = tmp_path / "two.bin"
    packed = tmp_path / "two.ahc"
    plain.write_bytes(b"aa")
    assert run("compress", "--in", str(plain), "--out", str(packed)) == 0
    data = packed.read_bytes()
    # 8-byte symbol count, 8-byte bit length, packed bits
    assert data[:8] == (2).to_bytes(8, "big")
    assert data[8:16] == (9).to_bytes(8, "big")
    assert data[16:] == bytes([0b01100001, 0b10000000])


def test_decompress_corrupt_header(tmp_path):
    bad = tmp_path / "bad.ahc"
    bad.write_bytes(b"\x00" * 10)
    assert run("decompress", "--in", str(bad), "--out", str(tmp_path / "x")) == 4


# (symbol count, bit count, body) of streams that end wrong, with the exit
# code and the message that names how
CRAFTED = {
    # "aa" as the encoder writes it, with a bit past the 9-bit stream set
    "padding": (2, 9, "6181", 3, "non-zero padding bits after the bit count"),
    # "a" as a literal, the one-bit NYT code, then "a" as a literal again:
    # 17 bits that decode to "aa", which the encoder writes as 011000011
    "repeated-literal": (2, 17, "613080", 3, "literal of a byte that already has a code"),
    # "a" as a literal, then one stray bit
    "trailing": (1, 9, "6100", 3, "trailing bits after the final symbol"),
    # "a", the one-bit NYT code, then three bits of a literal
    "mid-literal": (2, 12, "6130", 3, "bit stream ended mid-literal"),
    # "a", then no bit of the second symbol's code
    "mid-code": (2, 8, "61", 3, "bit stream ended mid-code"),
    # "a" as a literal, then a whole byte the 8-bit count does not need:
    # the file's framing is wrong, a parse error
    "overlong": (1, 8, "6100", 4, "compressed body length disagrees with the bit count"),
}


@pytest.mark.parametrize("name", CRAFTED)
def test_decompress_rejects_a_crafted_stream(tmp_path, capsys, name):
    count, bits, body, code, message = CRAFTED[name]
    bad = tmp_path / "crafted.ahc"
    bad.write_bytes(struct.pack(">QQ", count, bits) + bytes.fromhex(body))
    out = tmp_path / "x"
    assert run("decompress", "--in", str(bad), "--out", str(out)) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


QUOTED = b"".join(f'row {i}, "quoted, twice", then more\n'.encode() for i in range(1, 41))


@pytest.mark.parametrize(
    "message, char", [(b"meet me after party", "e"), (QUOTED, ",")], ids=["e", "comma"]
)
def test_analyze_writes_report(tmp_path, keyfile, message, char):
    plain = tmp_path / "m.txt"
    report = tmp_path / "report.csv"
    plain.write_bytes(message)
    code = run(
        "analyze", "--key", str(keyfile), "--in", str(plain),
        "--seeds", "3", "--char", char, "--out", str(report),
    )
    assert code == 0
    text = report.read_text(encoding="ascii")
    lines = text.split("\n")
    assert lines[0].startswith("#")  # documents the cipher-series convention
    assert lines[1].startswith("seed_index,correlation,paired_t")
    # the contrast CSV follows the seed reports: a numeric row per index,
    # then a row per occurrence of the char, quoted where csv needs it
    contrast = text[text.index("index,plain_value,cipher_value\n") :]
    rows = list(csv.reader(io.StringIO(contrast)))
    series = cipher_series(envelope.seal(message, load_key_file(keyfile)))
    numeric = max(len(message), len(series))
    assert rows[0] == ["index", "plain_value", "cipher_value"]
    indexes = [str(i) for i in range(numeric)]
    assert [row[0] for row in rows[1:]] == indexes + [char] * message.count(char.encode())


def test_analyze_report_is_the_reports_plus_the_sealed_contrast(tmp_path, keyfile, monkeypatch):
    message = b"meet me after party, meet me after the party"
    plain = tmp_path / "m.txt"
    report = tmp_path / "report.csv"
    plain.write_bytes(message)
    key = load_key_file(keyfile)
    reports = analyze_message(message, key, seeds=3)
    expected = "".join(
        [
            "# cipher series = flattened block entries / 2^scale_exp,"
            " truncated to the plaintext length for paired statistics\n",
            "seed_index,correlation,paired_t,paired_p,unpaired_t,unpaired_p,n_pairs\n",
            *(
                f"{i},{r.correlation!r},{r.paired_t!r},{r.paired_p!r},"
                f"{r.unpaired_t!r},{r.unpaired_p!r},{r.n_pairs}\n"
                for i, r in enumerate(reports)
            ),
            contrast_csv(message, envelope.seal(message, key), "e"),
        ]
    )

    def no_second_seal(*args):
        raise AssertionError("analyze sealed the message again")

    monkeypatch.setattr(envelope, "seal", no_second_seal)
    code = run(
        "analyze", "--key", str(keyfile), "--in", str(plain),
        "--seeds", "3", "--char", "e", "--out", str(report),
    )
    assert code == 0
    assert report.read_bytes() == expected.encode("ascii")


def test_analyze_builds_each_variant_series_once(tmp_path, keyfile, monkeypatch):
    # the contrast CSV reuses variant 0's series from the statistics
    plain = tmp_path / "m.txt"
    plain.write_bytes(b"meet me after party, meet me after the party")
    built = []
    real_series = analysis.cipher_series

    def counting_series(env):
        built.append(env)
        return real_series(env)

    monkeypatch.setattr(analysis, "cipher_series", counting_series)
    report = tmp_path / "report.csv"
    code = run("analyze", "--key", str(keyfile), "--in", str(plain), "--seeds", "3", "--out", str(report))
    assert code == 0
    assert len(built) == 3
    assert report.read_text().endswith(contrast_csv(plain.read_bytes(), built[0]))


def test_analyze_rejects_multichar(tmp_path, keyfile):
    plain = tmp_path / "m.txt"
    plain.write_bytes(b"meet me after party")
    code = run(
        "analyze", "--key", str(keyfile), "--in", str(plain),
        "--char", "ee", "--out", str(tmp_path / "r.csv"),
    )
    assert code == 5


def test_analyze_refuses_seeds_past_the_cap_and_writes_no_report(tmp_path, keyfile, capsys):
    plain = tmp_path / "m.txt"
    plain.write_bytes(b"meet me after party")
    for seeds in ("1001", "1000000000"):
        report = tmp_path / f"r{seeds}.csv"
        code = run(
            "analyze", "--key", str(keyfile), "--in", str(plain),
            "--seeds", seeds, "--out", str(report),
        )
        assert code == 5
        assert "seeds must be in 1..1000" in capsys.readouterr().err
        assert not report.exists()


# 2.5 is recovered exactly, 1.5 to within rounding
@pytest.mark.parametrize("x, error", [(2.5, 0.0), (1.5, 1e-12)])
def test_attack_demo_output(capsys, x, error):
    assert run("attack-demo", "--x", str(x)) == 0
    out = capsys.readouterr().out
    recovered = float(out.split("recovered x = ")[1].split("\n")[0])
    assert recovered == pytest.approx(x, rel=0, abs=error)
    assert "k1 = sFs(2x)" in out
    assert "residual" in out
    # one ciphertext per chosen unit plaintext
    assert sum("->" in line for line in out.splitlines()) == 4


def test_attack_demo_refuses_a_nan_key_before_encrypting(capsys):
    assert run("attack-demo", "--x", "nan") == 5
    captured = capsys.readouterr()
    assert "->" not in captured.out
    assert "|x| must be at most" in captured.err


def test_usage_errors_exit_5(tmp_path):
    assert run("frobnicate") == 5
    assert run("encrypt", "--key", str(tmp_path / "nope")) == 5  # missing --in/--out
    assert run("keygen", "--kind", "dodgy", "--n", "1", "--level", "1", "--out", "x") == 5


def test_missing_input_file_exit_5(tmp_path, keyfile):
    code = run(
        "encrypt", "--key", str(keyfile),
        "--in", str(tmp_path / "absent"), "--out", str(tmp_path / "out"),
    )
    assert code == 5


@pytest.mark.parametrize("command", ["encrypt", "decrypt", "analyze"])
def test_key_file_with_a_non_ascii_byte_exits_4(tmp_path, keyfile, capsys, command):
    bad = tmp_path / "bad.key"
    bad.write_bytes(keyfile.read_bytes().replace(b"kind=", b"kind=\xff"))
    plain = tmp_path / "m.txt"
    plain.write_bytes(b"attack at dawn")
    out = tmp_path / "out"
    assert run(command, "--key", str(bad), "--in", str(plain), "--out", str(out)) == 4
    assert "parse error" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_rejects_a_non_ascii_char_before_opening_a_file(tmp_path, keyfile, capsys):
    plain = tmp_path / "m.txt"
    plain.write_bytes("café au lait".encode("latin-1"))  # é is byte 0xE9
    report = tmp_path / "r.csv"
    code = run(
        "analyze", "--key", str(keyfile), "--in", str(plain),
        "--char", "é", "--out", str(report),
    )
    assert code == 5
    assert "ASCII" in capsys.readouterr().err
    assert not report.exists()
    # the key and input paths are not read either
    missing = tmp_path / "absent"
    code = run(
        "analyze", "--key", str(missing), "--in", str(missing), "--char", "é", "--out", str(report),
    )
    assert code == 5
    assert "ASCII" in capsys.readouterr().err
