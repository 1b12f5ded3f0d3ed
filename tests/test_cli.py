"""End-to-end CLI behaviour, including exit codes."""

import pytest

from gchw import analysis, envelope
from gchw.analysis import analyze_message, contrast_csv
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


def test_decrypt_with_wrong_key_fails(tmp_path, keyfile):
    plain = tmp_path / "m.txt"
    sealed = tmp_path / "m.gchw"
    plain.write_bytes(b"meet me after party")
    assert run("encrypt", "--key", str(keyfile), "--in", str(plain), "--out", str(sealed)) == 0
    other = tmp_path / "other.key"
    assert run(
        "keygen", "--kind", "fibonacci", "--n", "5", "--level", "2",
        "--out", str(other),
    ) == 0
    code = run("decrypt", "--key", str(other), "--in", str(sealed), "--out", str(tmp_path / "x"))
    assert code in (2, 3)


def test_decrypt_tampered_envelope(tmp_path, keyfile):
    plain = tmp_path / "m.txt"
    sealed = tmp_path / "m.gchw"
    plain.write_bytes(b"attack at dawn")
    assert run("encrypt", "--key", str(keyfile), "--in", str(plain), "--out", str(sealed)) == 0
    data = bytearray(sealed.read_bytes())
    data[-1] ^= 0x01  # inside the MAC tag
    sealed.write_bytes(bytes(data))
    code = run("decrypt", "--key", str(keyfile), "--in", str(sealed), "--out", str(tmp_path / "x"))
    assert code == 2


def test_decrypt_truncated_envelope(tmp_path, keyfile):
    plain = tmp_path / "m.txt"
    sealed = tmp_path / "m.gchw"
    plain.write_bytes(b"attack at dawn")
    assert run("encrypt", "--key", str(keyfile), "--in", str(plain), "--out", str(sealed)) == 0
    sealed.write_bytes(sealed.read_bytes()[:-5])
    code = run("decrypt", "--key", str(keyfile), "--in", str(sealed), "--out", str(tmp_path / "x"))
    assert code == 4


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


def test_decompress_rejects_set_padding_bits(tmp_path):
    plain = tmp_path / "two.bin"
    packed = tmp_path / "two.ahc"
    plain.write_bytes(b"aa")
    assert run("compress", "--in", str(plain), "--out", str(packed)) == 0
    data = bytearray(packed.read_bytes())
    data[-1] |= 0x01  # a bit past the 9-bit stream
    packed.write_bytes(bytes(data))
    out = tmp_path / "x"
    assert run("decompress", "--in", str(packed), "--out", str(out)) == 3
    assert not out.exists()


def test_decompress_corrupt_header(tmp_path):
    bad = tmp_path / "bad.ahc"
    bad.write_bytes(b"\x00" * 10)
    assert run("decompress", "--in", str(bad), "--out", str(tmp_path / "x")) == 4


def test_decompress_rejects_a_body_longer_than_its_bit_count(tmp_path, capsys):
    bad = tmp_path / "long.ahc"
    # one symbol in 8 bits, then one byte more than they need
    bad.write_bytes((1).to_bytes(8, "big") + (8).to_bytes(8, "big") + b"a\x00")
    out = tmp_path / "x"
    assert run("decompress", "--in", str(bad), "--out", str(out)) == 4
    assert "compressed body length disagrees with the bit count" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_writes_report(tmp_path, keyfile):
    plain = tmp_path / "m.txt"
    report = tmp_path / "report.csv"
    plain.write_bytes(b"meet me after party")
    code = run(
        "analyze", "--key", str(keyfile), "--in", str(plain),
        "--seeds", "3", "--char", "e", "--out", str(report),
    )
    assert code == 0
    text = report.read_text()
    lines = text.strip().split("\n")
    assert lines[0].startswith("#")  # documents the cipher-series convention
    assert lines[1].startswith("seed_index,correlation,paired_t")
    assert sum(1 for line in lines if line.startswith("e,")) == 4  # 'e' x4 in message
    assert any(line.startswith("index,plain_value,cipher_value") for line in lines)


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


def test_attack_demo_output(capsys):
    assert run("attack-demo", "--x", "2.5") == 0
    out = capsys.readouterr().out
    assert "recovered x = 2.5" in out
    assert "k1 = sFs(2x)" in out
    assert "residual" in out


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
