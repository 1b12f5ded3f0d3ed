"""Command-line interface.

Subcommands: keygen, encrypt, decrypt, compress, decompress, analyze,
attack-demo.  Exit codes: 0 success, 2 authentication failure,
3 corruption, 4 parse error, 5 usage or parameter error.
"""

from __future__ import annotations

import argparse
import secrets
import struct
import sys

from . import ahuffman, analysis, attack, envelope
from .bits import BitString
from .errors import (
    AuthenticationError,
    CorruptionError,
    GchwError,
    ParameterError,
    ParseError,
)
from .keyschedule import CipherKey, derive, golden_base, load_key_file, save_key_file
from .recurrence import RecurrenceKind

EXIT_OK = 0
EXIT_AUTH = 2
EXIT_CORRUPT = 3
EXIT_PARSE = 4
EXIT_USAGE = 5

_COMPRESSED_HEADER = struct.Struct(">QQ")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which collides with the
    # authentication-failure code; route usage problems to exit 5 instead.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gchw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    keygen = sub.add_parser("keygen", help="create a key file")
    keygen.add_argument("--kind", required=True, choices=[k.value for k in RecurrenceKind])
    keygen.add_argument("--n", required=True, type=int)
    keygen.add_argument("--p", type=int, default=1)
    keygen.add_argument("--level", required=True, type=int)
    keygen.add_argument("--seed", metavar="HEX", help="32-byte hex seed (random if omitted)")
    keygen.add_argument("--mac-key", metavar="HEX", help="32-byte hex MAC key (random if omitted)")
    keygen.add_argument("--out", required=True)
    keygen.add_argument(
        "--dump-golden",
        action="store_true",
        help="print the golden base matrix (decimal integers, one row per line)",
    )

    encrypt = sub.add_parser("encrypt", help="seal a file into an envelope")
    encrypt.add_argument("--key", required=True)
    encrypt.add_argument("--in", dest="input", required=True)
    encrypt.add_argument("--out", required=True)

    decrypt = sub.add_parser("decrypt", help="open an envelope")
    decrypt.add_argument("--key", required=True)
    decrypt.add_argument("--in", dest="input", required=True)
    decrypt.add_argument("--out", required=True)

    compress = sub.add_parser("compress", help="adaptive-Huffman compress a file")
    compress.add_argument("--in", dest="input", required=True)
    compress.add_argument("--out", required=True)

    decompress = sub.add_parser("decompress", help="invert the compress subcommand")
    decompress.add_argument("--in", dest="input", required=True)
    decompress.add_argument("--out", required=True)

    analyze = sub.add_parser("analyze", help="plain/cipher statistics as CSV")
    analyze.add_argument("--key", required=True)
    analyze.add_argument("--in", dest="input", required=True)
    analyze.add_argument("--seeds", type=int, default=1)
    analyze.add_argument("--char", help="character whose cipher distribution is listed")
    analyze.add_argument("--out", required=True)

    demo = sub.add_parser("attack-demo", help="chosen-plaintext break of the original cipher")
    demo.add_argument("--x", type=float, default=1.5, help="secret key to break (default 1.5)")

    return parser


def _parse_secret(text: str | None, label: str) -> bytes:
    if text is None:
        return secrets.token_bytes(32)
    try:
        value = bytes.fromhex(text)
    except ValueError as exc:
        raise ParameterError(f"{label} must be hex: {exc}") from exc
    if len(value) != 32:
        raise ParameterError(f"{label} must be 32 bytes (64 hex chars)")
    return value


def _cmd_keygen(args) -> int:
    key = CipherKey(
        kind=RecurrenceKind(args.kind),
        n=args.n,
        p=args.p,
        level=args.level,
        seed=_parse_secret(args.seed, "--seed"),
        mac_key=_parse_secret(args.mac_key, "--mac-key"),
    )
    derive(key)  # a key whose entries cannot fit the wire is refused before it is written
    save_key_file(args.out, key)
    if args.dump_golden:
        for row in golden_base(key).rows:
            print(" ".join(str(v) for v in row))
    return EXIT_OK


def _cmd_encrypt(args) -> int:
    key = load_key_file(args.key)
    with open(args.input, "rb") as fh:
        message = fh.read()
    data = envelope.serialize(envelope.seal(message, key))
    with open(args.out, "wb") as fh:
        fh.write(data)
    return EXIT_OK


def _cmd_decrypt(args) -> int:
    key = load_key_file(args.key)
    with open(args.input, "rb") as fh:
        data = fh.read()
    message = envelope.open(envelope.deserialize(data), key)
    with open(args.out, "wb") as fh:
        fh.write(message)
    return EXIT_OK


def _cmd_compress(args) -> int:
    with open(args.input, "rb") as fh:
        message = fh.read()
    bits = ahuffman.encode(message)
    with open(args.out, "wb") as fh:
        fh.write(_COMPRESSED_HEADER.pack(len(message), len(bits)))
        fh.write(bits.pack())
    return EXIT_OK


def _cmd_decompress(args) -> int:
    with open(args.input, "rb") as fh:
        data = fh.read()
    if len(data) < _COMPRESSED_HEADER.size:
        raise ParseError("truncated compressed file header")
    symbol_count, bit_count = _COMPRESSED_HEADER.unpack_from(data)
    body = data[_COMPRESSED_HEADER.size :]
    if len(body) != (bit_count + 7) // 8:
        raise ParseError("compressed body length disagrees with the bit count")
    message = ahuffman.decode(BitString.unpack(body, bit_count), symbol_count)
    with open(args.out, "wb") as fh:
        fh.write(message)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    # the report is ASCII, so the character must be too; checked before any file is opened
    if args.char is not None and (len(args.char) != 1 or not args.char.isascii()):
        raise ParameterError("--char takes exactly one ASCII character")
    key = load_key_file(args.key)
    with open(args.input, "rb") as fh:
        message = fh.read()
    reports, series = analysis._analyze(message, key, args.seeds)
    lines = [
        "# cipher series = flattened block entries / 2^scale_exp,"
        " truncated to the plaintext length for paired statistics",
        "seed_index,correlation,paired_t,paired_p,unpaired_t,unpaired_p,n_pairs",
    ]
    for index, r in enumerate(reports):
        lines.append(
            f"{index},{r.correlation!r},{r.paired_t!r},{r.paired_p!r},"
            f"{r.unpaired_t!r},{r.unpaired_p!r},{r.n_pairs}"
        )
    report_text = "\n".join(lines) + "\n" + analysis._contrast_csv(message, series, args.char)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(report_text)
    return EXIT_OK


def _cmd_attack_demo(args) -> int:
    x = args.x
    print(f"secret key x = {x!r}")
    ciphertexts = []
    for name, m in (("M1", attack.M1), ("M2", attack.M2), ("M3", attack.M3), ("M4", attack.M4)):
        c = attack.stakhov_encrypt(m, x)
        ciphertexts.append(c)
        print(f"{name} = {m}  ->  C = {c}")
    result = attack.recover_x(ciphertexts[0])
    print(f"k1 = sFs(2x) = {result.k1!r}")
    print(f"z = tau^(2x) = {result.z!r}")
    print(f"recovered x = {result.recovered_x!r}")
    print(f"residual = {result.residual!r}")
    return EXIT_OK


_COMMANDS = {
    "keygen": _cmd_keygen,
    "encrypt": _cmd_encrypt,
    "decrypt": _cmd_decrypt,
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "analyze": _cmd_analyze,
    "attack-demo": _cmd_attack_demo,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AuthenticationError as exc:
        print(f"authentication failure: {exc}", file=sys.stderr)
        return EXIT_AUTH
    except CorruptionError as exc:
        print(f"corruption: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (GchwError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
