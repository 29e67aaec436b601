#!/usr/bin/env python3
"""Generate fuzz seed corpora and mutation dictionaries from golden bytes.

Every locked wire payload in tests/golden_bytes_test.cc (the kGolden*
constants) becomes one seed file under fuzz/corpus/<target>/, so each fuzz
target starts from bytes the decoder is known to accept and mutates from
there instead of fighting the magic/version/tag gate by chance. Legacy v1
payloads (engine-less sketches, the WMH-only store header) are synthesized
here byte-for-byte the way tests/golden_bytes_test.cc builds them, keeping
the v1 compatibility paths seeded too.

Dictionaries under fuzz/dicts/<target>.dict hold the magics, version/tag/
engine bytes, family names, and param keys, so the mutator can splice whole
tokens instead of rediscovering them byte by byte.

Usage:
  tools/make_corpus.py           # (re)write fuzz/corpus/ and fuzz/dicts/
  tools/make_corpus.py --check   # verify checked-in seeds match; exit 1 if not

Stdlib only; tools/lint_invariants.py enforces that every registered wire
tag keeps a fuzz target with a non-empty corpus.
"""

import argparse
import re
import struct
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN_TEST = REPO / "tests" / "golden_bytes_test.cc"
CORPUS_DIR = REPO / "fuzz" / "corpus"
DICTS_DIR = REPO / "fuzz" / "dicts"
REGRESSIONS_DIR = REPO / "fuzz" / "regressions"

# Golden constant -> fuzz target whose corpus it seeds.
GOLDEN_TO_TARGET = {
    "kGoldenWmh": "fuzz_wmh_decode",
    "kGoldenMh": "fuzz_mh_decode",
    "kGoldenKmv": "fuzz_kmv_decode",
    "kGoldenJl": "fuzz_jl_decode",
    "kGoldenCs": "fuzz_cs_decode",
    "kGoldenIcws": "fuzz_icws_decode",
    "kGoldenCompactWmh": "fuzz_wmh_compact_decode",
    "kGoldenBbitWmh": "fuzz_wmh_bbit_decode",
    "kGoldenStoreV2Empty": "fuzz_store_decode",
    "kGoldenStoreCompactEmpty": "fuzz_store_decode",
}

SKETCH_MAGIC = 0x49505348  # "IPSH"
STORE_MAGIC = 0x49505354  # "IPST"
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def u8(v):
    return struct.pack("<B", v)


def u32(v):
    return struct.pack("<I", v)


def u64(v):
    return struct.pack("<Q", v)


def f64(v):
    return struct.pack("<d", v)


def wire_bytes(b):
    return u64(len(b)) + b


def fnv1a(data):
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def parse_golden_constants():
    """Returns {constant name: payload bytes} from golden_bytes_test.cc."""
    text = GOLDEN_TEST.read_text()
    found = {}
    for match in re.finditer(
        r"constexpr\s+char\s+(kGolden\w+)\[\]\s*=\s*((?:\"[0-9a-f]*\"\s*)+);",
        text,
    ):
        name = match.group(1)
        hexdigits = "".join(re.findall(r"\"([0-9a-f]*)\"", match.group(2)))
        found[name] = bytes.fromhex(hexdigits)
    return found


def v1_wmh_payload():
    # Mirrors GoldenBytesTest.LegacyV1WmhBytesDecodeAsActiveIndex.
    out = u32(SKETCH_MAGIC) + u8(1) + u8(1)  # version 1, tag kWmh
    out += u64(7) + u64(4096) + u64(512)  # seed, L, dimension (no engine)
    out += f64(2.5)  # norm
    out += u64(1) + f64(0.5)  # hashes
    out += u64(1) + f64(0.75)  # values
    return out


def v1_icws_payload():
    # Mirrors GoldenBytesTest.LegacyV1IcwsBytesDecodeAsExact.
    out = u32(SKETCH_MAGIC) + u8(1) + u8(6)  # version 1, tag kIcws
    out += u64(7) + u64(512)  # seed, dimension (no engine/L)
    out += f64(2.5)  # norm
    out += u64(1) + u64(42)  # fingerprints
    out += u64(1) + f64(0.75)  # values
    return out


def v1_store_payload():
    # The pre-SketchFamily WMH-only store: fixed header
    # [dimension][num_shards][num_samples][seed][L][engine u8], zero
    # entries, FNV-1a trailer.
    out = u32(STORE_MAGIC) + u8(1)
    out += u64(512) + u64(4) + u64(16) + u64(7) + u64(4096) + u8(0)
    out += u64(0)  # entry count
    return out + u64(fnv1a(out))


def family_options_wire(dimension, num_samples, seed, params):
    out = u64(dimension) + u64(num_samples) + u64(seed)
    out += u64(len(params))
    for key in sorted(params):  # canonical (strictly sorted) order
        out += wire_bytes(key.encode()) + wire_bytes(params[key].encode())
    return out


def synthesized_seeds():
    """Seeds not derivable from a single golden constant."""
    seeds = {
        "fuzz_wmh_decode": {"v1_wmh": v1_wmh_payload()},
        "fuzz_icws_decode": {"v1_icws": v1_icws_payload()},
        "fuzz_store_decode": {"v1_store_empty": v1_store_payload()},
        "fuzz_family_options": {
            # Wire-format options block (the store-header surface).
            "wire_wmh": family_options_wire(
                512, 16, 7, {"L": "4096", "engine": "active_index"}
            ),
            "wire_empty": family_options_wire(512, 16, 7, {}),
        },
    }
    # Text-format seeds (family name, then key=value per line) for the
    # MakeFamily string-parsing surface of the same target.
    for name, text in {
        "text_wmh": "wmh\nL=4096",
        "text_icws": "icws\nL=64\nengine=dart",
        "text_bbit": "wmh_bbit\nbits=8",
        "text_cs": "cs\nrepetitions=3",
        "text_jl": "jl",
        "text_kmv": "kmv",
        "text_mh": "mh",
        "text_compact": "wmh_compact\nL=4096",
    }.items():
        seeds["fuzz_family_options"][name] = text.encode()
    return seeds


def regression_seeds():
    """Inputs that triggered (now fixed) decoder bugs.

    tests/wire_fuzz_regressions.cc replays every file in fuzz/regressions/
    through every decoder under the decode contract and additionally asserts
    each of these specific payloads is rejected. Fuzzer-found crash files
    are checked in here by hand (any filename); only the named seeds below
    are regenerated by this script.
    """
    nan = struct.pack("<Q", 0x7FF8000000000000)  # quiet NaN bit pattern

    def sketch_header(tag):
        return u32(SKETCH_MAGIC) + u8(2) + u8(tag)

    # CountSketch: reps·width formed as a u64 product wrapped to 0 for
    # reps = width = 2^32, passing the old bounds check and then allocating
    # 2^32 tables.
    cs_shape_overflow = (
        sketch_header(5) + u64(0) + u64(0) + u64(1 << 32) + u64(1 << 32)
    )
    # CountSketch: width = 0 rows consume no payload bytes, so the old
    # check let reps = 2^61 empty rows through — unbounded allocation.
    cs_zero_width_rows = (
        sketch_header(5) + u64(0) + u64(0) + u64(1 << 61) + u64(0)
    )
    # Retired tag 7: its decoder once let a num_bits near 2^64 wrap its
    # word-count check and pair with an empty bits vector. The tag is gone;
    # the payload stays as one that every decoder must reject.
    simhash_numbits_overflow = (
        sketch_header(7)
        + u64(0)  # seed
        + u64(0)  # dimension
        + u64((1 << 64) - 1)  # num_bits
        + f64(1.0)  # norm
        + u64(0)  # bits word count
    )
    # KMV: a NaN hash compared false both ways against the old `<=`
    # sortedness check and slipped into the estimator's match loop.
    kmv_nan_hash = (
        sketch_header(3)
        + u64(0)  # seed
        + u64(0)  # dimension
        + u64(2)  # k
        + u8(0)  # hash kind
        + u64(2)  # sample count
        + nan + f64(0.0)
        + nan + f64(0.0)
    )
    # FamilyOptions wire block: duplicate param keys were silently collapsed
    # by the map insert; non-canonical (unsorted or duplicated) key order is
    # now rejected.
    dup = wire_bytes(b"L") + wire_bytes(b"1")
    family_options_dup_key = u64(512) + u64(16) + u64(7) + u64(2) + dup + dup
    return {
        "cs_shape_overflow": cs_shape_overflow,
        "cs_zero_width_rows": cs_zero_width_rows,
        "simhash_numbits_overflow": simhash_numbits_overflow,
        "kmv_nan_hash": kmv_nan_hash,
        "family_options_dup_key": family_options_dup_key,
    }


def all_seeds():
    """Returns {target: {seed name: bytes}} covering every fuzz target."""
    goldens = parse_golden_constants()
    missing = sorted(set(GOLDEN_TO_TARGET) - set(goldens))
    if missing:
        sys.exit(
            "make_corpus.py: golden constants not found in "
            f"{GOLDEN_TEST.name}: {', '.join(missing)} — update "
            "GOLDEN_TO_TARGET alongside the test"
        )
    seeds = synthesized_seeds()
    for const, target in GOLDEN_TO_TARGET.items():
        name = "golden_" + re.sub(
            r"(?<!^)(?=[A-Z])", "_", const.removeprefix("kGolden")
        ).lower()
        seeds.setdefault(target, {})[name] = goldens[const]
    return seeds


def dict_escape(token):
    out = []
    for byte in token:
        if 0x20 <= byte < 0x7F and byte not in (0x22, 0x5C):
            out.append(chr(byte))
        else:
            out.append(f"\\x{byte:02x}")
    return "".join(out)


def dictionaries():
    """Returns {target: [token bytes, ...]}."""
    sketch_common = [
        b"IPSH",
        u32(SKETCH_MAGIC),
        b"\x01",
        b"\x02",
        u64(0),
        u64(1),
        f64(1.0),
    ]
    engines = [b"\x00", b"\x01"]
    dicts = {}
    for tag, target in {
        1: "fuzz_wmh_decode",
        2: "fuzz_mh_decode",
        3: "fuzz_kmv_decode",
        4: "fuzz_jl_decode",
        5: "fuzz_cs_decode",
        6: "fuzz_icws_decode",
        8: "fuzz_wmh_compact_decode",
        9: "fuzz_wmh_bbit_decode",
    }.items():
        tokens = list(sketch_common) + [u8(tag)]
        if tag in (1, 6, 8, 9):  # engine-carrying payloads
            tokens += engines
        dicts[target] = tokens
    family_tokens = [
        b"wmh",
        b"mh",
        b"kmv",
        b"jl",
        b"cs",
        b"icws",
        b"wmh_compact",
        b"wmh_bbit",
        b"L",
        b"engine",
        b"bits",
        b"hash",
        b"repetitions",
        b"dart",
        b"icws",
        b"active_index",
        b"expanded_reference",
        b"=",
        b"\n",
    ]
    dicts["fuzz_store_decode"] = (
        [b"IPST", u32(STORE_MAGIC), b"\x01", b"\x02", u64(0), u64(1)]
        + family_tokens
    )
    dicts["fuzz_family_options"] = [u64(0), u64(1), u64(2)] + family_tokens
    return dicts


def dict_text(tokens):
    lines = ["# generated by tools/make_corpus.py — do not edit"]
    seen = set()
    for token in tokens:
        if token in seen:
            continue
        seen.add(token)
        lines.append(f'"{dict_escape(token)}"')
    return "\n".join(lines) + "\n"


def generate(check):
    seeds = all_seeds()
    dicts = dictionaries()
    problems = []
    written = 0

    def emit(path, data):
        nonlocal written
        if check:
            if not path.exists():
                problems.append(f"missing: {path.relative_to(REPO)}")
            elif path.read_bytes() != data:
                problems.append(f"stale: {path.relative_to(REPO)}")
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
            written += 1

    for target in sorted(seeds):
        for name, data in sorted(seeds[target].items()):
            emit(CORPUS_DIR / target / name, data)
    for name, data in sorted(regression_seeds().items()):
        emit(REGRESSIONS_DIR / name, data)
    for target in sorted(dicts):
        emit(DICTS_DIR / (target + ".dict"), dict_text(dicts[target]).encode())

    if check:
        for problem in problems:
            print(problem, file=sys.stderr)
        if problems:
            sys.exit(
                f"make_corpus.py --check: {len(problems)} seed file(s) out "
                "of date — run tools/make_corpus.py and commit the result"
            )
        print("make_corpus.py --check: all generated files up to date")
    else:
        print(
            f"wrote {written} files across {len(seeds)} corpora and "
            f"{len(dicts)} dictionaries"
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify generated files match what is on disk (CI mode)",
    )
    generate(parser.parse_args().check)


if __name__ == "__main__":
    main()
