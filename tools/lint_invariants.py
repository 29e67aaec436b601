#!/usr/bin/env python3
"""Repo-specific invariant lint — rules no off-the-shelf tool knows.

Ten rules, each guarding an invariant the test suite can only probe
point-wise but a static scan can prove tree-wide:

  wire-tags      SketchTypeTag values are unique, every tag has a wire
                 producer (PutHeader) in serialize.cc, every producer's
                 serializer is locked by tests/golden_bytes_test.cc — a tag
                 without a golden payload can drift silently and corrupt
                 stored catalogs — and every producer is called by a family
                 Spec in src/sketch/family.cc, so no wire format ships that
                 no registered family serves.
  families       Every family in RegisteredFamilies() is exercised by the
                 parameterized family-registry test and has a kernel-backed
                 estimator TU (ActiveKernel() — the EstimateKernel dispatch
                 table), so no family ships outside the scalar/SIMD
                 equivalence net; and src/ defines one SketchFamily subclass
                 and one Sketcher subclass (family.cc's TypedFamily and
                 TypedSketcher), so a family cannot fork back into a
                 hand-written class.
  metrics        Every Counter/Gauge/Histogram registration uses an
                 ipsketch_-prefixed snake_case name, appears in README's
                 metric inventory table and is named in at least one file
                 under tests/ — the exposition surface is documented and
                 tested or it does not ship.
  raw-mutex      No std::mutex / std::condition_variable / std::lock_guard /
                 std::unique_lock outside src/common/mutex.{h,cc}: every
                 lock goes through the annotated, rank-checked
                 ipsketch::Mutex wrapper.
  fuzz-coverage  Every SketchTypeTag enumerator maps to a fuzz/ harness with
                 a non-empty checked-in seed corpus (plus the store-file and
                 FamilyOptions harnesses) — a wire decoder that is not
                 fuzzed is an untrusted-input surface nobody is probing.
  docs-freshness Every ipsketch_* metric registered in src/ appears in
                 docs/OPERATIONS.md (the operator runbook), every metric
                 OPERATIONS.md documents is still registered in src/, and
                 every SketchTypeTag enumerator appears in
                 docs/WIRE_FORMAT.md (the normative wire spec) — the docs/
                 tree cannot silently rot behind the code, in either
                 direction.
  store-writes   No file in src/ but src/service/sketch_store.cc constructs
                 a ShardView, src/service/sketch_store.h declares no
                 friend, and sketch_store.cc calls PublishLocked from
                 exactly one function: every insert and erase publishes
                 through the store's one merge, so no caller can stage a
                 view and publish it around it, and no second splice can
                 grow back inside the store.
  scoring        No per-pair SketchFamily::Estimate call in src/index/, and
                 in src/service/ only QueryEngine::EstimateInnerProduct's
                 pairwise one: served scans score a shard (or a probe's
                 candidates) with one EstimateMany call, so no scan pays
                 the per-pair dispatch again.
  kernel-tiers   src/core/simd/ holds exactly two estimator kernel tier
                 files, estimate_kernels_scalar.cc and
                 estimate_kernels_avx2.cc, and estimate_kernels.h declares
                 exactly two tier accessors, ScalarKernel and Avx2Kernel:
                 every tier a host can dispatch to is one CI compiles and
                 checks bit for bit, so no tier ships that nothing runs.
                 Every EstimateKernel entry point is called through
                 ActiveKernel() in a family estimator TU
                 (FAMILY_ESTIMATOR_TU), by a function that a family Spec in
                 family.cc reaches, so no kernel is kept bit-identical
                 across both tiers for a caller no registered family uses.
  env-switches   getenv appears in src/ only in src/core/simd/dispatch.cc,
                 which reads IPSKETCH_FORCE_SCALAR: the service has one
                 runtime switch, so a new environment knob cannot grow
                 back beside it.

Exit status 0 iff the tree is clean; findings go to stdout, one per line,
as `rule: file: message`.

`--self-test` copies the tree to a temp dir, seeds one violation per rule,
and verifies each is caught (and that the pristine copy stays clean) —
the lint's own regression test, run in CI next to the real scan.

Stdlib only; no third-party dependencies.
"""

import argparse
import re
import shutil
import sys
import tempfile
from pathlib import Path

SERIALIZE_H = "src/sketch/serialize.h"
SERIALIZE_CC = "src/sketch/serialize.cc"
GOLDEN_TEST = "tests/golden_bytes_test.cc"
FAMILY_CC = "src/sketch/family.cc"
FAMILY_TEST = "tests/family_registry_test.cc"
README = "README.md"
OPERATIONS_MD = "docs/OPERATIONS.md"
WIRE_FORMAT_MD = "docs/WIRE_FORMAT.md"
MUTEX_ALLOWED = {"src/common/mutex.h", "src/common/mutex.cc"}
STORE_CC = "src/service/sketch_store.cc"
STORE_H = "src/service/sketch_store.h"
QUERY_ENGINE_CC = "src/service/query_engine.cc"
SIMD_DIR = "src/core/simd"
KERNELS_H = "src/core/simd/estimate_kernels.h"
KERNEL_TIER_FILES = {"estimate_kernels_scalar.cc", "estimate_kernels_avx2.cc"}
KERNEL_TIER_ACCESSORS = {"ScalarKernel", "Avx2Kernel"}
DISPATCH_CC = "src/core/simd/dispatch.cc"

# family name -> the translation unit holding its kernel-backed estimator.
# A newly registered family must be added here *and* route its estimator
# through ActiveKernel() (the EstimateKernel dispatch table) — the rule
# fails loudly on an unknown name rather than guessing.
FAMILY_ESTIMATOR_TU = {
    "jl": "src/sketch/jl_sketch.cc",
    "cs": "src/sketch/count_sketch.cc",
    "mh": "src/sketch/minhash.cc",
    "kmv": "src/sketch/kmv.cc",
    "wmh": "src/core/wmh_estimator.cc",
    "icws": "src/core/icws.cc",
    "wmh_compact": "src/sketch/quantize.cc",
    "wmh_bbit": "src/sketch/quantize.cc",
}


# SketchTypeTag enumerator -> the fuzz target exercising its decoder. A new
# wire tag must be added here *and* get a harness under fuzz/ plus seeds from
# tools/make_corpus.py — the rule fails loudly on an unknown enumerator
# rather than guessing.
TAG_FUZZ_TARGET = {
    "kWmh": "fuzz_wmh_decode",
    "kMh": "fuzz_mh_decode",
    "kKmv": "fuzz_kmv_decode",
    "kJl": "fuzz_jl_decode",
    "kCountSketch": "fuzz_cs_decode",
    "kIcws": "fuzz_icws_decode",
    "kCompactWmh": "fuzz_wmh_compact_decode",
    "kBbitWmh": "fuzz_wmh_bbit_decode",
}
# Untrusted-input surfaces beyond the per-tag sketch decoders.
EXTRA_FUZZ_TARGETS = {
    "fuzz_store_decode": "the store-file loader",
    "fuzz_family_options": "FamilyOptions parsing",
}


def read(root: Path, rel: str) -> str:
    return (root / rel).read_text(encoding="utf-8")


# A family Spec's body in family.cc (`struct XSpec {` to its closing `};`)
# and a wire serializer called in it.
FAMILY_SPEC = re.compile(
    r"^struct\s+\w+Spec\s*\{(.*?)^\};", re.DOTALL | re.MULTILINE)
SERIALIZER_CALL = re.compile(r"\b(Serialize\w+)\s*\(")


def check_wire_tags(root: Path):
    findings = []
    header = read(root, SERIALIZE_H)
    enum_match = re.search(
        r"enum\s+class\s+SketchTypeTag[^{]*\{(.*?)\}", header, re.DOTALL)
    if enum_match is None:
        return [f"wire-tags: {SERIALIZE_H}: SketchTypeTag enum not found"]
    tags = re.findall(r"(k\w+)\s*=\s*(\d+)", enum_match.group(1))
    if not tags:
        return [f"wire-tags: {SERIALIZE_H}: no SketchTypeTag enumerators"]

    seen = {}
    for name, value in tags:
        if value in seen:
            findings.append(
                f"wire-tags: {SERIALIZE_H}: tag {name} reuses wire value "
                f"{value} (already {seen[value]}) — stored payloads become "
                "ambiguous")
        seen.setdefault(value, name)

    # Map each tag to the serializer that emits it: PutHeader(...kTag)
    # inside `std::string SerializeX(...)`.
    impl = read(root, SERIALIZE_CC)
    producers = {}  # tag name -> serializer function name
    for fn_match in re.finditer(r"std::string\s+(Serialize\w+)\(", impl):
        body_start = fn_match.end()
        header_use = re.search(
            r"PutHeader\(\s*&\w+,\s*SketchTypeTag::(k\w+)\s*\)",
            impl[body_start:body_start + 2000])
        if header_use:
            producers.setdefault(header_use.group(1), fn_match.group(1))

    golden = read(root, GOLDEN_TEST)
    family_serializers = set()
    for body in FAMILY_SPEC.findall(read(root, FAMILY_CC)):
        family_serializers.update(SERIALIZER_CALL.findall(
            re.sub(r"//[^\n]*", "", body)))
    for name, _value in tags:
        serializer = producers.get(name)
        if serializer is None:
            findings.append(
                f"wire-tags: {SERIALIZE_CC}: tag {name} has no "
                "PutHeader producer — dead wire value or unregistered "
                "serializer")
            continue
        if serializer not in golden:
            findings.append(
                f"wire-tags: {GOLDEN_TEST}: tag {name} ({serializer}) has "
                "no golden-bytes lock — add a pinned-payload test so the "
                "format cannot drift")
        if serializer not in family_serializers:
            findings.append(
                f"wire-tags: {FAMILY_CC}: tag {name} ({serializer}) is "
                "called by no family Spec — a wire format no registered "
                "family serves is dead surface; retire the tag instead")
    return findings


def registered_families(root: Path):
    src = read(root, FAMILY_CC)
    fn = re.search(
        r"RegisteredFamilies\(\)\s*\{(.*?)\n\}", src, re.DOTALL)
    if fn is None:
        return None
    return re.findall(r'\{\s*"(\w+)"\s*,\s*"', fn.group(1))


# `class X [final] : <bases> {` — one match per class/struct definition.
CLASS_DEF = re.compile(r"\b(?:class|struct)\s+(\w+)(?:\s+final)?\s*:([^{;]*)\{")
ONE_IMPLEMENTATION = ("SketchFamily", "Sketcher")


def interface_subclasses(root: Path):
    """interface name -> [(file, subclass)] over every src/ definition."""
    found = {base: [] for base in ONE_IMPLEMENTATION}
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        text = re.sub(r"//[^\n]*", "", path.read_text(encoding="utf-8"))
        for match in CLASS_DEF.finditer(text):
            for base in match.group(2).split(","):
                name = re.sub(r"<.*", "", base).split()[-1].split("::")[-1]
                if name in found:
                    rel = path.relative_to(root).as_posix()
                    found[name].append((rel, match.group(1)))
    return found


def check_families(root: Path):
    findings = []
    for base, subclasses in interface_subclasses(root).items():
        if len(subclasses) > 1:
            listed = ", ".join(f"{cls} ({rel})" for rel, cls in subclasses)
            findings.append(
                f"families: {FAMILY_CC}: {len(subclasses)} {base} "
                f"subclasses in src/ ({listed}) — a family is a Spec for "
                "TypedFamily, not a hand-written class")
    families = registered_families(root)
    if not families:
        return [f"families: {FAMILY_CC}: RegisteredFamilies() not found"]

    test = read(root, FAMILY_TEST)
    # ValuesIn(RegisteredFamilies()) covers every family by construction;
    # an explicit list must name each one.
    if "ValuesIn(RegisteredFamilies())" not in test:
        for family in families:
            if f'"{family}"' not in test:
                findings.append(
                    f"families: {FAMILY_TEST}: family '{family}' missing "
                    "from the parameterized family-registry test list")

    for family in families:
        tu = FAMILY_ESTIMATOR_TU.get(family)
        if tu is None:
            findings.append(
                f"families: {FAMILY_CC}: family '{family}' has no estimator "
                "TU mapping in tools/lint_invariants.py — add it and route "
                "the estimator through ActiveKernel()")
        elif "ActiveKernel()" not in read(root, tu):
            findings.append(
                f"families: {tu}: family '{family}' estimator does not use "
                "ActiveKernel() — it bypasses the EstimateKernel dispatch "
                "table and the scalar/SIMD equivalence net")
    return findings


METRIC_CALL = re.compile(
    r"Get(?:Counter|Gauge|Histogram)\(\s*\"((?:[^\"\\]|\\.)*)\"")
METRIC_NAME = re.compile(r"^ipsketch_[a-z0-9]+(?:_[a-z0-9]+)*$")
# A backticked, fully spelled-out metric name in the docs (not a prefix
# such as `ipsketch_` or a pattern such as `ipsketch_*`).
DOCUMENTED_METRIC = re.compile(r"`(ipsketch_[a-z0-9]+(?:_[a-z0-9]+)*)`")


def check_metrics(root: Path):
    findings = []
    inventory = read(root, README)
    tests = "\n".join(
        path.read_text(encoding="utf-8", errors="replace")
        for path in sorted((root / "tests").rglob("*")) if path.is_file())
    untested = set()
    for path in sorted((root / "src").rglob("*.cc")):
        rel = path.relative_to(root).as_posix()
        for match in METRIC_CALL.finditer(path.read_text(encoding="utf-8")):
            literal = match.group(1)
            # Label blocks are appended at runtime ("...occupancy{shard=...");
            # the convention applies to the base name.
            base = literal.split("{")[0]
            if not METRIC_NAME.match(base):
                findings.append(
                    f"metrics: {rel}: metric '{base}' violates the "
                    "ipsketch_<snake_case> naming convention")
                continue
            unprefixed = base[len("ipsketch_"):]
            if f"`{unprefixed}" not in inventory:
                findings.append(
                    f"metrics: {rel}: metric '{base}' is not documented in "
                    f"{README}'s metric inventory table")
            # A longer name that merely starts with `base` does not count.
            if (base not in untested and
                    not re.search(re.escape(base) + r"(?![a-z0-9_])", tests)):
                untested.add(base)
                findings.append(
                    f"metrics: {rel}: metric '{base}' is named in no file "
                    "under tests/ — drive it in a test or delete it")
    return findings


RAW_MUTEX = re.compile(
    r"std::(?:mutex|condition_variable|lock_guard|unique_lock|scoped_lock)\b"
    r"|#include\s*<(?:mutex|condition_variable)>")


def check_raw_mutex(root: Path):
    findings = []
    for top in ("src", "tests", "bench"):
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".h", ".cc", ".cpp"):
                continue
            rel = path.relative_to(root).as_posix()
            if rel in MUTEX_ALLOWED:
                continue
            for i, line in enumerate(
                    path.read_text(encoding="utf-8").splitlines(), 1):
                if RAW_MUTEX.search(line):
                    findings.append(
                        f"raw-mutex: {rel}:{i}: raw standard-library lock "
                        "primitive — use ipsketch::Mutex/MutexLock/CondVar "
                        "(common/mutex.h) so the thread-safety annotations "
                        "and the lock-rank checker see it")
    return findings


def check_fuzz_coverage(root: Path):
    findings = []
    header = read(root, SERIALIZE_H)
    enum_match = re.search(
        r"enum\s+class\s+SketchTypeTag[^{]*\{(.*?)\}", header, re.DOTALL)
    if enum_match is None:
        return [f"fuzz-coverage: {SERIALIZE_H}: SketchTypeTag enum not found"]

    surfaces = []  # (what the target guards, target name)
    for name, _value in re.findall(r"(k\w+)\s*=\s*(\d+)", enum_match.group(1)):
        target = TAG_FUZZ_TARGET.get(name)
        if target is None:
            findings.append(
                f"fuzz-coverage: {SERIALIZE_H}: tag {name} has no fuzz-target "
                "mapping in tools/lint_invariants.py — add one, a fuzz/ "
                "harness, and seeds in tools/make_corpus.py")
            continue
        surfaces.append((f"tag {name}", target))
    surfaces += [(what, target) for target, what in EXTRA_FUZZ_TARGETS.items()]

    for what, target in surfaces:
        harness = root / "fuzz" / f"{target}.cc"
        if not harness.is_file():
            findings.append(
                f"fuzz-coverage: fuzz/{target}.cc: missing fuzz harness for "
                f"{what}")
        corpus = root / "fuzz" / "corpus" / target
        if not any(p.is_file() for p in corpus.glob("*")):
            findings.append(
                f"fuzz-coverage: fuzz/corpus/{target}: no checked-in seed "
                f"for {what} — run tools/make_corpus.py and commit the "
                "seeds")
    return findings


def check_docs_freshness(root: Path):
    findings = []
    for rel in (OPERATIONS_MD, WIRE_FORMAT_MD):
        if not (root / rel).is_file():
            findings.append(
                f"docs-freshness: {rel}: missing — the docs/ tree ships "
                "with the code")
    if findings:
        return findings

    # Every registered metric has a row in the operator runbook. Names are
    # documented fully prefixed (unlike README's inventory, which strips
    # the ipsketch_ prefix).
    ops = read(root, OPERATIONS_MD)
    registered = set()
    reported = set()
    for path in sorted((root / "src").rglob("*.cc")):
        rel = path.relative_to(root).as_posix()
        for match in METRIC_CALL.finditer(path.read_text(encoding="utf-8")):
            base = match.group(1).split("{")[0]
            # Malformed names are the metrics rule's finding, not ours.
            if not METRIC_NAME.match(base):
                continue
            registered.add(base)
            if f"`{base}`" not in ops and base not in reported:
                reported.add(base)
                findings.append(
                    f"docs-freshness: {rel}: metric '{base}' is not "
                    f"documented in {OPERATIONS_MD} — operators cannot "
                    "alert on a metric they cannot look up")

    # ...and every metric the runbook documents is still registered, so a
    # deleted metric's row cannot outlive it.
    for name in sorted(set(DOCUMENTED_METRIC.findall(ops)) - registered):
        findings.append(
            f"docs-freshness: {OPERATIONS_MD}: metric '{name}' is "
            "documented but registered nowhere in src/ — operators would "
            "alert on a series that never appears")

    # Every wire tag enumerator is specified in the wire-format doc.
    header = read(root, SERIALIZE_H)
    enum_match = re.search(
        r"enum\s+class\s+SketchTypeTag[^{]*\{(.*?)\}", header, re.DOTALL)
    if enum_match is None:
        findings.append(
            f"docs-freshness: {SERIALIZE_H}: SketchTypeTag enum not found")
        return findings
    wire = read(root, WIRE_FORMAT_MD)
    for name, _value in re.findall(r"(k\w+)\s*=\s*(\d+)",
                                   enum_match.group(1)):
        if f"`{name}`" not in wire:
            findings.append(
                f"docs-freshness: {SERIALIZE_H}: wire tag {name} is not "
                f"documented in {WIRE_FORMAT_MD} — the spec no longer "
                "describes the format it claims to be normative for")
    return findings


# A ShardView built anywhere: allocated through a smart-pointer factory or
# `new`, or declared by value (`ShardView view;`, `ShardView view{...}`).
SHARD_VIEW_CONSTRUCTION = re.compile(
    r"\b(?:make_shared|make_unique|allocate_shared)\s*<\s*(?:const\s+)?"
    r"(?:ipsketch::)?ShardView\s*>"
    r"|\bnew\s+(?:ipsketch::)?ShardView\b"
    r"|\bShardView\s+\w+\s*[;{(=]")


def check_store_writes(root: Path):
    findings = []
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = path.relative_to(root).as_posix()
        if rel == STORE_CC:
            continue
        text = re.sub(r"//[^\n]*", "", path.read_text(encoding="utf-8"))
        if SHARD_VIEW_CONSTRUCTION.search(text):
            findings.append(
                f"store-writes: {rel}: constructs a ShardView — only "
                f"{STORE_CC} builds views; insert through "
                "SketchStore::InsertBatch instead of staging one")
    header = re.sub(r"//[^\n]*", "", read(root, STORE_H))
    if re.search(r"\bfriend\b", header):
        findings.append(
            f"store-writes: {STORE_H}: declares a friend — a friend can "
            "publish views around SketchStore::InsertBatch")
    publishers = publish_callers(re.sub(r"//[^\n]*", "", read(root, STORE_CC)))
    if len(publishers) != 1:
        findings.append(
            f"store-writes: {STORE_CC}: calls PublishLocked from "
            f"{len(publishers)} functions ({', '.join(publishers)}), "
            "expected exactly one — every write goes through the store's "
            "one merge")
    return findings


# A call of PublishLocked (its qualified definition is not one).
PUBLISH_CALL = re.compile(r"(?<!::)\bPublishLocked\s*\(")


def publish_callers(text: str):
    """Sorted names of the functions in `text` that call PublishLocked. A
    call outside every body TOP_LEVEL_FUNCTION finds is named by its line,
    so it still counts."""
    bodies = [(m.start(2), m.end(2), m.group(1))
              for m in TOP_LEVEL_FUNCTION.finditer(text)]
    callers = set()
    for call in PUBLISH_CALL.finditer(text):
        owners = [name for start, end, name in bodies
                  if start <= call.start() < end]
        line = text.count("\n", 0, call.start()) + 1
        callers.add(owners[0] if owners else f"line {line}")
    return sorted(callers)


# A member or qualified call of the one-pair form (not EstimateMany, not
# EstimateInnerProduct).
PER_PAIR_ESTIMATE = re.compile(r"(?:\.|->|::)\s*Estimate\s*\(")
# The one served per-pair call's home: the pairwise API's definition.
PAIRWISE_API = re.compile(
    r"QueryEngine::EstimateInnerProduct\(.*?\n\}", re.DOTALL)


def check_scoring(root: Path):
    findings = []
    for top in ("src/index", "src/service"):
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            rel = path.relative_to(root).as_posix()
            text = re.sub(r"//[^\n]*", "", path.read_text(encoding="utf-8"))
            if rel == QUERY_ENGINE_CC:
                # Blank the pairwise API's body, keeping its line count.
                text = PAIRWISE_API.sub(
                    lambda m: "\n" * m.group(0).count("\n"), text)
            for match in PER_PAIR_ESTIMATE.finditer(text):
                line = text.count("\n", 0, match.start()) + 1
                findings.append(
                    f"scoring: {rel}:{line}: per-pair Estimate call — a "
                    "served scan scores a shard or a probe's candidates "
                    "with one SketchFamily::EstimateMany call")
    return findings


# A tier accessor declaration: `const EstimateKernel& Name();` or
# `const EstimateKernel* Name();`.
TIER_ACCESSOR = re.compile(
    r"\bconst\s+EstimateKernel\s*[*&]\s*(\w+)\s*\(\s*\)\s*;")
# The kernel table and one entry point in it: `R (*name)(args);`.
KERNEL_TABLE = re.compile(r"\bstruct\s+EstimateKernel\s*\{(.*?)\n\};",
                          re.DOTALL)
KERNEL_ENTRY = re.compile(r"\(\s*\*\s*(\w+)\s*\)\s*\(")
# A function defined at column 0 (name, body up to its column-0 `}`).
TOP_LEVEL_FUNCTION = re.compile(
    r"^(?!namespace\b|struct\b|class\b|using\b|template\b)"
    r"[A-Za-z_][^;{}=]*?\b(\w+)\s*\([^;{}]*\)[^;{}]*\{(.*?)^\}",
    re.DOTALL | re.MULTILINE)
CALL = re.compile(r"\b(\w+)\s*\(")


def family_reached_bodies(root: Path):
    """Bodies of the estimator-TU functions a family Spec reaches."""
    bodies = {}  # function name -> bodies (overloads share a name)
    for tu in sorted(set(FAMILY_ESTIMATOR_TU.values())):
        text = re.sub(r"//[^\n]*", "", read(root, tu))
        for match in TOP_LEVEL_FUNCTION.finditer(text):
            bodies.setdefault(match.group(1), []).append(match.group(2))
    pending = [name for body in FAMILY_SPEC.findall(read(root, FAMILY_CC))
               for name in CALL.findall(re.sub(r"//[^\n]*", "", body))]
    reached = set()
    while pending:
        name = pending.pop()
        if name in reached or name not in bodies:
            continue
        reached.add(name)
        for body in bodies[name]:
            pending.extend(CALL.findall(body))
    return [body for name in sorted(reached) for body in bodies[name]]


GETENV = re.compile(r"\b(?:secure_)?getenv\b")


def check_env_switches(root: Path):
    findings = []
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = path.relative_to(root).as_posix()
        if rel == DISPATCH_CC:
            continue
        for i, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1):
            if GETENV.search(line):
                findings.append(
                    f"env-switches: {rel}:{i}: getenv outside {DISPATCH_CC} "
                    "— IPSKETCH_FORCE_SCALAR is the service's one runtime "
                    "switch")
    return findings


def check_kernel_tiers(root: Path):
    findings = []
    tier_files = {path.name for path in (root / SIMD_DIR).glob(
        "estimate_kernels_*.cc")}
    for name in sorted(tier_files - KERNEL_TIER_FILES):
        findings.append(
            f"kernel-tiers: {SIMD_DIR}/{name}: a third kernel tier file — "
            "the estimator has two tiers, scalar and AVX2")
    for name in sorted(KERNEL_TIER_FILES - tier_files):
        findings.append(
            f"kernel-tiers: {SIMD_DIR}/{name}: missing kernel tier file")
    header = re.sub(r"//[^\n]*", "", read(root, KERNELS_H))
    accessors = set(TIER_ACCESSOR.findall(header))
    if accessors != KERNEL_TIER_ACCESSORS:
        findings.append(
            f"kernel-tiers: {KERNELS_H}: declares tier accessors "
            f"{sorted(accessors)}, expected exactly "
            f"{sorted(KERNEL_TIER_ACCESSORS)}")

    table = KERNEL_TABLE.search(header)
    if table is None:
        findings.append(
            f"kernel-tiers: {KERNELS_H}: struct EstimateKernel not found")
        return findings
    callers = "\n".join(family_reached_bodies(root))
    for entry in KERNEL_ENTRY.findall(table.group(1)):
        if not re.search(rf"ActiveKernel\(\)\s*\.\s*{entry}\s*\(", callers):
            findings.append(
                f"kernel-tiers: {KERNELS_H}: EstimateKernel entry point "
                f"'{entry}' is called through ActiveKernel() by no function "
                "a family Spec reaches — both tiers would keep it "
                "bit-identical for a caller no registered family uses")
    return findings


RULES = {
    "wire-tags": check_wire_tags,
    "families": check_families,
    "metrics": check_metrics,
    "raw-mutex": check_raw_mutex,
    "fuzz-coverage": check_fuzz_coverage,
    "docs-freshness": check_docs_freshness,
    "store-writes": check_store_writes,
    "scoring": check_scoring,
    "kernel-tiers": check_kernel_tiers,
    "env-switches": check_env_switches,
}


def run_all(root: Path):
    findings = []
    for check in RULES.values():
        findings.extend(check(root))
    return findings


# --- self-test ---------------------------------------------------------------

def seed_wire_tags(root: Path):
    path = root / SERIALIZE_H
    # Duplicate wire value: give the last enumerator the first one's value.
    text = path.read_text(encoding="utf-8")
    path.write_text(
        re.sub(r"(kBbitWmh\s*=\s*)\d+", r"\g<1>1", text), encoding="utf-8")


def seed_unserved_wire_tag(root: Path):
    # A new tag with a producer and a golden lock that no family Spec calls.
    path = root / SERIALIZE_H
    text = path.read_text(encoding="utf-8")
    seeded = text.replace("  kBbitWmh = 9,",
                          "  kBbitWmh = 9,\n  kPhantom = 10,", 1)
    assert seeded != text, "unserved wire tag seed did not apply"
    path.write_text(seeded, encoding="utf-8")
    with (root / SERIALIZE_CC).open("a", encoding="utf-8") as f:
        f.write(
            "\nnamespace ipsketch {\n"
            "std::string SerializePhantom(const JlSketch& sketch) {\n"
            "  std::string out;\n"
            "  PutHeader(&out, SketchTypeTag::kPhantom);\n"
            "  return out;\n"
            "}\n"
            "}  // namespace ipsketch\n")
    with (root / GOLDEN_TEST).open("a", encoding="utf-8") as f:
        f.write(
            "\nTEST(GoldenBytesTest, Phantom) {\n"
            "  EXPECT_FALSE(SerializePhantom(JlSketch()).empty());\n"
            "}\n")


def seed_families(root: Path):
    path = root / FAMILY_CC
    text = path.read_text(encoding="utf-8")
    seeded = text.replace(
        'return *families;',
        'const_cast<std::vector<FamilyInfo>*>(families)->push_back(\n'
        '      {"phantom", "PH", StorageClass::kLinear, true, true, false});\n'
        '  return *families;', 1)
    assert seeded != text, "family seed did not apply"
    path.write_text(seeded, encoding="utf-8")


def seed_second_family_class(root: Path):
    path = root / FAMILY_CC
    with path.open("a", encoding="utf-8") as f:
        f.write(
            "\nnamespace ipsketch {\n"
            "class PhantomFamily final : public SketchFamily {};\n"
            "}  // namespace ipsketch\n")


def seed_second_sketcher_class(root: Path):
    path = root / "src/service/query_engine.cc"
    with path.open("a", encoding="utf-8") as f:
        f.write(
            "\nnamespace ipsketch {\n"
            "struct PhantomSketcher : ipsketch::Sketcher {};\n"
            "}  // namespace ipsketch\n")


def seed_metrics(root: Path):
    path = root / "src/service/metrics.cc"
    text = path.read_text(encoding="utf-8")
    seeded = text.replace(
        "namespace metrics {",
        "namespace metrics {\n"
        "inline void UndocumentedMetricForLintSelfTest() {\n"
        '  MetricsRegistry::Global().GetCounter("BadName_total", "seeded");\n'
        "}", 1)
    assert seeded != text, "metrics seed did not apply"
    path.write_text(seeded, encoding="utf-8")


def seed_untested_metric(root: Path):
    # A registered, documented metric that no test names any more.
    name = "ipsketch_pool_tasks_rejected_total"
    seeded_any = False
    for path in (root / "tests").rglob("*"):
        if not path.is_file():
            continue
        text = path.read_text(encoding="utf-8", errors="replace")
        if name in text:
            path.write_text(text.replace(name, "ipsketch_pool_phantom_total"),
                            encoding="utf-8")
            seeded_any = True
    assert seeded_any, "untested metric seed did not apply"


def seed_env_switch(root: Path):
    # A second runtime switch, read where the metrics layer lives.
    with (root / "src/service/metrics.cc").open("a", encoding="utf-8") as f:
        f.write(
            "\nnamespace ipsketch {\n"
            "bool PhantomSwitch() {\n"
            '  return std::getenv("IPSKETCH_PHANTOM") != nullptr;\n'
            "}\n"
            "}  // namespace ipsketch\n")


def seed_raw_mutex(root: Path):
    path = root / "src/service/query_engine.cc"
    with path.open("a", encoding="utf-8") as f:
        f.write("\n// seeded by lint self-test\nstatic std::mutex lint_mu;\n")


def seed_fuzz_coverage(root: Path):
    # Empty one per-tag corpus: the tag still has a harness, but no seed.
    corpus = root / "fuzz" / "corpus" / "fuzz_kmv_decode"
    for path in corpus.glob("*"):
        path.unlink()


def seed_docs_metric(root: Path):
    # A well-formed metric registration nowhere in docs/OPERATIONS.md.
    path = root / "src/service/metrics.cc"
    text = path.read_text(encoding="utf-8")
    seeded = text.replace(
        "namespace metrics {",
        "namespace metrics {\n"
        "inline void UndocumentedDocsMetricForLintSelfTest() {\n"
        '  MetricsRegistry::Global().GetCounter("ipsketch_phantom_total",\n'
        '                                       "seeded");\n'
        "}", 1)
    assert seeded != text, "docs metric seed did not apply"
    path.write_text(seeded, encoding="utf-8")


def seed_docs_phantom_metric(root: Path):
    # A documented metric row that nothing in src/ registers.
    path = root / OPERATIONS_MD
    text = path.read_text(encoding="utf-8")
    seeded = text.replace(
        "| `ipsketch_store_size` |",
        "| `ipsketch_store_phantom_ns` | histogram | seeded |\n"
        "| `ipsketch_store_size` |", 1)
    assert seeded != text, "docs phantom-metric seed did not apply"
    path.write_text(seeded, encoding="utf-8")


def seed_docs_wire_tag(root: Path):
    # A new wire tag the wire-format doc has never heard of.
    path = root / SERIALIZE_H
    text = path.read_text(encoding="utf-8")
    seeded = text.replace("  kBbitWmh = 9,",
                          "  kBbitWmh = 9,\n  kPhantom = 10,", 1)
    assert seeded != text, "docs wire-tag seed did not apply"
    path.write_text(seeded, encoding="utf-8")


def seed_staged_view(root: Path):
    path = root / "src/service/persistence.cc"
    with path.open("a", encoding="utf-8") as f:
        f.write(
            "\nnamespace ipsketch {\n"
            "ShardViewPtr PhantomStagedView() {\n"
            "  return std::make_shared<ShardView>();\n"
            "}\n"
            "}  // namespace ipsketch\n")


def seed_store_friend(root: Path):
    path = root / STORE_H
    text = path.read_text(encoding="utf-8")
    seeded = text.replace(
        " private:\n  struct Shard {",
        " private:\n  friend class PhantomWriter;\n  struct Shard {", 1)
    assert seeded != text, "store friend seed did not apply"
    path.write_text(seeded, encoding="utf-8")


def seed_second_publisher(root: Path):
    with (root / STORE_CC).open("a", encoding="utf-8") as f:
        f.write(
            "\nnamespace ipsketch {\n"
            "void SketchStore::PhantomSplice(Shard& shard) {\n"
            "  PublishLocked(shard, std::make_shared<ShardView>());\n"
            "}\n"
            "}  // namespace ipsketch\n")


def seed_per_pair_scan(root: Path):
    path = root / QUERY_ENGINE_CC
    text = path.read_text(encoding="utf-8")
    seeded = text.replace(
        "        entries_per_shard[s] = count;\n",
        "        entries_per_shard[s] = count;\n"
        "        for (size_t i = 0; i < count; ++i) {\n"
        "          (void)family.Estimate(*scored[0], *view->sketches[i]);\n"
        "        }\n", 1)
    assert seeded != text, "per-pair scan seed did not apply"
    path.write_text(seeded, encoding="utf-8")


def seed_third_tier_accessor(root: Path):
    path = root / KERNELS_H
    text = path.read_text(encoding="utf-8")
    seeded = text.replace(
        "const EstimateKernel* Avx2Kernel();",
        "const EstimateKernel* Avx2Kernel();\n"
        "const EstimateKernel* Avx512Kernel();", 1)
    assert seeded != text, "third tier accessor seed did not apply"
    path.write_text(seeded, encoding="utf-8")


def seed_third_tier_file(root: Path):
    shutil.copy(root / SIMD_DIR / "estimate_kernels_avx2.cc",
                root / SIMD_DIR / "estimate_kernels_avx512.cc")


def seed_unread_kernel_field(root: Path):
    # A kernel entry point that no family estimator calls.
    path = root / KERNELS_H
    text = path.read_text(encoding="utf-8")
    anchor = "  double (*dot_f64)(const double* x, const double* y, size_t m);\n"
    seeded = text.replace(
        anchor,
        anchor + "\n  /// Σ max(ha[i], hb[i]).\n"
        "  double (*max_sum_f64)(const double* ha, const double* hb, "
        "size_t m);\n", 1)
    assert seeded != text, "unread kernel field seed did not apply"
    path.write_text(seeded, encoding="utf-8")


def seed_side_estimator_kernel(root: Path):
    # The field is read, but only by an estimator no family Spec calls.
    seed_unread_kernel_field(root)
    with (root / "src/core/wmh_estimator.cc").open("a", encoding="utf-8") as f:
        f.write(
            "\nnamespace ipsketch {\n"
            "Result<double> EstimateMaxHashSum(const WmhSketch& a,\n"
            "                                  const WmhSketch& b) {\n"
            "  return simd::ActiveKernel().max_sum_f64(\n"
            "      a.hashes.data(), b.hashes.data(), a.num_samples());\n"
            "}\n"
            "}  // namespace ipsketch\n")


# rule -> (seed label, seed fn) pairs; each seed is planted in its own tree
# copy and must be caught by its rule independently.
SEEDS = {
    "wire-tags": [
        ("duplicate wire value", seed_wire_tags),
        ("tag with no family serializer", seed_unserved_wire_tag),
    ],
    "families": [
        ("unmapped family", seed_families),
        ("second SketchFamily subclass", seed_second_family_class),
        ("second Sketcher subclass", seed_second_sketcher_class),
    ],
    "metrics": [
        ("unprefixed metric", seed_metrics),
        ("metric named in no test", seed_untested_metric),
    ],
    "raw-mutex": [("raw std::mutex", seed_raw_mutex)],
    "fuzz-coverage": [("emptied seed corpus", seed_fuzz_coverage)],
    "docs-freshness": [
        ("undocumented metric", seed_docs_metric),
        ("phantom documented metric", seed_docs_phantom_metric),
        ("undocumented wire tag", seed_docs_wire_tag),
    ],
    "store-writes": [
        ("ShardView staged outside the store", seed_staged_view),
        ("friend in sketch_store.h", seed_store_friend),
        ("second PublishLocked caller", seed_second_publisher),
    ],
    "scoring": [("per-pair Estimate in the exact scan", seed_per_pair_scan)],
    "kernel-tiers": [
        ("third tier accessor", seed_third_tier_accessor),
        ("third tier file", seed_third_tier_file),
        ("unread kernel field", seed_unread_kernel_field),
        ("kernel read only by a side estimator", seed_side_estimator_kernel),
    ],
    "env-switches": [("getenv outside dispatch.cc", seed_env_switch)],
}


def copy_tree(root: Path, dest: Path):
    for top in ("src", "tests", "bench", "tools", "fuzz", "docs"):
        if (root / top).is_dir():
            shutil.copytree(root / top, dest / top)
    shutil.copy(root / README, dest / README)


def self_test(root: Path) -> int:
    baseline = run_all(root)
    if baseline:
        print("self-test: tree must be clean before seeding; found:")
        print("\n".join(f"  {f}" for f in baseline))
        return 1
    failures = 0
    for rule, seeds in SEEDS.items():
        for label, seed in seeds:
            with tempfile.TemporaryDirectory(prefix="lint_selftest_") as tmp:
                seeded_root = Path(tmp)
                copy_tree(root, seeded_root)
                seed(seeded_root)
                caught = [f for f in run_all(seeded_root)
                          if f.startswith(rule)]
                if caught:
                    print(f"self-test: {rule}: caught {label} — OK")
                else:
                    print(f"self-test: {rule}: {label} NOT caught")
                    failures += 1
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=None,
                        help="repo root (default: the lint's parent repo)")
    parser.add_argument("--self-test", action="store_true",
                        help="seed one violation per rule in a tree copy "
                             "and verify each is caught")
    args = parser.parse_args()
    root = args.root or Path(__file__).resolve().parent.parent

    if args.self_test:
        return self_test(root)

    findings = run_all(root)
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} invariant violation(s)", file=sys.stderr)
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
