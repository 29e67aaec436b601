#!/usr/bin/env python3
"""Fails CI when estimate throughput regresses against the committed baseline.

    tools/check_bench_regression.py BASELINE CURRENT [--threshold 0.25]
    tools/check_bench_regression.py --self-test

Compares the `estimate_pairs_per_sec` records of two BENCH_service.json
files (bench/bench_service_throughput.cc) keyed by (family, m). The gated
quantity is each point's *speedup* — the dispatched-kernel rate divided by
the same-run forced-scalar rate. That ratio is measured on one machine in
one process, so it is comparable across runner generations, while absolute
pairs/sec are not (the committed baseline may come from a much slower or
faster box). A point regresses when its current speedup drops more than
THRESHOLD below the baseline's; absolute rates are printed for context
only.

The gate has to tell apart three situations: a genuine kernel regression
(fail), ordinary spread between the baseline machine and the runner's
microarchitecture (pass), and measurement noise on families where the SIMD
win is small (don't gate). Three rules do that:

* --require-kernel NAME (used by CI, where every runner has AVX2) fails
  when the current record's dispatched kernel differs — a mismatch there
  means runtime dispatch itself regressed. Without the flag, differing
  kernels report and exit 0 (speedups across tiers are not comparable,
  e.g. a scalar-only dev box vs an AVX2 baseline).
* Points whose BASELINE speedup is below --gate-min (default 1.75) are
  reported but never gated: a ~1.4x win (icws, wmh_bbit — their scalar
  loops already skip the division on mismatch) is within shared-runner
  noise at the bench's sub-second measurement windows, and gating it
  would flake.
* A gated point fails only when BOTH conditions miss: its speedup ratio
  vs baseline dropped below 1 - THRESHOLD (catches same-machine
  regressions tightly), AND its current speedup is below
  max(2.0, baseline/2) (the cross-machine backstop: 8.6x baseline → fail
  under 4.3x). Microarchitectural spread (8.6x vs 6.2x) passes; a 4x
  kernel loss (8.6x → 2.1x) or a dead SIMD path (~1.0x) fails.

A gate that silently loses its input is off, so two gaps fail too: a
point the baseline gates (speedup >= --gate-min) that is absent from the
current record, and an "index" section in the baseline that shares no
point with the current record (including a current record with no "index"
member at all). Other points present on only one side are reported and
skipped: CI's smoke run never produces the baseline's full-corpus index
points. Sections of the record this script does not know about (e.g.
"metrics" from bench_saturation) are ignored; a "saturation" section on
both sides adds an informational — never gating — TopK p99 latency
comparison, and a "saturation_async" section (bench_saturation
--frontdoor) adds the same plus the per-level shed/expired counts. An
"index" section (bench_index) is gated like the estimate points: each
(bands, rows, corpus) point's banded-vs-exact *speedup* is a same-run,
same-machine ratio, so it transfers across runners; it fails only when the
speedup both dropped below 1 - THRESHOLD of the baseline's AND sits below
the max(2.0, baseline/2) backstop. recall@10 is reported informationally —
recall depends only on (b, r) and the corpus, not the machine, but its
acceptance evidence lives in the committed baseline, not in per-run CI
noise. Malformed records produce a one-line error, not a traceback. Exit
status: 0 ok, 1 regression or gap, 2 usage/parse error.

--self-test writes records derived from the committed baseline to a temp
dir and checks the verdicts: the baseline against itself passes, and so
does a record whose saturation TopK p99s are all null (bench_saturation
reports a percentile only when ten samples rank beyond it, so smoke levels
leave p99 null), which must print "—" in every level's current column;
each seeded fault fails (a wmh@128 speedup cut below half, a quartered
index speedup, no "index" member, no gated wmh@128 point, a scalar kernel
— what a host without AVX2 dispatches — under --require-kernel avx2).
CI's static-analysis job runs it.
"""

import argparse
import contextlib
import copy
import io
import json
import sys
import tempfile
from pathlib import Path

BASELINE = Path(__file__).resolve().parent.parent / "bench" / "baselines" / \
    "BENCH_service.json"


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def estimate_points(record, path):
    if not isinstance(record, dict):
        print(f"error: {path} is not a JSON object", file=sys.stderr)
        sys.exit(2)
    points = record.get("estimate_pairs_per_sec")
    if not isinstance(points, list):
        print(f"error: {path} has no estimate_pairs_per_sec array",
              file=sys.stderr)
        sys.exit(2)
    out = {}
    for i, p in enumerate(points):
        if not isinstance(p, dict):
            print(f"error: {path}: estimate_pairs_per_sec[{i}] is not an "
                  f"object", file=sys.stderr)
            sys.exit(2)
        missing = [k for k in ("family", "m", "per_sec", "speedup")
                   if k not in p]
        if missing:
            print(f"error: {path}: estimate_pairs_per_sec[{i}] is missing "
                  f"{', '.join(missing)}", file=sys.stderr)
            sys.exit(2)
        out[(p["family"], p["m"])] = p
    return out


def report_saturation(base_record, curr_record, key="saturation"):
    """Informational TopK p99 comparison from a saturation section.

    Never gates: latency percentiles depend on the runner's core count and
    load, so they are printed for trend-watching only. For the async
    section ("saturation_async", bench_saturation --frontdoor) the
    per-level shed/expired counts are printed too — under overload those
    are where the pressure goes instead of into p99. Absent or malformed
    sections on either side are reported and skipped.
    """
    shed_cols = key == "saturation_async"
    curr = curr_record.get(key)
    if not isinstance(curr, dict) or not isinstance(curr.get("levels"), list):
        return
    base = base_record.get(key)
    base_levels = {}
    if isinstance(base, dict) and isinstance(base.get("levels"), list):
        base_levels = {
            lvl.get("offered_concurrency"): lvl
            for lvl in base["levels"] if isinstance(lvl, dict)
        }
    print(f"\n{key} TopK p99 (informational, not gated):")
    header = f"{'offered_conc':>12} {'base p99 us':>12} {'curr p99 us':>12}"
    if shed_cols:
        header += f" {'curr shed':>10} {'curr expired':>13}"
    print(header)
    for lvl in curr["levels"]:
        if not isinstance(lvl, dict):
            continue
        conc = lvl.get("offered_concurrency", "?")
        curr_p99 = lvl.get("topk_p99_us")
        base_lvl = base_levels.get(conc)
        base_p99 = base_lvl.get("topk_p99_us") if base_lvl else None
        base_s = f"{base_p99:>12.0f}" if isinstance(base_p99, (int, float)) \
            else f"{'—':>12}"
        curr_s = f"{curr_p99:>12.0f}" if isinstance(curr_p99, (int, float)) \
            else f"{'—':>12}"
        row = f"{conc:>12} {base_s} {curr_s}"
        if shed_cols:
            row += f" {lvl.get('shed', 0):>10} {lvl.get('expired', 0):>13}"
        print(row)


def index_points(record):
    """The index section's points keyed by (bands, rows, corpus), or {}."""
    section = record.get("index")
    if not isinstance(section, dict) or \
            not isinstance(section.get("points"), list):
        return {}
    out = {}
    for p in section["points"]:
        if not isinstance(p, dict):
            continue
        if any(k not in p for k in ("bands", "rows", "corpus", "speedup")):
            continue
        out[(p["bands"], p["rows"], p["corpus"])] = p
    return out


def report_index(base_record, curr_record, threshold):
    """Gates the banded-index speedup points; returns failure descriptions.

    Same dual rule as the estimate gate: a matched point fails only when its
    speedup ratio vs baseline dropped below 1 - threshold AND its current
    speedup is under max(2.0, baseline/2). Recall@10 is printed but never
    gated (see module docstring). A baseline index section that shares no
    point with the current record fails; otherwise points on one side only
    are reported and skipped — CI's smoke run matches only the baseline's
    smoke-sized corpus points.
    """
    base = index_points(base_record)
    curr = index_points(curr_record)
    if base and not set(base) & set(curr):
        print(f"\nbanded index: the current record shares none of the "
              f"baseline's {len(base)} index points")
        return ["index: no point shared with the baseline"]
    if not curr:
        return []
    print("\nbanded index (gated on speedup; recall informational):")
    print(f"{'bands':>5} {'rows':>5} {'corpus':>8} {'base spdup':>11} "
          f"{'curr spdup':>11} {'ratio':>7} {'base rec':>9} {'curr rec':>9}"
          f"  verdict")
    failed = []
    for key in sorted(set(base) | set(curr)):
        bands, rows, corpus = key
        b_pt, c_pt = base.get(key), curr.get(key)
        b_rec = f"{b_pt['recall_at_10']:>9.4f}" if b_pt and \
            isinstance(b_pt.get("recall_at_10"), (int, float)) else f"{'—':>9}"
        c_rec = f"{c_pt['recall_at_10']:>9.4f}" if c_pt and \
            isinstance(c_pt.get("recall_at_10"), (int, float)) else f"{'—':>9}"
        if c_pt is None:
            print(f"{bands:>5} {rows:>5} {corpus:>8} "
                  f"{b_pt['speedup']:>10.2f}x {'—':>11} {'—':>7} "
                  f"{b_rec} {c_rec}  missing from current (skipped)")
            continue
        if b_pt is None:
            print(f"{bands:>5} {rows:>5} {corpus:>8} {'—':>11} "
                  f"{c_pt['speedup']:>10.2f}x {'—':>7} "
                  f"{b_rec} {c_rec}  new (no baseline)")
            continue
        b, c = b_pt["speedup"], c_pt["speedup"]
        ratio = c / b if b > 0 else float("inf")
        ok = ratio >= 1.0 - threshold or c >= max(2.0, b / 2.0)
        print(f"{bands:>5} {rows:>5} {corpus:>8} {b:>10.2f}x {c:>10.2f}x "
              f"{ratio:>6.2f}x {b_rec} {c_rec}  "
              f"{'ok' if ok else 'REGRESSION'}")
        if not ok:
            failed.append(f"index b={bands},r={rows},n={corpus} "
                          f"({ratio:.2f}x)")
    return failed


def check(baseline, current, threshold, require_kernel, gate_min):
    """Compares the record at `current` against `baseline`; exit status."""
    base_record = load(baseline)
    curr_record = load(current)
    base = estimate_points(base_record, baseline)
    curr = estimate_points(curr_record, current)

    base_kernel = base_record.get("kernel", "?")
    curr_kernel = curr_record.get("kernel", "?")
    print(f"baseline kernel: {base_kernel} "
          f"(hardware_concurrency {base_record.get('hardware_concurrency', '?')})")
    print(f"current  kernel: {curr_kernel} "
          f"(hardware_concurrency {curr_record.get('hardware_concurrency', '?')})")

    if require_kernel and curr_kernel != require_kernel:
        print(f"\nFAIL: dispatched kernel is '{curr_kernel}', expected "
              f"'{require_kernel}' — runtime dispatch regressed",
              file=sys.stderr)
        return 1
    if require_kernel and base_kernel != require_kernel:
        # A mismatched baseline would otherwise hit the cross-tier skip
        # below and silently disable the gate on every future run.
        print(f"\nFAIL: committed baseline was recorded with kernel "
              f"'{base_kernel}', expected '{require_kernel}' — "
              f"regenerate bench/baselines from a matching machine",
              file=sys.stderr)
        return 1

    if base_kernel != curr_kernel:
        print(f"\nSKIP: dispatched kernels differ ({base_kernel} vs "
              f"{curr_kernel}); speedups are not comparable across tiers")
        report_saturation(base_record, curr_record)
        report_saturation(base_record, curr_record, key="saturation_async")
        return 0

    print(f"{'family':<14} {'m':>6} {'current/s':>14} "
          f"{'base speedup':>13} {'curr speedup':>13} {'ratio':>7}  verdict")

    failed = []
    for key in sorted(set(base) | set(curr)):
        family, m = key
        if key not in curr:
            gated = base[key]["speedup"] >= gate_min
            print(f"{family:<14} {m:>6} {'—':>14} "
                  f"{base[key]['speedup']:>12.2f}x {'—':>13} {'—':>7}  "
                  f"missing from current "
                  f"({'GATED' if gated else 'skipped'})")
            if gated:
                failed.append(f"{family}@m={m} missing")
            continue
        if key not in base:
            print(f"{family:<14} {m:>6} {curr[key]['per_sec']:>14.0f} "
                  f"{'—':>13} {curr[key]['speedup']:>12.2f}x {'—':>7}  "
                  f"new (no baseline)")
            continue
        b = base[key]["speedup"]
        c = curr[key]["speedup"]
        ratio = c / b if b > 0 else float("inf")
        if b < gate_min:
            print(f"{family:<14} {m:>6} {curr[key]['per_sec']:>14.0f} "
                  f"{b:>12.2f}x {c:>12.2f}x {ratio:>6.2f}x  "
                  f"info only (baseline < {gate_min:.2f}x)")
            continue
        backstop = max(2.0, b / 2.0)
        ok = ratio >= 1.0 - threshold or c >= backstop
        print(f"{family:<14} {m:>6} {curr[key]['per_sec']:>14.0f} "
              f"{b:>12.2f}x {c:>12.2f}x {ratio:>6.2f}x  "
              f"{'ok' if ok else 'REGRESSION'}")
        if not ok:
            failed.append(f"{family}@m={m} ({ratio:.2f}x)")

    failed += report_index(base_record, curr_record, threshold)
    report_saturation(base_record, curr_record)
    report_saturation(base_record, curr_record, key="saturation_async")

    if failed:
        print(f"\nFAIL: speedup dropped >{threshold:.0%} vs baseline, or a "
              f"gated point is missing: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"\nOK: no throughput regression beyond {threshold:.0%}")
    return 0


def self_test():
    """Checks the gate's verdicts on records seeded from the baseline."""
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))

    def estimate_point(record, family, m):
        return next(p for p in record["estimate_pairs_per_sec"]
                    if (p["family"], p["m"]) == (family, m))

    def index_point(record, bands, rows, corpus):
        return next(p for p in record["index"]["points"]
                    if (p["bands"], p["rows"], p["corpus"]) ==
                    (bands, rows, corpus))

    def cut_wmh128(record):
        # Exactly half is the backstop max(2, baseline/2), which passes.
        estimate_point(record, "wmh", 128)["speedup"] *= 0.49

    def quarter_index(record):
        index_point(record, 16, 8, 4000)["speedup"] /= 4.0

    def drop_wmh128(record):
        record["estimate_pairs_per_sec"].remove(
            estimate_point(record, "wmh", 128))

    saturation_levels = [lvl for key in ("saturation", "saturation_async")
                         for lvl in baseline[key]["levels"]]

    def null_p99(record):
        for key in ("saturation", "saturation_async"):
            for lvl in record[key]["levels"]:
                lvl["topk_p99_us"] = None

    def dash_in_every_p99_row(out):
        # A saturation row reads "conc base_p99 curr_p99 ..."; no other
        # row of a passing run has "—" as its third cell.
        rows = [line.split() for line in out.splitlines()]
        return sum(row[2:3] == ["—"] for row in rows) == \
            len(saturation_levels)

    cases = [
        ("the baseline against itself", lambda record: None, 0, None),
        ("saturation TopK p99s null", null_p99, 0, dash_in_every_p99_row),
        ("wmh@128 speedup cut to 0.49x", cut_wmh128, 1, None),
        ("index b=16,r=8,n=4000 speedup quartered", quarter_index, 1, None),
        ("no index member", lambda record: record.pop("index"), 1, None),
        ("no wmh@128 estimate point", drop_wmh128, 1, None),
        ("kernel scalar", lambda record: record.update(kernel="scalar"), 1,
         None),
    ]
    failures = 0
    with tempfile.TemporaryDirectory(prefix="bench_gate_selftest_") as tmp:
        current = Path(tmp) / "BENCH_service.json"
        for label, seed, expected, printed in cases:
            record = copy.deepcopy(baseline)
            seed(record)
            current.write_text(json.dumps(record), encoding="utf-8")
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    status = check(str(BASELINE), str(current), 0.25,
                                   "avx2", 1.75)
                except SystemExit as e:
                    status = e.code
            if status != expected:
                verdict = f"exit {status}, expected {expected}"
            elif printed is not None and not printed(out.getvalue()):
                verdict = "the output lacks the expected text"
            else:
                verdict = "OK"
            print(f"self-test: {label}: {verdict}")
            failures += verdict != "OK"
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("current", nargs="?")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional speedup drop (default 0.25)")
    parser.add_argument("--require-kernel", default=None,
                        help="fail unless the current record's dispatched "
                             "kernel is NAME (CI: avx2)")
    parser.add_argument("--gate-min", type=float, default=1.75,
                        help="points with baseline speedup below this are "
                             "informational only (default 1.75)")
    parser.add_argument("--self-test", action="store_true",
                        help="check the gate's verdicts on records seeded "
                             "from the committed baseline")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.current is None:
        parser.error("BASELINE and CURRENT are required")
    return check(args.baseline, args.current, args.threshold,
                 args.require_kernel, args.gate_min)


if __name__ == "__main__":
    sys.exit(main())
