#!/usr/bin/env python3
"""CI gate for the benchmark JSON documents: flag regressions.

Compares a fresh --json run against its committed baseline. The document's
"benchmark" field selects the rule set:

bench_throughput (BENCH_throughput.json)
    Absolute trials/sec are machine-dependent, so the gate compares each
    cell's batch trials/sec divided by the rate of a fixed u64 calibration
    kernel timed in the same run ("batch_per_calib"). A cell regresses when
    that value falls more than TOLERANCE below the baseline row's
    "min_batch_per_calib" floor (the minimum over several recorded runs, with
    the machine context in the baseline's "recorded_on"). Normalising by the
    kernel instead of by the scalar path keeps a faster scalar path from
    reading as a slower batch engine, while a slower batch engine still
    fails. Both runs must use the same --threads (the "threads" field); a
    mismatched pairing is refused.

    The batch/scalar speedup is printed next to the baseline's for
    reference, and any cell whose current speedup is below 1.0 fails
    outright: a no-win cell must either be fixed or pinned to the scalar
    path via the no-win list in sim/throughput.cpp, in which case its
    "engine" field reads "scalar-fallback" and the sub-1.0 ratio is exempt.

bench_e16_distributed (BENCH_distributed.json)
    Rows are keyed by (protocol, workers). Digests are machine-independent
    and must match the baseline EXACTLY — a digest drift means the sharded
    fold is no longer byte-identical to the committed results. The
    scaling_vs_1 ratio (again dimensionless) must stay at or above the
    baseline row's committed min_scaling floor.

In both modes a baseline row missing from the current run is a failure —
silently dropping a cell is how coverage rots.

Usage: check_throughput.py BASELINE.json CURRENT.json
Exit 0 when every cell is within tolerance, 1 otherwise.
"""
import json
import sys

TOLERANCE = 0.10


def load_doc(path):
    with open(path) as handle:
        return json.load(handle)


def row_key(doc, cell):
    if doc.get("benchmark") == "bench_e16_distributed":
        return (cell["protocol"], int(cell["workers"]))
    return cell["protocol"]


def key_str(key):
    if isinstance(key, tuple):
        return f"{key[0]} @ {key[1]}w"
    return key


def load_cells(doc):
    return {row_key(doc, cell): cell for cell in doc["cells"]}


def check_throughput(key, base, cur, failed):
    recorded = float(base["min_batch_per_calib"])
    floor = recorded * (1.0 - TOLERANCE)
    value = float(cur["batch_per_calib"])
    cur_speedup = float(cur["speedup"])
    status = "ok" if value >= floor else "REGRESSED"
    print(
        f"{key_str(key):18s}  batch/calib {value:9.3f}  floor {floor:9.3f}  "
        f"speedup {cur_speedup:6.2f}x (baseline {float(base['speedup']):6.2f}x)  {status}"
    )
    if value < floor:
        failed.append(
            f"{key_str(key)}: batch/calib {value:.3f} below floor {floor:.3f} "
            f"(recorded minimum {recorded:.3f}, tolerance {TOLERANCE:.0%})"
        )
    if cur_speedup < 1.0 and cur.get("engine") != "scalar-fallback":
        failed.append(
            f"{key_str(key)}: batch engine loses to scalar "
            f"(speedup {cur_speedup:.3f} < 1.0) and the cell is not pinned "
            f"to the scalar path — fix it or add it to the no-win list in "
            f"sim/throughput.cpp"
        )


def check_distributed(key, base, cur, failed):
    floor = float(base["min_scaling"])
    scaling = float(cur["scaling_vs_1"])
    digest_ok = cur.get("digest") == base["digest"]
    status = "ok" if digest_ok and scaling >= floor else "REGRESSED"
    print(
        f"{key_str(key):18s}  digest {'match' if digest_ok else 'MISMATCH':8s}  "
        f"scaling {scaling:5.2f}x  floor {floor:5.2f}x  {status}"
    )
    if not digest_ok:
        failed.append(
            f"{key_str(key)}: digest {cur.get('digest')} != baseline "
            f"{base['digest']} — the distributed fold is no longer "
            f"byte-identical to the committed results"
        )
    if scaling < floor:
        failed.append(
            f"{key_str(key)}: scaling_vs_1 {scaling:.3f} below committed "
            f"floor {floor:.3f}"
        )


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base_doc = load_doc(argv[1])
    cur_doc = load_doc(argv[2])
    kind = base_doc.get("benchmark", "bench_throughput")
    if cur_doc.get("benchmark", "bench_throughput") != kind:
        print(
            f"baseline is {kind} but current run is "
            f"{cur_doc.get('benchmark')!r} — wrong file pairing",
            file=sys.stderr,
        )
        return 2
    if kind == "bench_throughput" and base_doc.get("threads") != cur_doc.get("threads"):
        print(
            f"baseline was recorded at --threads {base_doc.get('threads')} but the "
            f"current run used --threads {cur_doc.get('threads')} — not comparable",
            file=sys.stderr,
        )
        return 2
    baseline = load_cells(base_doc)
    current = load_cells(cur_doc)
    check = check_distributed if kind == "bench_e16_distributed" else check_throughput

    failed = []
    for key, base in sorted(baseline.items()):
        cur = current.get(key)
        if cur is None:
            failed.append(f"{key_str(key)}: missing from current run")
            continue
        check(key, base, cur, failed)
    for key in sorted(set(current) - set(baseline)):
        print(f"{key_str(key):18s}  new cell (not in baseline) — add it to the baseline")

    if failed:
        print(f"\n{kind} regression gate FAILED:", file=sys.stderr)
        for line in failed:
            print(f"  - {line}", file=sys.stderr)
        return 1
    print(f"\n{kind} regression gate passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
