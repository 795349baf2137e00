#!/usr/bin/env python3
"""CI gate for the committed benchmark documents: flag regressions.

Compares a fresh --json run against its committed baseline. The baseline's
"benchmark" field selects the check, and the current run must carry the
same field (a wrong file pairing is refused):

bench_throughput (BENCH_throughput.json)
    Digests are machine-independent and must match the baseline EXACTLY — a
    digest drift means a cell no longer produces the committed results.
    Absolute trials/sec are machine-dependent, so the gate compares each
    cell's trials/sec divided by the rate of a fixed u64 calibration kernel
    timed in the same run ("batch_per_calib"). A cell regresses when that
    value falls more than TOLERANCE below the baseline row's
    "min_batch_per_calib" floor (the minimum over several recorded runs, with
    the machine context in the baseline's "recorded_on"). Both runs must use
    the same --threads (the "threads" field); a mismatched pairing is
    refused.

bench_e16_distributed (BENCH_distributed.json)
    Rows are keyed by (protocol, workers). Digests are machine-independent
    and must match the baseline EXACTLY — a digest drift means the sharded
    fold is no longer byte-identical to the committed results. The
    scaling_vs_1 ratio (again dimensionless) must stay at or above the
    baseline row's committed min_scaling floor.

bench_e15_dryrun (BENCH_memory.json)
    The CSR graph engine's bytes-per-node budget. Rows are keyed by
    (family, n). The report is fully deterministic (fixed seeds, no timing),
    so there is no tolerance band: a row fails when its bytesPerNode exceeds
    the committed "ceiling" of its "maxBytesPerNode" entry, and the ceilings
    carry the headroom explicitly.

In every mode a baseline row missing from the current run is a failure —
silently dropping a cell is how coverage rots.

Usage: check_bench.py BASELINE.json CURRENT.json
Exit 0 when every row is present and within its bound, 1 on a regression,
2 on a refused pairing.
"""
import json
import sys

TOLERANCE = 0.10


def load_doc(path):
    with open(path) as handle:
        return json.load(handle)


def key_str(key):
    if isinstance(key, tuple):
        return f"{key[0]} @ {key[1]}"
    return key


def check_digest(key, base, cur, failed):
    """Exact digest match; returns whether it held."""
    if cur.get("digest") == base["digest"]:
        return True
    failed.append(
        f"{key_str(key)}: digest {cur.get('digest')} != baseline "
        f"{base['digest']} — the fold is no longer byte-identical to the "
        f"committed results"
    )
    return False


def check_throughput(key, base, cur, failed):
    digest_ok = check_digest(key, base, cur, failed)
    recorded = float(base["min_batch_per_calib"])
    floor = recorded * (1.0 - TOLERANCE)
    value = float(cur["batch_per_calib"])
    status = "ok" if digest_ok and value >= floor else "REGRESSED"
    print(
        f"{key_str(key):18s}  digest {'match' if digest_ok else 'MISMATCH':8s}  "
        f"batch/calib {value:9.3f}  floor {floor:9.3f}  {status}"
    )
    if value < floor:
        failed.append(
            f"{key_str(key)}: batch/calib {value:.3f} below floor {floor:.3f} "
            f"(recorded minimum {recorded:.3f}, tolerance {TOLERANCE:.0%})"
        )


def check_distributed(key, base, cur, failed):
    digest_ok = check_digest(key, base, cur, failed)
    floor = float(base["min_scaling"])
    scaling = float(cur["scaling_vs_1"])
    status = "ok" if digest_ok and scaling >= floor else "REGRESSED"
    print(
        f"{key_str(key):18s}  digest {'match' if digest_ok else 'MISMATCH':8s}  "
        f"scaling {scaling:5.2f}x  floor {floor:5.2f}x  {status}"
    )
    if scaling < floor:
        failed.append(
            f"{key_str(key)}: scaling_vs_1 {scaling:.3f} below committed "
            f"floor {floor:.3f}"
        )


def check_memory(key, base, cur, failed):
    measured = float(cur["bytesPerNode"])
    ceiling = float(base["ceiling"])
    status = "ok" if measured <= ceiling else "OVER BUDGET"
    print(f"{key_str(key):18s}  {measured:6.2f} B/node  ceiling {ceiling:6.2f}  {status}")
    if measured > ceiling:
        failed.append(f"{key_str(key)}: {measured:.3f} B/node exceeds ceiling {ceiling:.3f}")


# benchmark field -> (baseline rows, current rows, row key, check).
CHECKS = {
    "bench_throughput": (
        lambda doc: doc["cells"],
        lambda doc: doc["cells"],
        lambda row: row["protocol"],
        check_throughput,
    ),
    "bench_e16_distributed": (
        lambda doc: doc["cells"],
        lambda doc: doc["cells"],
        lambda row: (row["protocol"], f"{int(row['workers'])}w"),
        check_distributed,
    ),
    "bench_e15_dryrun": (
        lambda doc: doc["maxBytesPerNode"],
        lambda doc: doc["rows"],
        lambda row: (row["family"], int(row["n"])),
        check_memory,
    ),
}


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base_doc = load_doc(argv[1])
    cur_doc = load_doc(argv[2])
    kind = base_doc.get("benchmark")
    if kind not in CHECKS:
        print(f"baseline names no known benchmark ({kind!r})", file=sys.stderr)
        return 2
    if cur_doc.get("benchmark") != kind:
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
    base_rows, cur_rows, row_key, check = CHECKS[kind]
    baseline = {row_key(row): row for row in base_rows(base_doc)}
    current = {row_key(row): row for row in cur_rows(cur_doc)}

    failed = []
    for key, base in sorted(baseline.items()):
        cur = current.get(key)
        if cur is None:
            print(f"{key_str(key):18s}  MISSING from current run")
            failed.append(f"{key_str(key)}: missing from current run")
            continue
        check(key, base, cur, failed)
    for key in sorted(set(current) - set(baseline)):
        print(f"{key_str(key):18s}  new row (not in baseline) — add it to the baseline")

    if failed:
        print(f"\n{kind} regression gate FAILED:", file=sys.stderr)
        for line in failed:
            print(f"  - {line}", file=sys.stderr)
        return 1
    print(f"\n{kind} regression gate passed ({len(baseline)} rows).")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
