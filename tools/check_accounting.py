#!/usr/bin/env python3
"""Checks the cycle ledger of every record in a sweep JSONL file.

    python3 tools/check_accounting.py RESULTS.jsonl [--gpu]

Each record must carry all 15 acct_* fields, and they must sum to
procs x cycles. With --gpu, every record must also charge some slots to
the GPU-only categories (divergence_serial, coalesce_wait, bank_conflict),
so a GPU grid whose lockstep costs went silent fails. Exits 1 naming the
first bad record.
"""

import json
import sys

GPU_CATEGORIES = ("acct_divergence_serial", "acct_coalesce_wait",
                  "acct_bank_conflict")


def main(argv):
    args = [a for a in argv if a != "--gpu"]
    gpu = len(args) != len(argv)
    if len(args) != 1:
        print("usage: check_accounting.py RESULTS.jsonl [--gpu]",
              file=sys.stderr)
        return 1
    n = 0
    with open(args[0]) as f:
        for line in f:
            if not line.strip():
                continue
            r = json.loads(line)
            acct = {k: v for k, v in r.items() if k.startswith("acct_")}
            if len(acct) != 15:
                print(f"error: {r['run_id']}: expected 15 acct_ fields, "
                      f"got {sorted(acct)}", file=sys.stderr)
                return 1
            total = sum(acct.values())
            expect = r["procs"] * r["cycles"]
            if total != expect:
                print(f"error: {r['run_id']}: sum(acct_*)={total} != "
                      f"procs*cycles={expect}", file=sys.stderr)
                return 1
            if gpu and sum(acct[k] for k in GPU_CATEGORIES) <= 0:
                print(f"error: {r['run_id']}: no GPU-specific stall mass",
                      file=sys.stderr)
                return 1
            n += 1
    if n == 0:
        print(f"error: no records in {args[0]}", file=sys.stderr)
        return 1
    live = " with GPU categories live" if gpu else ""
    print(f"ok: accounting closed{live} on all {n} cells")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
