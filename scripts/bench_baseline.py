#!/usr/bin/env python3
"""Pins the simulated output of every bench binary to BENCH_baseline.json.

    python3 scripts/bench_baseline.py <build-dir>            # check
    python3 scripts/bench_baseline.py <build-dir> --update   # regenerate

Each bench binary runs in a fresh temporary directory.  Binaries that
write BENCH_trace.json contribute its rows: every metric column plus the
trace `counters` map.  The report-only binaries contribute their stdout
tables.  All of these are simulated quantities (requests_per_sec is
derived from the simulated makespan), so they must reproduce exactly; the
check fails on any difference and names the differing fields.
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "BENCH_baseline.json")

# Binaries that write BENCH_trace.json rows.
ROW_BENCHES = ["bench_speedups", "bench_fusion_memory", "bench_serve",
               "bench_shard", "bench_histogram", "bench_costmodel",
               "bench_ad"]
# Binaries that only print report tables.
REPORT_BENCHES = ["bench_ablations", "bench_kmeans_variants",
                  "bench_flattening", "bench_datasets"]


def run_bench(build, name):
    exe = os.path.abspath(os.path.join(build, "bench", name))
    with tempfile.TemporaryDirectory() as tmp:
        res = subprocess.run([exe], cwd=tmp, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        if res.returncode:
            sys.exit(f"bench_baseline: {name} exited {res.returncode}")
        if name in REPORT_BENCHES:
            return {"stdout": res.stdout.splitlines()}
        with open(os.path.join(tmp, "BENCH_trace.json")) as f:
            return {"rows": json.load(f)["benchmarks"]}


def collect(build):
    out = {}
    for name in ROW_BENCHES + REPORT_BENCHES:
        out[name] = run_bench(build, name)
    return out


def diff(path, want, got, errs):
    if isinstance(want, dict) and isinstance(got, dict):
        for k in sorted(set(want) | set(got)):
            if k not in got:
                errs.append(f"{path}.{k}: missing")
            elif k not in want:
                errs.append(f"{path}.{k}: unexpected {got[k]!r}")
            else:
                diff(f"{path}.{k}", want[k], got[k], errs)
    elif isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            errs.append(f"{path}: {len(got)} entries, baseline {len(want)}")
        for i, (w, g) in enumerate(zip(want, got)):
            label = w.get("benchmark", i) if isinstance(w, dict) else i
            diff(f"{path}[{label}]", w, g, errs)
    elif want != got:
        errs.append(f"{path}: {got!r}, baseline {want!r}")


def main():
    if len(sys.argv) not in (2, 3) or sys.argv[2:] not in ([], ["--update"]):
        sys.exit(__doc__)
    got = collect(sys.argv[1])
    if sys.argv[2:] == ["--update"]:
        with open(BASELINE, "w") as f:
            json.dump(got, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {BASELINE}")
        return 0
    with open(BASELINE) as f:
        want = json.load(f)
    errs = []
    diff("baseline", want, got, errs)
    if errs:
        print("\n".join(errs[:50]), file=sys.stderr)
        print(f"bench_baseline: {len(errs)} field(s) differ from "
              "BENCH_baseline.json", file=sys.stderr)
        return 1
    nrows = sum(len(got[b]["rows"]) for b in ROW_BENCHES)
    print(f"ok: {nrows} bench rows and {len(REPORT_BENCHES)} report tables "
          "match BENCH_baseline.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
