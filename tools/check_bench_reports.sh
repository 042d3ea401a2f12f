#!/usr/bin/env bash
# Bench-report lint, run by ctest under the "lint" label.
#
# Every performance bench records its results through bench::JsonReport
# (bench/bench_util.h), which writes BENCH_<name>.json in one envelope:
# {"bench", "nproc", "config", "rows"}. This lint fails when
#   - a bench/*.cc opens a BENCH_ file itself (fopen or ofstream)
#     instead of going through JsonReport;
#   - a BENCH_*.json at the repo root does not parse with
#     `python3 -m json.tool`, lacks exactly the envelope keys, or names
#     a different bench than its file name;
#   - a bench that builds a JsonReport has no BENCH_<name>.json at the
#     repo root (run it from the root and commit the file).
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"

if ! [ -f "$root/bench/bench_util.h" ]; then
  echo "check_bench_reports: bench/bench_util.h not found — wrong root?" >&2
  exit 1
fi

fail=0

while IFS= read -r hit; do
  echo "hand-rolled bench report at bench/$hit" >&2
  echo "  write BENCH_*.json with bench::JsonReport (bench/bench_util.h)" >&2
  fail=1
done < <(cd "$root/bench" && grep -nE 'fopen\(|ofstream' -- *.cc |
           grep 'BENCH_')

for report in "$root"/BENCH_*.json; do
  [ -e "$report" ] || continue
  file="$(basename "$report")"
  if ! python3 -m json.tool "$report" > /dev/null 2>&1; then
    echo "$file: does not parse as JSON" >&2
    fail=1
    continue
  fi
  name="${file#BENCH_}"
  name="${name%.json}"
  if ! python3 - "$report" "$name" <<'PY'
import json, sys
path, name = sys.argv[1], sys.argv[2]
with open(path) as f:
    report = json.load(f)
keys = sorted(report) if isinstance(report, dict) else []
if keys != ["bench", "config", "nproc", "rows"]:
    sys.exit(f"keys {keys}, want exactly bench, nproc, config, rows")
if report["bench"] != name:
    sys.exit(f"bench {report['bench']!r} does not match the file name")
if not isinstance(report["config"], dict) or \
        not isinstance(report["rows"], list):
    sys.exit("config must be an object and rows an array")
PY
  then
    echo "$file: not a JsonReport envelope" >&2
    fail=1
  fi
done

while IFS= read -r name; do
  if ! [ -f "$root/BENCH_$name.json" ]; then
    echo "BENCH_$name.json is missing: a bench builds JsonReport(\"$name\")" >&2
    fail=1
  fi
done < <(cd "$root/bench" &&
           grep -hozP 'JsonReport\s+\w+\(\s*"\K[A-Za-z0-9_]+' -- *.cc |
           tr '\0' '\n')

if [ "$fail" -eq 0 ]; then
  echo "check_bench_reports: every BENCH_*.json comes from bench::JsonReport"
fi
exit "$fail"
