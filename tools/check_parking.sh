#!/usr/bin/env bash
# Parking lint, run by ctest under the "lint" label.
#
# Every worker thread under src/ parks on a Wakeup (src/common/wakeup.h),
# whose stop flag and work epoch are written and read under the one
# mutex its waits check them under, so no stop or notify is ever lost
# between a waiter's check and its block. This lint keeps hand-rolled
# copies from coming back: it fails when `std::condition_variable`,
# `.notify_one(` or `.notify_all(` appears in code under src/ outside
# the helper itself. Comments are ignored.
#
# The one named exception is ResilientClient's mirror wait: its `cv_`
# in src/net/resilient_client.{h,cc}. WaitForSequence() waits for data
# to arrive, not for work or stop.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
pattern='std::condition_variable|\.notify_one\(|\.notify_all\('

if ! [ -f "$root/src/common/wakeup.h" ]; then
  echo "check_parking: src/common/wakeup.h not found — wrong root?" >&2
  exit 1
fi

fail=0
while IFS= read -r hit; do
  file="${hit%%:*}"
  rest="${hit#*:}"
  code="${rest#*:}"
  code="${code%%//*}"
  printf '%s' "$code" | grep -qE "$pattern" || continue
  case "$file" in
    src/common/wakeup.h) continue ;;
    src/net/resilient_client.h | src/net/resilient_client.cc)
      printf '%s' "$code" | grep -qE '(^|[^A-Za-z0-9_])cv_([^A-Za-z0-9_]|$)' &&
        continue ;;
  esac
  echo "hand-rolled parking at $file:${rest%%:*}: $code" >&2
  echo "  park and stop threads with mqpi::Wakeup (src/common/wakeup.h)" >&2
  fail=1
done < <(cd "$root" && grep -rnE --include='*.cc' --include='*.h' \
                             "$pattern" src)

if [ "$fail" -eq 0 ]; then
  echo "check_parking: every parked thread under src/ uses Wakeup"
fi
exit "$fail"
