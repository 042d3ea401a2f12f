#!/usr/bin/env bash
# Parking lint, run by ctest under the "lint" label.
#
# Every thread under src/ that parks, waits for a condition or sleeps
# does it on a Wakeup (src/common/wakeup.h), whose stop flag and work
# epoch are written and read under the one mutex its waits check them
# under, so no stop or notify is ever lost between a waiter's check and
# its block, and no wait polls. This lint keeps hand-rolled copies from
# coming back: it fails when `std::condition_variable`, `.notify_one(`,
# `.notify_all(`, `sleep_for` or `sleep_until` appears in code under
# src/ outside the helper itself. Comments are ignored.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
pattern='std::condition_variable|\.notify_one\(|\.notify_all\(|sleep_for|sleep_until'

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
  [ "$file" = src/common/wakeup.h ] && continue
  echo "hand-rolled parking at $file:${rest%%:*}: $code" >&2
  echo "  park, wait and sleep with mqpi::Wakeup (src/common/wakeup.h)" >&2
  fail=1
done < <(cd "$root" && grep -rnE --include='*.cc' --include='*.h' \
                             "$pattern" src)

if [ "$fail" -eq 0 ]; then
  echo "check_parking: every parked thread under src/ uses Wakeup"
fi
exit "$fail"
