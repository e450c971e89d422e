#!/usr/bin/env bash
# Run a bench with one malformed launch variable and check that it
# stops by itself before any trial: exit status 2 (not a signal), the
# variable and its value named on stderr, and no table on stdout.
#
#   bash tests/bad_launch_env.sh build/bench/fig10_zram_faults PAGESIM_TRIALS=abc
set -u
bin=$1
assignment=$2
var=${assignment%%=*}
value=${assignment#*=}

out=$(mktemp)
err=$(mktemp)
trap 'rm -f "$out" "$err"' EXIT
env "$assignment" timeout 60 "$bin" >"$out" 2>"$err"
status=$?

fail=0
if [ "$status" -ne 2 ]; then
    echo "expected exit status 2, got $status" >&2
    fail=1
fi
if ! grep -qF "$var='$value'" "$err"; then
    echo "stderr does not name $var='$value':" >&2
    fail=1
fi
if grep -q '^|' "$out"; then
    echo "stdout has table rows:" >&2
    fail=1
fi
if [ "$fail" -ne 0 ]; then
    echo "--- stdout" >&2
    cat "$out" >&2
    echo "--- stderr" >&2
    cat "$err" >&2
fi
exit "$fail"
