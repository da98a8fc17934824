#!/usr/bin/env bash
# benchmark/compare.sh A.json B.json — see compare.py.
exec python3 "$(dirname "$0")/compare.py" "$@"
