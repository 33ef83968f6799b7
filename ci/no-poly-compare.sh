#!/bin/sh
# Guard the integer kernels of the knowledge-merge path and of the
# membership service's update path against generic comparison. A
# comparison whose operand type is inferred polymorphic ('a array, 'a,
# int option) compiles to a C call into the runtime (caml_lessthan,
# caml_equal, ...) instead of one machine instruction; on the merge,
# sizing and member-step hot paths that call happens per element or per
# message. This script lists the undefined symbols of the native objects
# of the modules on those paths and fails if any of them references the
# polymorphic comparison primitives.
#
# Usage: ci/no-poly-compare.sh [BUILD_DIR]   (default: _build/default,
# after `dune build`).
set -eu

build=${1:-_build/default}
modules="repro_util__Cset repro_util__Intvec repro_discovery__Knowledge
repro_discovery__Payload repro_discovery__Wire repro_discovery__Hm_gossip
repro_discovery__Flooding repro_discovery__Exec repro_service__Member
repro_service__View"
banned='caml_(compare|equal|notequal|lessthan|lessequal|greaterthan|greaterequal)$'

status=0
for m in $modules; do
  obj=$(find "$build/lib" -path '*/native/*' -name "$m.o" | head -n 1)
  if [ -z "$obj" ]; then
    echo "no-poly-compare: no native object for $m under $build/lib (run dune build)" >&2
    status=1
    continue
  fi
  hits=$(nm -u "$obj" | awk '{print $NF}' | grep -E "^$banned" || true)
  if [ -n "$hits" ]; then
    echo "no-poly-compare: $m calls polymorphic comparison:" $hits >&2
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "no-poly-compare: ok"
exit "$status"
