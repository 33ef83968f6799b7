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
# The int payload modules (Cset, Intvec) are also held to int-typed
# moves: the generic Array.blit cannot tell an int array from one of
# pointers, so into an array on the major heap it pays the write
# barrier (caml_modify) per element. Their objects must not reference
# Array.blit or the runtime's caml_array_blit; Intvec.blit_ints is the
# int-typed loop to use instead.
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
int_modules="repro_util__Cset repro_util__Intvec"
banned_blit='^(camlStdlib__Array\.blit|caml_array_blit)'

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
  case " $int_modules " in
    *" $m "*)
      hits=$(nm -u "$obj" | awk '{print $NF}' | grep -E "$banned_blit" || true)
      if [ -n "$hits" ]; then
        echo "no-poly-compare: $m moves ints through the generic blit:" $hits >&2
        status=1
      fi
      ;;
  esac
done
[ "$status" -eq 0 ] && echo "no-poly-compare: ok"
exit "$status"
