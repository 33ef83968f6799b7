#!/bin/sh
# Guard the integer kernels of the knowledge-merge path (with the
# broadcast algorithms and the one-shot runners, Run and Run_async,
# that size every message), of the
# membership service's update path and runtime loop, of the
# asynchronous scheduler's per-event path (event heap, async clock,
# mux), of the per-message resolution path (the round engine, its
# outboxes and metrics recorder, the live fault shim), of the
# per-frame path of every live node (the node core and the envelope
# codec) and of the random generator every draw goes through against
# generic comparison. A comparison whose operand type is
# inferred polymorphic ('a array, 'a, int option) compiles to a C call
# into the runtime (caml_lessthan, caml_equal, ...) instead of one
# machine instruction; on the merge, sizing, member-step, scheduler and
# frame hot paths that call happens per element, per message, per event
# or per frame. This script lists the
# undefined symbols of the native objects of the modules on those paths
# and fails if any of them references the polymorphic comparison
# primitives.
#
# The int payload modules (Cset, Intvec) are also held to int-typed
# moves: the generic Array.blit cannot tell an int array from one of
# pointers, so into an array on the major heap it pays the write
# barrier (caml_modify) per element. Their objects must not reference
# Array.blit or the runtime's caml_array_blit; Intvec.blit_ints is the
# int-typed loop to use instead.
#
# No library object may reference the lazy-value runtime
# (CamlinternalLazy): library code runs on pool worker domains, and
# OCaml 5 raises CamlinternalLazy.Undefined when two domains force the
# same lazy value at once. Compute such values eagerly at module
# initialisation instead.
#
# Usage: ci/no-poly-compare.sh [BUILD_DIR]   (default: _build/default,
# after `dune build`).
set -eu

build=${1:-_build/default}
modules="repro_util__Cset repro_util__Intvec repro_discovery__Knowledge
repro_discovery__Payload repro_discovery__Wire repro_discovery__Hm_gossip
repro_discovery__Flooding repro_discovery__Exec repro_service__Member
repro_service__View repro_service__Service repro_util__Heap repro_engine__Async_sim repro_net__Mux
repro_engine__Sim repro_engine__Outbox repro_net__Faultnet repro_util__Rng
repro_net__Node_core repro_net__Envelope repro_engine__Metrics
repro_discovery__Run repro_discovery__Run_async repro_discovery__Swamping"
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
for obj in $(find "$build/lib" -path '*/native/*' -name '*.o'); do
  if nm -u "$obj" | awk '{print $NF}' | grep -q '^camlCamlinternalLazy'; then
    echo "no-poly-compare: $(basename "$obj" .o) forces a lazy value (not domain-safe)" >&2
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "no-poly-compare: ok"
exit "$status"
