# Convenience entry points; everything below is plain dune.

.PHONY: all build test check quick experiments bench bench-json trace-golden clean

all: build

build:
	dune build

test:
	dune runtest

# The PR gate: build, full test suite, then the quick experiment suite
# end-to-end on a 2-worker pool with the online trace invariant checker
# attached to every run (exercises the parallel executor, the
# determinism guarantee, and the event-stream invariants on a real run).
check:
	dune build
	dune runtest
	REPRO_JOBS=2 REPRO_TRACE_INVARIANTS=1 dune exec bin/experiments.exe -- --quick --results-dir _build/check-results

# Regenerate the golden traces test/test_trace.ml compares against.
# Only needed when the engines' event streams intentionally change;
# review the diff before committing.
trace-golden:
	dune build bin/discovery_cli.exe
	for a in flooding swamping pointer_jump name_dropper min_pointer rand_gossip hm; do \
	  dune exec bin/discovery_cli.exe -- trace --algo $$a --topology kout:3 -n 8 --seed 1 --check \
	    -o test/golden/$$a.jsonl || exit 1; \
	done
	dune exec bin/discovery_cli.exe -- trace --async --algo hm --topology kout:3 -n 8 --seed 1 --check \
	  -o test/golden/hm_async.jsonl

# Regenerate every table and figure into results/ (quick: reduced sizes).
quick:
	dune exec bin/experiments.exe -- --quick

experiments:
	dune exec bin/experiments.exe

# The microbenchmarks, as a table.
bench:
	dune exec bench/main.exe

# Machine-readable benchmark trajectory: the same microbenchmarks,
# written to BENCH_results.json (ns/run and minor words/run per subject).
bench-json:
	dune exec bench/main.exe -- --json

clean:
	dune clean
