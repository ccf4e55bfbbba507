# Developer entry points. `make bench` and `make bench-smoke` run the
# end-to-end benchmark (perfbench/, contract in BENCHMARK.json) over its
# three workloads; see perfbench/README.md.

GO    ?= go
OUT   ?= bench.jsonl

.PHONY: build vet test race bench bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# perfbench runs the three BENCHMARK.json workloads for $(1) seconds each
# and appends each run's JSON result line to $(OUT). perfbench exits 0 on
# a run whose outputs failed their checks, so the recipe fails unless
# every result line of this invocation says "correct":true.
define perfbench
	@fail=0; for w in warm_mc cold_mlp durable_http; do \
		res=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds $(1) --trace 0) || exit 1; \
		printf '%s\n' "$$res"; \
		line=$$(printf '%s\n' "$$res" | tail -n 1); \
		printf '%s\n' "$$line" >> $(OUT); \
		case "$$line" in *'"correct":true'*) ;; *) echo "bench: $$w: result is not correct" >&2; fail=1 ;; esac; \
	done; exit $$fail
endef

# Full run: the 25 s window BENCHMARK.json declares.
bench:
	$(call perfbench,25)

# CI-sized run: a 1 s window. Its numbers have too thin a p90 tail to
# compare (perfbench warns so), but every output is still checked, so an
# incorrect report fails the target.
bench-smoke:
	$(call perfbench,1)
