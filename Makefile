GO ?= go

.PHONY: check fmt-check lint lint-json build vet test race checkptr fuzz bench-smoke bench loc loc-check

# The fast CI gate: formatting, the internal/vm line ceiling, build, vet,
# tests, kernel lint, benchmark smoke. The race-detector suite is
# deliberately NOT in here — it reruns every experiment and takes many
# minutes, so CI runs `make race` as a separate parallel job instead of
# serializing it behind these fast gates. Run `make check race` locally for
# the full gate.
check: fmt-check loc-check build vet test lint lint-json bench-smoke

fmt-check:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt: needs formatting:"; echo "$$files"; exit 1; fi

# Static kernel lint: built-in Polybench + merge kernels and on-disk .cl files.
lint:
	$(GO) run ./cmd/fluidilint -builtin $(wildcard examples/*/*.cl)

# The same sources through the machine-readable reporter: -json exits
# non-zero on any diagnostic (including the strided out-of-bounds lint), so
# CI fails on new findings; the JSON schema itself is pinned by Go tests.
lint-json:
	$(GO) run ./cmd/fluidilint -json -builtin $(wildcard examples/*/*.cl) >/dev/null

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Longer timeout: the harness package re-runs every experiment and can
# exceed go test's 600s per-package default on slow machines. Keep this in
# sync with `race` below.
test:
	$(GO) test -timeout 1800s ./...

# Longer timeout: the harness package re-runs every experiment and is far
# slower under the race detector than go test's 600s default allows.
race:
	$(GO) test -race -timeout 1800s ./...

# internal/vm's one unsafe conversion (f32View) under the compiler's pointer
# checks, without waiting for `race`, which enables them too.
checkptr:
	$(GO) test -gcflags=all=-d=checkptr ./internal/vm

# Thirty seconds of native fuzzing: the differential suite (ref vs interp vs wg
# on generated kernels), then the topology spec parser, the one place a count
# from outside sizes an allocation. The seeds alone run in every `go test`;
# this explores beyond them.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDifferential$$' -fuzztime 25s ./internal/vm
	$(GO) test -run '^$$' -fuzz '^FuzzParseTopology$$' -fuzztime 5s ./internal/device

# One iteration of the headline benchmark, as a does-it-still-run smoke.
bench-smoke:
	$(GO) test -bench 'BenchmarkOverall' -benchtime=1x -run '^$$' .

bench:
	$(GO) test -bench . -benchmem -benchtime=3x -run '^$$' .

# Non-test Go lines per package under internal/ and cmd/ — the number the
# design-simplification ROADMAP items are judged by. (Performance is measured
# with `bash bench/run.sh`, see bench/README.md.)
loc:
	@for d in internal/* cmd/*; do \
		printf '%6d  %s\n' "$$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)" "$$d"; \
	done

# internal/vm may not grow: the ceiling is its non-test line count as of the
# last PR that shrank it, raised once since. Lower it when you delete code; a
# PR that has to raise it says why here. 7235 was the count with the per-step
# superinstructions, the third tracker-log state and the two small jams
# deleted (PR 23; 7873 before). PR 24 raised it by 120, the most its issue
# allowed, for the reduction loop's lowering (wgloop.go: copy propagation,
# compare folding and dead-definition removal over chains of skeleton
# blocks) and the two-pair leaf (wgfuse.go), after spending what they made
# unreachable (the bytecode walk, the wfused closure type, the per-trip term
# scan, the stride-1 special case): bench/ coop-pair wall_s 0.1230 -> 0.0919 s
# (-25.3 %, ten alternating pairs, 10/10), coop-nway -18.3 %, paper-quick
# -10.6 % (EXPERIMENTS.md, "The reduction loop, compiled").
VM_LOC_MAX = 7355
loc-check:
	@n=$$(find internal/vm -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
	if [ $$n -gt $(VM_LOC_MAX) ]; then \
		echo "loc-check: internal/vm has $$n non-test lines, ceiling is $(VM_LOC_MAX)"; exit 1; fi
