GO ?= go

.PHONY: all build test race bench bench-check soak profile simvet lint

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-check mirrors the CI bench-regression gate: fails on a >25% ns/op or
# allocs/op regression of any gated benchmark (E1–E15, the campus-world
# bench, the sharded-broadcast benches, the sim kernel events/sec and soak
# benches, the per-layer marshal micro-benches) vs the committed
# BENCH_PR10.json.
bench-check:
	sh scripts/bench_check.sh

# soak runs the kernel soak benchmark for an extended stretch: a standing
# 4096-event storm advanced one simulated second per iteration, with the
# flat-memory assertion (EventAllocs must not grow after warmup) armed the
# whole time. SOAKTIME scales the stretch.
SOAKTIME ?= 30s
soak:
	$(GO) test -run '^$$' -bench 'KernelSoak' -benchmem -benchtime $(SOAKTIME) ./internal/sim/

# profile writes CPU+alloc pprof profiles of the experiment suite; pass a
# subset as RUN (e.g. `make profile RUN=e4`).
RUN ?= all
profile:
	sh scripts/profile.sh $(RUN)

# simvet is the repo's own determinism-and-safety linter (cmd/simvet): the
# five determinism analyzers plus the bufcheck ownership suite (bufleak,
# bufuseafter, eventpool) and the //simvet:owner directive validator.
simvet:
	$(GO) run ./cmd/simvet ./...

# lint mirrors the CI lint job exactly; see scripts/lint.sh for the
# staticcheck/govulncheck version pins.
lint:
	sh scripts/lint.sh
