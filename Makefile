# Development entry points; CI runs the same commands.
GO ?= go

.PHONY: build test race bench fmt vet check fuzz cover serve

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over every package, including the concurrency
# determinism tests in internal/experiments and internal/runner.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench . -benchtime 10x .

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

# Short fuzz pass over every fuzz target (CI runs the same budget).
fuzz:
	$(GO) test -fuzz='^FuzzDecodeModel$$' -fuzztime=10s -run '^$$' ./internal/nn
	$(GO) test -fuzz='^FuzzLayerValidate$$' -fuzztime=10s -run '^$$' ./internal/nn
	$(GO) test -fuzz='^FuzzParseTopology$$' -fuzztime=10s -run '^$$' ./internal/cluster
	$(GO) test -fuzz='^FuzzConfigResolve$$' -fuzztime=10s -run '^$$' .
	$(GO) test -fuzz='^FuzzSweepProgram$$' -fuzztime=10s -run '^$$' ./internal/sim

cover:
	$(GO) test -cover -coverprofile=coverage.out ./...

# Run the evaluation service on :8080.
serve:
	$(GO) run ./cmd/hypard -addr :8080

# bench/ is its own module, so ./... never reaches it; the allocation
# gates need a pass without -race, which inflates allocation counts.
check: vet test race
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on: $$unformatted"; exit 1; fi
	$(GO) run ./scripts/apicheck
	cd bench && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -run TestAllocs -count=1 ./internal/service ./internal/sim ./internal/partition ./internal/nn
