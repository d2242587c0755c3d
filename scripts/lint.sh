#!/bin/sh
# scripts/lint.sh — the lint gate, identical to the `lint` job in
# .github/workflows/ci.yml. `make lint` runs this.
#
# gofmt, go vet and simvet always run (all ship with the repo or toolchain). staticcheck and
# govulncheck need a network install, so locally they are skipped when not
# on PATH; CI always installs the pinned versions below. Keep the pins here
# and in ci.yml in lockstep.
set -eu

STATICCHECK_VERSION=${STATICCHECK_VERSION:-2024.1.1}
GOVULNCHECK_VERSION=${GOVULNCHECK_VERSION:-v1.1.3}

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l $(git ls-files '*.go' | grep -v '^vendor/'))
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== simvet self-tests (analyzer fixtures) =="
go test -run 'TestSuiteNames|TestBufleak|TestBufuseafter|TestEventpool|TestOwnerValidator|TestAllow|TestEndToEnd' ./internal/analysis/...

echo "== simvet (determinism + ownership contract) =="
if [ "${GITHUB_ACTIONS:-}" = "true" ]; then
	# Inside Actions, emit ::error/::notice annotations on the PR diff.
	go run ./cmd/simvet -json ./... | sh scripts/simvet_annotate.sh
else
	go run ./cmd/simvet ./...
fi

if command -v staticcheck >/dev/null 2>&1; then
	echo "== staticcheck =="
	staticcheck ./...
else
	echo "== staticcheck: not installed, skipping (CI pins ${STATICCHECK_VERSION}) =="
fi

if command -v govulncheck >/dev/null 2>&1; then
	echo "== govulncheck =="
	govulncheck ./...
else
	echo "== govulncheck: not installed, skipping (CI pins ${GOVULNCHECK_VERSION}) =="
fi
