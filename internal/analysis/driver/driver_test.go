package driver_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	simvet "repro/internal/analysis"
	"repro/internal/analysis/driver"
)

// TestEndToEnd drives the loader against a throwaway module with one
// violation per analyzer, proving the go-list/typecheck/run pipeline works
// outside this repository and that diagnostics come back position-sorted.
func TestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool; skipped in -short")
	}
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module tmpmod\n\ngo 1.22\n")
	for _, sub := range []string{"sim", "pkt", "link", "app"} {
		if err := os.MkdirAll(filepath.Join(dir, "internal", sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	write(filepath.Join("internal", "sim", "sim.go"), `package sim

import (
	"math/rand"
	"sort"
	"time"
)

type Kernel struct{}

type Timer struct{}

func (t Timer) Cancel() {}

func (k *Kernel) After(d int, fn func()) Timer { return Timer{} }

func Violations(k *Kernel, m map[string]float64) []string {
	_ = time.Now()   // walltime
	_ = rand.Intn(6) // globalrand
	var keys []string
	for name := range m {
		keys = append(keys, name) // maporder: never sorted
	}
	vals := []float64{1, 2}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] }) // tiebreak
	for i := 0; i < len(keys); i++ {
		k.After(1, func() { _ = keys[i] }) // eventcapture
	}
	return keys
}
`)
	write(filepath.Join("internal", "pkt", "pkt.go"), `package pkt

type Buf struct{ n int }

func (b *Buf) Release()    {}
func (b *Buf) Retain() *Buf { return b }
func (b *Buf) Len() int    { return b.n }

type Pool struct{}

func (p *Pool) Get() *Buf { return &Buf{} }
`)
	// The ownership contract lives in a different package than its caller, so
	// this exercises the driver's cross-package facts pre-pass, not just the
	// analyzers' own-package scan.
	write(filepath.Join("internal", "link", "link.go"), `package link

import "tmpmod/internal/pkt"

// Consume takes ownership.
//
//simvet:owner transfer end-to-end fixture sink
func Consume(pb *pkt.Buf) {
	pb.Release()
}
`)
	write(filepath.Join("internal", "app", "app.go"), `package app

import (
	"tmpmod/internal/link"
	"tmpmod/internal/pkt"
	"tmpmod/internal/sim"
)

func SelfCancel(k *sim.Kernel) {
	var t sim.Timer
	t = k.After(5, func() {
		t.Cancel() // eventpool: the callback cancels its own fired Timer
	})
}

func Leaky(p *pkt.Pool, drop bool) {
	pb := p.Get()
	if drop {
		return // bufleak: still owned here
	}
	link.Consume(pb)
}

func Stale(p *pkt.Pool) int {
	pb := p.Get()
	pb.Release()
	return pb.Len() // bufuseafter
}
`)
	res, err := driver.Run(dir, []string{"./..."}, simvet.All())
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	byAnalyzer := map[string]int{}
	for _, d := range res.Diagnostics {
		byAnalyzer[d.Analyzer]++
	}
	for _, name := range []string{"walltime", "globalrand", "maporder", "tiebreak", "eventcapture", "bufleak", "bufuseafter", "eventpool"} {
		if byAnalyzer[name] == 0 {
			t.Errorf("analyzer %s reported nothing; diagnostics:\n%s", name, dump(res))
		}
	}
	// The driver promises the full deterministic total order, not just
	// file/line grouping: re-sorting must be the identity.
	sorted := append([]driver.Diagnostic(nil), res.Diagnostics...)
	driver.SortDiagnostics(sorted)
	for i := range sorted {
		if sorted[i] != res.Diagnostics[i] {
			t.Errorf("diagnostics not in total order at index %d: got %v, want %v", i, res.Diagnostics[i], sorted[i])
		}
	}
}

func dump(res *driver.Result) string {
	var sb strings.Builder
	for _, d := range res.Diagnostics {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
