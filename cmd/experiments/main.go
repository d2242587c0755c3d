// Command experiments regenerates the paper-reproduction tables (DESIGN.md
// E1–E15). Run everything:
//
//	go run ./cmd/experiments
//
// Or a subset, faster:
//
//	go run ./cmd/experiments -run e2,e3 -trials 10
//	go run ./cmd/experiments -quick
//
// Profile a run (scripts/profile.sh wraps this):
//
//	go run ./cmd/experiments -run e4 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	ids := make([]string, len(experiments.Registry))
	for i, e := range experiments.Registry {
		ids[i] = e.ID
	}
	run := flag.String("run", "all", "comma-separated experiment ids ("+strings.Join(ids, ",")+") or 'all'")
	trials := flag.Int("trials", 5, "trials per sweep point")
	quick := flag.Bool("quick", false, "reduce the heaviest experiments")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile (after a final GC) to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle accounting so the profile shows live + total allocation
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	scale := experiments.Scale{Trials: *trials, Quick: *quick}
	want := map[string]bool{}
	for _, id := range strings.Split(strings.ToLower(*run), ",") {
		want[strings.TrimSpace(id)] = true
	}
	all := want["all"]

	ran := 0
	for _, e := range experiments.Registry {
		if !all && !want[e.ID] {
			continue
		}
		start := time.Now()
		tbl := e.Run(scale)
		fmt.Println(tbl.String())
		fmt.Printf("(%s generated in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiments matched -run=%q\n", *run)
		os.Exit(2)
	}
}
