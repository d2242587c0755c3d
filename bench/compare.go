package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

// spec is BENCHMARK.json, less the command.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func loadResults(paths []string) ([]result, error) {
	var all []result
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		all = append(all, f.Results...)
	}
	return all, nil
}

// compare reads parent results (before "--") and change results (after)
// and prints, per end-to-end metric and workload, each side's median and
// quartiles, the share of pairs the change won and a verdict. Files are
// paired in the order given, so list alternating runs in run order. It
// returns 1 when a metric got worse beyond its bound or an exactly
// repeating count differs, else 0.
func compare(specPath string, args []string) int {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
		}
	}
	if sep <= 0 || sep == len(args)-1 {
		fmt.Fprintln(os.Stderr, "usage: -compare A.json... -- B.json...")
		return 2
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := loadResults(args[:sep])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadResults(args[sep+1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return report(sp, a, b)
}

func report(sp *spec, a, b []result) int {
	status := 0
	fmt.Printf("%-14s %-12s %26s %26s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "won", "verdict")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			av, bv := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v, won := verdict(av, bv, m.Better == "lower", m.Bound)
			if v == "worse" {
				status = 1
			}
			fmt.Printf("%-14s %-12s %26s %26s %5.0f%%  %s\n", w.Name, m.Name, summary(av), summary(bv), 100*won, v)
		}
	}
	for _, d := range exactDiffs(append(append([]result(nil), a...), b...)) {
		fmt.Println("COUNT DIFFERS:", d)
		status = 1
	}
	return status
}

// values collects one end-to-end metric over untraced runs of a workload,
// in file order.
func values(rs []result, workload, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == 0 {
			out = append(out, m.Value)
		}
	}
	return out
}

func summary(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", med, q1, q3)
}

// verdict applies the paired rule: the change (b) improved when it won at
// least nine tenths of the pairs and the medians differ by more than the
// parent's interquartile range; it is worse when its median lost more than
// bound of the parent's; it is unresolved when the parent's own spread
// exceeds the bound and not every change run beat every parent run; else
// unchanged. won is the share of pairs b won, ties counting for neither.
func verdict(a, b []float64, lowerBetter bool, bound float64) (v string, won float64) {
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	pairs := min(len(a), len(b))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	won = ratio(float64(wins), float64(pairs))
	q1, medA, q3 := quartiles(a)
	medB := median(b)
	loss := (medB - medA) / math.Abs(medA)
	if !lowerBetter {
		loss = -loss
	}
	allBetter := slices.Max(b) < slices.Min(a)
	if !lowerBetter {
		allBetter = slices.Min(b) > slices.Max(a)
	}
	switch {
	case loss > bound:
		return "worse", won
	case wins*10 >= 9*pairs && better(medB, medA) && math.Abs(medB-medA) > q3-q1:
		return "improved", won
	case (q3-q1)/math.Abs(medA) > bound && !allBetter:
		return "unresolved", won
	}
	return "unchanged", won
}

// exactDiffs lists every exactly repeating metric whose value differs
// between traced runs of the same workload and seed.
func exactDiffs(rs []result) []string {
	type key struct {
		workload string
		seed     uint64
		metric   string
	}
	first := map[key]float64{}
	var diffs []string
	for _, r := range rs {
		if r.Trace != 1 {
			continue
		}
		for _, name := range r.Exact {
			k := key{r.Workload, r.Seed, name}
			v := r.Metrics[name].Value
			if w, ok := first[k]; !ok {
				first[k] = v
			} else if w != v {
				diffs = append(diffs, fmt.Sprintf("%s seed %d %s: %v vs %v", r.Workload, r.Seed, name, w, v))
			}
		}
	}
	return diffs
}
