// Command bench is the repository benchmark. It runs four closed-loop
// workloads against the simulator's public API, checks every output
// against the committed expected results, and prints each metric by name
// with its unit. BENCHMARK.json at the repository root defines the
// workloads and metrics; README.md here explains them. From the
// repository root:
//
//	bash bench/run.sh -seed 1                         # every workload, untraced then traced
//	bash bench/run.sh --workload chaos-matrix --seed 3 --seconds 20 --trace 0
//	bash bench/run.sh -compare parent*.json -- change*.json
//	bash bench/run.sh -record                         # rewrite testdata/expected-seed1.json
//
// Each workload measures in a child process of its own, so memory and GC
// state are per workload. The last line of a single-workload run is one
// JSON object: correct, attempted, failed and the metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupProbes is how many times a run sets up to time setup_s.
const setupProbes = 21

func main() {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs all four, each untraced then traced")
		seed    = flag.Uint64("seed", 1, "seed the workload inputs are made from")
		seconds = flag.Int("seconds", 20, "seconds each run measures")
		trace   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		out     = flag.String("out", "", "result file (default bench/out/<workload>-seed<N>-trace<T>.json)")
		record  = flag.Bool("record", false, "regenerate testdata/expected-seed1.json and exit")
		cmp     = flag.Bool("compare", false, "compare result files: -compare A.json... -- B.json...")
		child   = flag.Bool("child", false, "measure in this process and report JSON to the parent (internal)")
		probe   = flag.Bool("probe", false, "set up once and exit (internal)")
	)
	flag.Parse()
	root := repoRoot()
	benchDir := filepath.Join(root, "bench")
	expectedPath := filepath.Join(benchDir, "testdata", "expected-seed1.json")

	if *child || *probe {
		runtime.GOMAXPROCS(procs())
		w, err := lookupWorkload(*name)
		if err != nil {
			fatal(err)
		}
		if *probe {
			w.setup(*seed)
			return
		}
		if err := childMain(w, *seed, *seconds, *trace == 1, expectedPath, filepath.Join(benchDir, "out")); err != nil {
			fatal(err)
		}
		return
	}

	switch {
	case *record:
		runtime.GOMAXPROCS(procs())
		if err := writeExpected(expectedPath, recordExpected()); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", expectedPath)
		return
	case *cmp:
		os.Exit(compare(filepath.Join(root, "BENCHMARK.json"), flag.Args()))
	}

	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, not %d", *trace))
	}
	var run []*workload
	traces := []int{0, 1}
	if *name != "" {
		w, err := lookupWorkload(*name)
		if err != nil {
			fatal(err)
		}
		run, traces = []*workload{w}, []int{*trace}
	} else {
		run = workloads
	}

	h := hostInfo(root)
	var results []result
	for _, w := range run {
		for _, t := range traces {
			r, err := runWorkload(w, *seed, *seconds, t)
			if err != nil {
				fatal(err)
			}
			r.Host = h
			printResult(r)
			results = append(results, r)
		}
	}

	path := *out
	if path == "" {
		base := fmt.Sprintf("all-seed%d.json", *seed)
		if *name != "" {
			base = fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *trace)
		}
		path = filepath.Join(benchDir, "out", base)
	}
	if err := writeJSON(path, resultFile{Results: results}); err != nil {
		fatal(err)
	}
	fmt.Println("result:", path)

	failed := 0
	for _, r := range results {
		failed += r.Failed
	}
	if *name != "" {
		printLine(results[0])
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// repoRoot is where the repository root is relative to the working
// directory: run.sh runs from the root, go run and go test from bench/.
func repoRoot() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return "."
	}
	return ".."
}

// result is one run of one workload, as printed and as written to the
// result file that -compare reads.
type result struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Seconds   int    `json:"seconds"`
	Trace     int    `json:"trace"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Units is the number of timed units the untraced measurement ran.
	Units   int               `json:"units"`
	Metrics map[string]metric `json:"metrics"`
	// Tail is the unit-time tail percentile of an untraced run.
	Tail *tail `json:"tail,omitempty"`
	// Exact names the metrics that must repeat exactly for this workload
	// and seed.
	Exact  []string `json:"exact,omitempty"`
	Errors []string `json:"errors,omitempty"`
	Host   host     `json:"host"`
}

type resultFile struct {
	Results []result `json:"results"`
}

// runWorkload times the set-up probes (untraced runs only), then measures
// in a child process and turns its report into metrics.
func runWorkload(w *workload, seed uint64, seconds, trace int) (result, error) {
	args := []string{"-workload", w.name, "-seed", strconv.FormatUint(seed, 10)}
	var setup []float64
	if trace == 0 {
		for i := 0; i < setupProbes; i++ {
			start := time.Now()
			if err := self(append(args, "-probe")...).Run(); err != nil {
				return result{}, fmt.Errorf("%s set-up probe: %w", w.name, err)
			}
			setup = append(setup, time.Since(start).Seconds())
		}
	}

	cmd := self(append(args, "-child", "-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s: measuring process: %w", w.name, err)
	}
	var m measurement
	if err := json.Unmarshal(stdout.Bytes(), &m); err != nil {
		return result{}, fmt.Errorf("%s: measuring process report: %w", w.name, err)
	}

	r := result{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace,
		Attempted: m.attempted(), Failed: m.failed(), Units: len(m.Untraced.WallMS),
		Errors: m.errors(),
	}
	if trace == 0 {
		r.Metrics = endToEnd(m, setup)
		r.Tail = unitTail(m.Untraced.WallMS)
	} else {
		r.Metrics = perLayer(m)
		r.Exact = exactMetrics()
	}
	return r, nil
}

// self is a command re-running this binary, sharing its stderr.
func self(args ...string) *exec.Cmd {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	return cmd
}

// childMain measures one workload in this process and writes the report
// as JSON to stdout; a traced run also writes its spans.
func childMain(w *workload, seed uint64, seconds int, traced bool, expectedPath, outDir string) error {
	exp, err := loadExpected(expectedPath)
	if err != nil {
		return err
	}
	m, tr, err := measure(w, seed, exp, float64(seconds), traced, 0)
	if err != nil {
		return err
	}
	if tr != nil {
		spans := struct {
			Workload string               `json:"workload"`
			Seed     uint64               `json:"seed"`
			Totals   map[string]spanTotal `json:"totals"`
			Spans    []span               `json:"spans"`
		}{w.name, seed, tr.totals(), tr.spans}
		if err := writeJSON(filepath.Join(outDir, "trace-"+w.name+".json"), spans); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(m)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printResult(r result) {
	fmt.Printf("== %s  seed %d  trace %d: %d units attempted, %d failed ==\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed)
	defs := endToEndMetrics
	if r.Trace == 1 {
		defs = perLayerMetrics()
	}
	for _, d := range defs {
		m := r.Metrics[d.name]
		fmt.Printf("  %-28s %14.6g %-5s", d.name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Printf("  median of %d, q1 %.6g, q3 %.6g", m.N, m.Q1, m.Q3)
		}
		fmt.Println()
	}
	if t := r.Tail; t != nil {
		fmt.Printf("  unit time p%d %.6g ms, %d units beyond it\n", t.Percentile, t.MS, t.Beyond)
	}
	for _, e := range r.Errors {
		fmt.Println("  FAIL:", e)
	}
}

// printLine prints the one-line JSON summary that ends a single-workload
// run.
func printLine(r result) {
	metrics := map[string]metric{}
	for k, m := range r.Metrics {
		metrics[k] = metric{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// host describes the machine a result was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func hostInfo(root string) host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: procs(),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     gitCommit(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from .git without running git;
// a checkout without history reports "unknown".
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(gitDir, "packed-refs")) // none: no match below
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
