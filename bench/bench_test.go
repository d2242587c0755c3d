package main

import (
	"path/filepath"
	"testing"
)

// preSwapChaosDigests repeats the 12 pinned chaos literals of
// internal/core's golden digest test (seeds {1, 7, 42} x the four builtin
// schedules on the healthy world). The expected file must carry them
// unchanged.
var preSwapChaosDigests = map[string]uint64{
	"1/deauth-storm":  0xa99b5a2d0ec7aa8c,
	"1/ap-restart":    0x17ab58bf4c81e146,
	"1/burst-loss":    0x5e6b9bd7fdca3dac,
	"1/mixed":         0x836de89c7aa2e5a3,
	"7/deauth-storm":  0x38a00efb4964ca78,
	"7/ap-restart":    0xf632fc46fc8efa5e,
	"7/burst-loss":    0x4b5af3fbe3564329,
	"7/mixed":         0xe50bf65f4f3b1dc2,
	"42/deauth-storm": 0x53e5f01d3d6b72e7,
	"42/ap-restart":   0x8a0b3980dc83192f,
	"42/burst-loss":   0xdda7e22d44be7b89,
	"42/mixed":        0x821e9544b024050f,
}

func testExpected(t *testing.T) *expected {
	t.Helper()
	exp, err := loadExpected(filepath.Join("testdata", "expected-seed1.json"))
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

func TestExpectedCarriesPinnedChaosDigests(t *testing.T) {
	exp := testExpected(t)
	if len(exp.Chaos) != len(chaosPoints(1)) {
		t.Errorf("expected file has %d chaos digests, the matrix has %d points", len(exp.Chaos), len(chaosPoints(1)))
	}
	for key, want := range preSwapChaosDigests {
		if got := exp.Chaos[key]; got != digestHex(want) {
			t.Errorf("%s: expected file has %q, pinned literal is %s", key, got, digestHex(want))
		}
	}
}

// quick returns the named workload without warm units, so a test pays
// only for the units it measures.
func quick(t *testing.T, name string) *workload {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	q := *w
	q.warm = 0
	return &q
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(sp.Workloads), len(workloads))
	}
	exp := testExpected(t)
	for i, s := range sp.Workloads {
		if s.Name != workloads[i].name {
			t.Fatalf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, s.Name, workloads[i].name)
		}
		t.Run(s.Name, func(t *testing.T) {
			m, _, err := measure(quick(t, s.Name), 1, exp, 0, true, 1)
			if err != nil {
				t.Fatal(err)
			}
			if m.failed() != 0 || len(m.Untraced.WallMS) != 1 || len(m.Traced.WallMS) != 1 {
				t.Fatalf("want one passing unit per phase, got %d/%d failed: %v", m.failed(), m.attempted(), m.errors())
			}
			checkMetrics(t, "end-to-end", endToEnd(m, []float64{0.002}), sp.EndToEnd, true)
			checkMetrics(t, "per-layer", perLayer(m), sp.PerLayer, false)

			var sum int64
			for _, l := range layers {
				sum += m.LayerNS[l]
			}
			if sum != m.SampledNS {
				t.Errorf("layers charge %d ns of %d ns sampled", sum, m.SampledNS)
			}
			// The profiler samples every 10 ms, so only a long unit is sure
			// to be sampled.
			if m.SampledNS == 0 && m.Traced.WallMS[0] > 100 {
				t.Errorf("no CPU samples over a %.0f ms unit", m.Traced.WallMS[0])
			}
		})
	}
}

// checkMetrics requires exactly the specified metrics, each with its unit,
// and, where the spec demands it, a non-zero value.
func checkMetrics(t *testing.T, kind string, got map[string]metric, want []specMetric, nonZero bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: emitted %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %s not emitted", kind, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s metric %s in %q, BENCHMARK.json says %q", kind, w.Name, m.Unit, w.Unit)
		case nonZero && m.Value == 0:
			t.Errorf("%s metric %s is 0", kind, w.Name)
		}
	}
}

func TestCorruptedDigestFailsTheUnit(t *testing.T) {
	exp := testExpected(t)
	exp.Chaos["1/healthy"] = "0000000000000000"
	m, _, err := measure(quick(t, "chaos-matrix"), 1, exp, 0, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.attempted() != 2 || m.failed() != 1 {
		t.Fatalf("attempted %d, failed %d; want the corrupted point alone to fail: %v", m.attempted(), m.failed(), m.errors())
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"math.archLog", "math.log", "repro/internal/phy.pathLossDB", "repro/internal/phy.(*Medium).complete"}, "phy"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "repro/internal/wep.(*RC4).XORKeyStream", "repro/internal/phy.(*Medium).complete"}, "wep"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{[]string{"runtime.nanotime", "time.Now", "main.runPhase", "main.measure"}, "other"},
		{[]string{"repro/internal/core.Sweep[...].func1", "runtime.goexit"}, "core"},
		{[]string{"repro/internal/auth8021x.(*Supplicant).handle", "repro/internal/sim.(*Kernel).step"}, "other"},
		{[]string{"syscall.Syscall", "os.(*File).Write"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%q) = %s, want %s", c.frames, got, c.want)
		}
	}
}

func TestQuantilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if [3]float64{q1, med, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, med, q3, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(parent))
		for i, x := range parent {
			out[i] = x + d
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"faster beyond spread", parent, shift(-10), "improved"},
		{"slower beyond bound", parent, shift(+15), "worse"},
		{"same", parent, parent, "unchanged"},
		{"parent spread wider than bound", noisy, shift(-3), "unresolved"},
	} {
		if got, _ := verdict(c.a, c.b, true, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestExactDiffs(t *testing.T) {
	run := func(seed uint64, events float64) result {
		return result{
			Workload: "campus-join", Seed: seed, Trace: 1, Exact: []string{"sim.events"},
			Metrics: map[string]metric{"sim.events": {Value: events, Unit: "count"}},
		}
	}
	if d := exactDiffs([]result{run(1, 10), run(1, 10), run(2, 11)}); len(d) != 0 {
		t.Errorf("equal counts reported as differing: %v", d)
	}
	if d := exactDiffs([]result{run(1, 10), run(1, 12)}); len(d) != 1 {
		t.Errorf("differing counts: got %v, want one difference", d)
	}
}
