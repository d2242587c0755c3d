package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// phase is what one measuring loop observed.
type phase struct {
	// Attempted and Failed count every unit the phase ran, warm ones too.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// WallMS is each timed unit's wall time.
	WallMS []float64 `json:"wall_ms"`
	// ElapsedS is the loop's wall time over the timed units.
	ElapsedS float64 `json:"elapsed_s"`
	// Events is the kernel events the timed units fired.
	Events uint64 `json:"events"`
	// Canon is the layer counters over the workload's first canon timed
	// units.
	Canon counters `json:"canon"`
	// PeakRSSMB is each timed unit's peak resident set.
	PeakRSSMB []float64 `json:"peak_rss_mb"`
	// Go runtime deltas over the timed units.
	Mallocs    uint64   `json:"mallocs"`
	AllocBytes uint64   `json:"alloc_bytes"`
	GCs        uint64   `json:"gcs"`
	Errors     []string `json:"errors,omitempty"`
}

// maxErrors caps the failure messages a phase keeps.
const maxErrors = 5

func (p *phase) count(r unitResult) {
	p.Attempted++
	if r.err == nil {
		return
	}
	p.Failed++
	if len(p.Errors) < maxErrors {
		p.Errors = append(p.Errors, r.err.Error())
	}
}

// measurement is what a measuring process reports: the untraced phase,
// and for a traced run the profiled phase that repeats it and the sampled
// CPU time charged to each layer.
type measurement struct {
	Untraced  phase            `json:"untraced"`
	Traced    *phase           `json:"traced,omitempty"`
	LayerNS   map[string]int64 `json:"layer_ns,omitempty"`
	SampledNS int64            `json:"sampled_ns,omitempty"`
}

func (m measurement) attempted() int {
	n := m.Untraced.Attempted
	if m.Traced != nil {
		n += m.Traced.Attempted
	}
	return n
}

func (m measurement) failed() int {
	n := m.Untraced.Failed
	if m.Traced != nil {
		n += m.Traced.Failed
	}
	return n
}

func (m measurement) errors() []string {
	errs := m.Untraced.Errors
	if m.Traced != nil {
		errs = append(errs, m.Traced.Errors...)
	}
	return errs
}

// procs is the GOMAXPROCS every measuring process runs at.
func procs() int { return min(runtime.NumCPU(), 2) }

// measure opens the workload, runs its warm units, then times units for
// the given budget (at least the canonical ones; at most maxUnits when that
// is set, as tests do). A traced run spends half the budget untraced, then
// repeats the same number of units under the CPU profiler and span tracer.
func measure(w *workload, seed uint64, exp *expected, seconds float64, traced bool, maxUnits int) (measurement, *tracer, error) {
	var m measurement
	s, err := w.open(seed, exp)
	if err != nil {
		m.Untraced.count(unitResult{err: err})
		return m, nil, nil
	}
	budget := time.Duration(seconds * float64(time.Second))
	if traced {
		budget /= 2
	}
	m.Untraced = runPhase(s, w.warm, w.canon, func(i int, elapsed time.Duration) bool {
		return (i < w.canon || elapsed < budget) && (maxUnits == 0 || i < maxUnits)
	}, nil)
	if !traced {
		return m, nil, nil
	}

	n := len(m.Untraced.WallMS)
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return m, nil, fmt.Errorf("cpu profile: %w", err)
	}
	root := tr.begin(0, "workload")
	p := runPhase(s, 0, w.canon, func(i int, _ time.Duration) bool { return i < n }, tr)
	tr.end(root)
	pprof.StopCPUProfile()
	m.Traced = &p
	m.LayerNS, m.SampledNS, err = cpuByLayer(prof.Bytes())
	return m, tr, err
}

// runPhase runs warm untimed units, then timed units while more allows.
// The tracer, when set, gets a span per unit under span 1.
func runPhase(s session, warm, canon int, more func(i int, elapsed time.Duration) bool, tr *tracer) phase {
	var p phase
	for i := 0; i < warm; i++ {
		p.count(runUnit(s, i, nil, 0))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; more(i, time.Since(start)); i++ {
		resetPeakRSS()
		sp := tr.begin(1, "unit")
		r := runUnit(s, i, tr, sp)
		tr.end(sp)
		p.count(r)
		p.WallMS = append(p.WallMS, float64(r.wall)/float64(time.Millisecond))
		p.PeakRSSMB = append(p.PeakRSSMB, peakRSSMB())
		p.Events += r.c[cEvents]
		if i < canon {
			p.Canon.add(r.c)
		}
	}
	p.ElapsedS = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	p.Mallocs = m1.Mallocs - m0.Mallocs
	p.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.GCs = uint64(m1.NumGC - m0.NumGC)
	return p
}

// resetPeakRSS restarts the kernel's peak resident set tracking for this
// process (Linux 4.0 and later), so each unit's peak is its own. Where the
// reset is refused, peaks carry over from earlier units.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB reads the peak resident set since the last reset.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// runUnit runs one unit, turning a panic into a failed unit.
func runUnit(s session, i int, tr *tracer, parent int) (r unitResult) {
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			r = unitResult{wall: time.Since(start), err: fmt.Errorf("unit %d panicked: %v", i, p)}
		}
	}()
	return s.unit(i, tr, parent)
}

// --- metrics ---

// metric is one reported number. Q1, Q3 and N describe the samples behind
// a median.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

type metricDef struct{ name, unit string }

// endToEndMetrics come from the untraced run; BENCHMARK.json gives their
// bounds.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"unit_ms", "ms"},
	{"units_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

func sampled(xs []float64, unit string) metric {
	q1, med, q3 := quartiles(xs)
	return metric{Value: med, Unit: unit, Q1: q1, Q3: q3, N: len(xs)}
}

// endToEnd derives the end-to-end metrics from an untraced measurement and
// the set-up times of the run's probes.
func endToEnd(m measurement, setupS []float64) map[string]metric {
	u := m.Untraced
	return map[string]metric{
		"setup_s":     sampled(setupS, "s"),
		"unit_ms":     sampled(u.WallMS, "ms"),
		"units_per_s": {Value: ratio(float64(len(u.WallMS)), u.ElapsedS), Unit: "1/s"},
		"peak_rss_mb": sampled(u.PeakRSSMB, "MB"),
	}
}

// tail is the highest of p75, p90 and p99 of the unit times that has at
// least ten units beyond it; workloads with fewer than 40 units have none.
type tail struct {
	Percentile int     `json:"percentile"`
	MS         float64 `json:"ms"`
	Beyond     int     `json:"beyond"`
}

func unitTail(wallMS []float64) *tail {
	for _, p := range []int{99, 90, 75} {
		if beyond := len(wallMS) * (100 - p) / 100; beyond >= 10 {
			return &tail{p, quantiles(wallMS, 100)[p-1], beyond}
		}
	}
	return nil
}

// counterMetrics are read from the public counters over the canonical
// units. They repeat exactly for a seed; a workload that exposes no world
// (paper-suite) reports them as 0.
var counterMetrics = []struct {
	metricDef
	value func(c counters) float64
}{
	{metricDef{"sim.events", "count"}, func(c counters) float64 { return float64(c[cEvents]) }},
	{metricDef{"sim.event_reuse_ratio", "ratio"}, func(c counters) float64 {
		return ratio(float64(c[cEventReuses]), float64(c[cEventAllocs]+c[cEventReuses]))
	}},
	{metricDef{"sim.pending_peak", "count"}, func(c counters) float64 { return float64(c[cPendingPeak]) }},
	{metricDef{"phy.transmissions", "count"}, func(c counters) float64 { return float64(c[cTransmissions]) }},
	{metricDef{"phy.deliveries", "count"}, func(c counters) float64 { return float64(c[cDeliveries]) }},
	{metricDef{"phy.deliveries_per_tx", "ratio"}, func(c counters) float64 {
		return ratio(float64(c[cDeliveries]), float64(c[cTransmissions]))
	}},
	{metricDef{"phy.collisions", "count"}, func(c counters) float64 { return float64(c[cCollisions]) }},
	{metricDef{"phy.delivery_ratio", "ratio"}, func(c counters) float64 {
		lost := c[cSNRDrops] + c[cCollisions] + c[cBurstDrops]
		return ratio(float64(c[cDeliveries]), float64(c[cDeliveries]+lost))
	}},
	{metricDef{"pkt.reuse_ratio", "ratio"}, func(c counters) float64 {
		return ratio(float64(c[cPoolReuses]), float64(c[cPoolGets]))
	}},
	{metricDef{"dot11.mac_retries", "count"}, func(c counters) float64 { return float64(c[cMACRetries]) }},
	{metricDef{"dot11.tx_failed", "count"}, func(c counters) float64 { return float64(c[cTxFailed]) }},
	{metricDef{"dot11.scan_cycles", "count"}, func(c counters) float64 { return float64(c[cScanCycles]) }},
	{metricDef{"dot11.beacons", "count"}, func(c counters) float64 { return float64(c[cBeacons]) }},
	{metricDef{"tcp.retransmits", "count"}, func(c counters) float64 { return float64(c[cTCPRetransmits]) }},
	{metricDef{"vpn.rekeys", "count"}, func(c counters) float64 { return float64(c[cVPNRekeys]) }},
}

// perLayerMetrics lists every metric a traced run reports, in print order.
func perLayerMetrics() []metricDef {
	var defs []metricDef
	for _, c := range counterMetrics {
		defs = append(defs, c.metricDef)
	}
	defs = append(defs,
		metricDef{"sim.events_per_wall_s", "1/s"},
		metricDef{"go.mallocs_per_unit", "count"},
		metricDef{"go.alloc_mb_per_unit", "MB"},
		metricDef{"go.gc_cycles_per_unit", "count"},
	)
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_share", "frac"}, metricDef{l + ".self_ms_per_unit", "ms"})
	}
	return append(defs, metricDef{"trace.overhead_frac", "frac"})
}

// perLayer derives the per-layer metrics from a traced measurement: the
// counters and runtime deltas from its untraced phase, CPU attribution and
// tracing overhead from its profiled phase.
func perLayer(m measurement) map[string]metric {
	u := m.Untraced
	units := float64(len(u.WallMS))
	var wallMS float64
	for _, x := range u.WallMS {
		wallMS += x
	}
	out := map[string]metric{
		"sim.events_per_wall_s": {Value: ratio(float64(u.Events), wallMS/1000), Unit: "1/s"},
		"go.mallocs_per_unit":   {Value: ratio(float64(u.Mallocs), units), Unit: "count"},
		"go.alloc_mb_per_unit":  {Value: ratio(float64(u.AllocBytes)/(1<<20), units), Unit: "MB"},
		"go.gc_cycles_per_unit": {Value: ratio(float64(u.GCs), units), Unit: "count"},
	}
	for _, c := range counterMetrics {
		out[c.name] = metric{Value: c.value(u.Canon), Unit: c.unit}
	}
	var tracedMS []float64
	if m.Traced != nil {
		tracedMS = m.Traced.WallMS
	}
	for _, l := range layers {
		ns := float64(m.LayerNS[l])
		out[l+".self_share"] = metric{Value: ratio(ns, float64(m.SampledNS)), Unit: "frac"}
		out[l+".self_ms_per_unit"] = metric{Value: ratio(ns/1e6, float64(len(tracedMS))), Unit: "ms"}
	}
	out["trace.overhead_frac"] = metric{Value: ratio(mean(tracedMS), mean(u.WallMS)) - 1, Unit: "frac"}
	return out
}

// exactMetrics names the per-layer metrics that must repeat exactly for a
// given workload and seed.
func exactMetrics() []string {
	var names []string
	for _, c := range counterMetrics {
		names = append(names, c.name)
	}
	return names
}
