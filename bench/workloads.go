package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// workload is one named closed loop: a single client runs units back to
// back, each starting when the previous one ends.
type workload struct {
	name string
	// warm is how many untimed units run first. They fill caches and pools,
	// and are checked like any other unit.
	warm int
	// canon is how many leading timed units the layer counters cover. Those
	// units are the same inputs on every run of a seed, so the counters
	// repeat exactly however long the run measures.
	canon int
	// setup builds what a run needs before its first unit, the part setup_s
	// times: a campus world; nothing for workloads whose units build their
	// own worlds.
	setup func(seed uint64)
	// open builds a session; exp holds the committed outputs for seed 1.
	open func(seed uint64, exp *expected) (session, error)
}

// session runs a workload's units.
type session interface {
	// unit runs unit i, recording spans under parent.
	unit(i int, tr *tracer, parent int) unitResult
}

type unitResult struct {
	// wall is the timed part of the unit; world construction is excluded.
	wall time.Duration
	c    counters
	err  error
}

var workloads = []*workload{
	{name: "paper-suite", warm: 1, canon: 1, setup: func(uint64) {}, open: openSuite},
	{name: "chaos-matrix", warm: 33, canon: 33, setup: func(uint64) {}, open: openChaos},
	{
		name: "campus-join", warm: 1, canon: 1,
		setup: func(seed uint64) { core.NewCampusWorld(joinConfig(seed)) },
		open:  openJoin,
	},
	{
		name: "campus-steady", warm: 0, canon: 1,
		setup: func(seed uint64) { core.NewCampusWorld(steadyConfig(seed)) },
		open:  openSteady,
	},
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func digestHex(d uint64) string { return fmt.Sprintf("%016x", d) }

// --- paper-suite ---

// suiteExperiments is cmd/experiments' list without E15, whose campus ladder
// the campus workloads cover at controlled scale.
var suiteExperiments = []func(experiments.Scale) experiments.Table{
	experiments.E1AssociationCapture,
	experiments.E2DownloadMITM,
	experiments.E2bBoundary,
	experiments.E2cContentInjection,
	experiments.E2dHostileHotspot,
	experiments.E3VPNDefense,
	experiments.E4FMSCrack,
	experiments.E5MACFilterBypass,
	experiments.E6TCPoverTCP,
	experiments.E7Detection,
	experiments.E8Eavesdrop,
	experiments.E9Overhead,
	experiments.E10DeauthStorm,
	experiments.E11APOutage,
	experiments.E12BurstLoss,
	experiments.E13FirstHopRogue,
	experiments.E14RelayChainChaos,
}

// suiteSession runs one full suite pass per unit. Experiments fix their own
// seeds, so every seed is checked against the committed tables.
type suiteSession struct{ want map[string]string }

func openSuite(_ uint64, exp *expected) (session, error) {
	return &suiteSession{want: exp.Suite}, nil
}

func (s *suiteSession) unit(_ int, tr *tracer, parent int) unitResult {
	start := time.Now()
	var err error
	for _, run := range suiteExperiments {
		sp := tr.begin(parent, "experiment")
		t := run(experiments.DefaultScale)
		tr.end(sp)
		tr.rename(sp, t.ID)
		if t.String() != s.want[t.ID] && err == nil {
			err = fmt.Errorf("%s table differs from the committed full-scale table", t.ID)
		}
	}
	return unitResult{wall: time.Since(start), err: err}
}

// --- chaos-matrix ---

var (
	chaosScenarios = []string{"healthy", "attack", "vpn", "mesh", "detect", "chaos-apcrash", "chaos-relay"}
	chaosSchedules = []string{"deauth-storm", "ap-restart", "burst-loss", "mixed"}
)

// chaosPoint is one matrix entry: a named scenario, or the healthy world
// under a builtin fault schedule.
type chaosPoint struct {
	seed     uint64
	scenario string
	faults   string
}

// key names the point as the pinned chaos literals do: seed/schedule for
// the healthy x schedule points, seed/scenario otherwise.
func (p chaosPoint) key() string {
	if p.faults != "" {
		return fmt.Sprintf("%d/%s", p.seed, p.faults)
	}
	return fmt.Sprintf("%d/%s", p.seed, p.scenario)
}

func (p chaosPoint) faulted() bool {
	return p.faults != "" || strings.HasPrefix(p.scenario, "chaos-")
}

// chaosPoints is the 33-point pass for a seed: at seed 1 the seeds are
// {1, 7, 42}, the determinism matrix's own.
func chaosPoints(seed uint64) []chaosPoint {
	var pts []chaosPoint
	for _, s := range []uint64{seed, seed + 6, seed + 41} {
		for _, sc := range chaosScenarios {
			pts = append(pts, chaosPoint{seed: s, scenario: sc})
		}
		for _, f := range chaosSchedules {
			pts = append(pts, chaosPoint{seed: s, scenario: "healthy", faults: f})
		}
	}
	return pts
}

// runPoint runs one point with invariant checks off, as roguesim does by
// default; the digest is the same either way.
func runPoint(p chaosPoint) (*core.ScenarioOutcome, error) {
	return core.RunScenarioOpts(p.scenario, p.seed, core.ScenarioOpts{Faults: p.faults})
}

type chaosSession struct {
	points []chaosPoint
	// want is the digest every run of a point must reproduce: the committed
	// one at seed 1, else the first run's.
	want map[string]string
}

func openChaos(seed uint64, exp *expected) (session, error) {
	s := &chaosSession{points: chaosPoints(seed), want: map[string]string{}}
	if seed == 1 {
		for k, v := range exp.Chaos {
			s.want[k] = v
		}
	}
	return s, nil
}

func (s *chaosSession) unit(i int, _ *tracer, _ int) unitResult {
	p := s.points[i%len(s.points)]
	start := time.Now()
	o, err := runPoint(p)
	r := unitResult{wall: time.Since(start)}
	if err != nil {
		r.err = fmt.Errorf("%s: %w", p.key(), err)
		return r
	}
	r.c = worldCounters(o.World)
	got := digestHex(o.Digest)
	want, ok := s.want[p.key()]
	switch {
	case !ok:
		s.want[p.key()] = got
	case got != want:
		r.err = fmt.Errorf("%s: digest %s, want %s", p.key(), got, want)
	}
	if p.faulted() && !o.Converged && r.err == nil {
		r.err = fmt.Errorf("%s: did not converge", p.key())
	}
	return r
}

// --- campus worlds ---

const (
	joinAPs, joinSTAs     = 32, 512
	steadyAPs, steadySTAs = 64, 1024
	joinSpan              = 6 * sim.Second
	steadyWarmup          = 6 * sim.Second
	steadyWindow          = 2 * sim.Second
)

// campusConfig fixes the layout (topology seed 1) and lets the run seed
// drive only the kernel's random draws, such as backoff and traffic jitter.
// A seed-drawn layout moves the join cost by about a tenth from seed to
// seed, which would swamp the regressions the workload is there to catch.
func campusConfig(seed uint64, aps, stas int) core.CampusConfig {
	return core.CampusConfig{
		Seed:  seed,
		Rogue: true,
		Topology: core.TopologyConfig{
			Kind: core.TopoCampus, Seed: 1, APs: aps, STAs: stas,
		},
	}
}

func joinConfig(seed uint64) core.CampusConfig {
	return campusConfig(seed, joinAPs, joinSTAs)
}

func steadyConfig(seed uint64) core.CampusConfig {
	return campusConfig(seed, steadyAPs, steadySTAs)
}

// checkCampus requires every station associated and, when want is set, the
// kernel digest.
func checkCampus(what string, w *core.CampusWorld, want string) error {
	r := w.Result()
	if r.Associated != r.STAs {
		return fmt.Errorf("%s: %d/%d stations associated", what, r.Associated, r.STAs)
	}
	if got := digestHex(w.Kernel.Digest()); want != "" && got != want {
		return fmt.Errorf("%s: digest %s, want %s", what, got, want)
	}
	return nil
}

// joinSession builds a fresh campus per unit and runs it 0→6 simulated s.
type joinSession struct {
	seed uint64
	// want is the digest every unit must end on: the committed one at seed
	// 1, else the first unit's.
	want string
}

func openJoin(seed uint64, exp *expected) (session, error) {
	s := &joinSession{seed: seed}
	if seed == 1 {
		s.want = exp.CampusJoin.Digest
	}
	return s, nil
}

func (s *joinSession) unit(i int, tr *tracer, parent int) unitResult {
	sp := tr.begin(parent, "construct")
	w := core.NewCampusWorld(joinConfig(s.seed))
	tr.end(sp)
	sp = tr.begin(parent, "run")
	start := time.Now()
	w.Run(joinSpan)
	r := unitResult{wall: time.Since(start)}
	tr.end(sp)
	r.c = campusCounters(w)
	r.err = checkCampus(fmt.Sprintf("unit %d", i), w, s.want)
	if s.want == "" && r.err == nil {
		s.want = digestHex(w.Kernel.Digest())
	}
	return r
}

// steadySession warms one campus through its joins, then times successive
// 2-simulated-second windows of the same world.
type steadySession struct {
	w *core.CampusWorld
	// windows are the committed per-window digests (seed 1 only).
	windows []string
	n       int
}

func openSteady(seed uint64, exp *expected) (session, error) {
	s := &steadySession{w: core.NewCampusWorld(steadyConfig(seed))}
	want := ""
	if seed == 1 {
		want, s.windows = exp.CampusSteady.WarmDigest, exp.CampusSteady.Windows
	}
	s.w.Run(steadyWarmup)
	if err := checkCampus("warm-up", s.w, want); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *steadySession) unit(_ int, tr *tracer, parent int) unitResult {
	before := campusCounters(s.w)
	sp := tr.begin(parent, "run")
	start := time.Now()
	s.w.Run(steadyWindow)
	r := unitResult{wall: time.Since(start)}
	tr.end(sp)
	r.c = campusCounters(s.w).since(before)
	want := ""
	if s.n < len(s.windows) {
		want = s.windows[s.n]
	}
	r.err = checkCampus(fmt.Sprintf("window %d", s.n), s.w, want)
	s.n++
	return r
}
