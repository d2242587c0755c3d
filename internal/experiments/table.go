// Package experiments regenerates every table/figure-equivalent of the
// paper's evaluation (see DESIGN.md's experiment index, E1–E15). Each
// function builds the relevant worlds via internal/core, sweeps parameters
// across CPU cores, and returns a formatted Table. cmd/experiments prints
// them; the repository-root benchmarks time them.
package experiments

import (
	"fmt"
	"strings"
)

// Table is one experiment's output.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table in aligned plain text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Scale trades experiment fidelity for runtime.
type Scale struct {
	// Trials per sweep point (default 5).
	Trials int
	// Quick reduces the heaviest experiments (E4/E6) for benchmark runs.
	Quick bool
}

// DefaultScale is used by cmd/experiments.
var DefaultScale = Scale{Trials: 5}

// Experiment is one reproduced table: the id cmd/experiments selects it by
// and the function that renders it.
type Experiment struct {
	ID  string
	Run func(Scale) Table
}

// Registry lists every experiment, E1 to E15, each sub-table after its
// parent. cmd/experiments runs them in this order and selects them by ID;
// the golden tests iterate it.
var Registry = []Experiment{
	{"e1", E1AssociationCapture},
	{"e2", E2DownloadMITM},
	{"e2b", E2bBoundary},
	{"e2c", E2cContentInjection},
	{"e2d", E2dHostileHotspot},
	{"e3", E3VPNDefense},
	{"e4", E4FMSCrack},
	{"e5", E5MACFilterBypass},
	{"e6", E6TCPoverTCP},
	{"e7", E7Detection},
	{"e8", E8Eavesdrop},
	{"e9", E9Overhead},
	{"e10", E10DeauthStorm},
	{"e11", E11APOutage},
	{"e12", E12BurstLoss},
	{"e13", E13FirstHopRogue},
	{"e14", E14RelayChainChaos},
	{"e15", E15CampusScale},
}

func (s Scale) trials() int {
	if s.Trials <= 0 {
		return 5
	}
	return s.Trials
}

// pct renders a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.0f%%", 100*f) }
