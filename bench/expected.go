package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
)

// expected is testdata/expected-seed1.json: the outputs every unit is
// checked against. The suite tables hold for any seed; the digests are the
// seed-1 ones.
type expected struct {
	// Suite maps a table ID to its full-scale rendering.
	Suite map[string]string `json:"suite"`
	// Chaos maps a chaos-matrix point key to its digest.
	Chaos        map[string]string `json:"chaos"`
	CampusJoin   campusExpect      `json:"campus_join"`
	CampusSteady steadyExpect      `json:"campus_steady"`
}

type campusExpect struct {
	Digest     string `json:"digest"`
	Associated int    `json:"associated"`
}

type steadyExpect struct {
	// WarmDigest and Associated are read after the 6 s warm-up.
	WarmDigest string `json:"warm_digest"`
	Associated int    `json:"associated"`
	// Windows are the digests after each timed window, in order.
	Windows []string `json:"windows"`
}

// recordWindows is how many steady-state windows the expected file pins;
// a run that measures more checks the rest for association only.
const recordWindows = 128

func loadExpected(path string) (*expected, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e expected
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &e, nil
}

// recordExpected recomputes every seed-1 output from scratch.
func recordExpected() *expected {
	e := &expected{Suite: map[string]string{}, Chaos: map[string]string{}}
	for _, run := range suiteExperiments {
		t := run(experiments.DefaultScale)
		e.Suite[t.ID] = t.String()
	}
	for _, p := range chaosPoints(1) {
		o, err := runPoint(p)
		if err != nil {
			panic(err)
		}
		e.Chaos[p.key()] = digestHex(o.Digest)
	}

	join := core.NewCampusWorld(joinConfig(1))
	join.Run(joinSpan)
	e.CampusJoin = campusExpect{digestHex(join.Kernel.Digest()), join.Result().Associated}

	steady := core.NewCampusWorld(steadyConfig(1))
	steady.Run(steadyWarmup)
	e.CampusSteady = steadyExpect{
		WarmDigest: digestHex(steady.Kernel.Digest()),
		Associated: steady.Result().Associated,
	}
	for i := 0; i < recordWindows; i++ {
		steady.Run(steadyWindow)
		e.CampusSteady.Windows = append(e.CampusSteady.Windows, digestHex(steady.Kernel.Digest()))
	}
	return e
}

func writeExpected(path string, e *expected) error {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
