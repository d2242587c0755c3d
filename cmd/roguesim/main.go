// Command roguesim runs one named scenario of the reproduction and prints a
// narrative report — the quickest way to watch the paper's attack (or its
// defeat) happen.
//
//	go run ./cmd/roguesim -scenario attack
//	go run ./cmd/roguesim -scenario vpn
//	go run ./cmd/roguesim -scenario mesh
//	go run ./cmd/roguesim -scenario healthy -seed 7
//	go run ./cmd/roguesim -scenario detect
//	go run ./cmd/roguesim -scenario vpn -faults ap-restart
//	go run ./cmd/roguesim -scenario chaos-relay
//	go run ./cmd/roguesim -scenario mesh -faults relay-drop
//	go run ./cmd/roguesim -scenario healthy -faults "deauth@5s+10s(interval=100ms)"
//	go run ./cmd/roguesim -scenario campus-rogue -digest
//	go run ./cmd/roguesim -faults list
//
// The scenarios themselves live in internal/core (RunScenarioOpts), where the
// determinism tests replay them; this command only formats the outcome.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
)

func main() {
	scenario := flag.String("scenario", "attack", strings.Join(core.ScenarioNames(), " | "))
	seed := flag.Uint64("seed", 1, "simulation seed")
	check := flag.Bool("check", false, "enable kernel invariant checking (panics on violation)")
	digest := flag.Bool("digest", false, "print the trace digest after the run")
	schedule := flag.String("faults", "",
		"fault schedule: a builtin name, a raw schedule string, or \"list\" to enumerate builtins")
	flag.Parse()

	if *schedule == "list" {
		builtins := faults.Builtins()
		for _, name := range faults.BuiltinNames() {
			fmt.Printf("%-14s %s\n", name, builtins[name])
		}
		return
	}
	// A schedule that does not parse, or names a target the scenario's
	// world lacks, comes back as an error before anything runs.
	o, err := core.RunScenarioOpts(*scenario, *seed, core.ScenarioOpts{
		Checks: *check, Faults: *schedule,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if o.World == nil {
		// Campus scenarios: generated topology, no single-victim world.
		printCampus(o, *digest)
		return
	}
	cfg := o.World.Cfg // defaults filled in
	fmt.Printf("scenario: SSID %q, AP ch %d", core.CorpSSID, core.CorpChannel)
	if cfg.Rogue {
		fmt.Printf(", rogue ch %d (cloned BSSID %v)", core.RogueChannel, cfg.RogueCloneBSSID)
	}
	fmt.Println()
	for _, m := range o.Milestones {
		fmt.Printf("t=%-6v %s\n", m.At.Duration().Round(1e6), m.Msg)
	}

	exitCode := 0
	if *scenario == "detect" {
		fmt.Printf("sensor analysed %d frames, raised %d alert(s)\n", o.FramesSeen, len(o.Alerts))
		if len(o.Alerts) == 0 {
			fmt.Println("no rogue detected (unexpected for a cloned BSSID)")
			exitCode = 1
		}
	} else {
		printDownload(o)
	}
	if o.World.Faults != nil {
		fmt.Printf("chaos: %d fault(s) applied, %d reverted, converged=%v\n",
			o.World.Faults.Applied, o.World.Faults.Reverted, o.Converged)
		if !o.Converged {
			exitCode = 1
		}
	}
	if *digest {
		fmt.Printf("trace digest: %016x\n", o.Digest)
	}
	os.Exit(exitCode)
}

func printCampus(o *core.ScenarioOutcome, digest bool) {
	r := o.CampusResult
	fmt.Printf("scenario: SSID %q, %d APs / %d stations (%s topology, seed %d)\n",
		core.CampusSSID, r.APs, r.STAs, o.Campus.Topo.Kind, o.Campus.Topo.Seed)
	for _, m := range o.Milestones {
		fmt.Printf("t=%-6v %s\n", m.At.Duration().Round(1e6), m.Msg)
	}
	exitCode := 0
	if o.Campus.Faults != nil {
		fmt.Printf("chaos: %d fault(s) applied, %d reverted, converged=%v\n",
			o.Campus.Faults.Applied, o.Campus.Faults.Reverted, o.Converged)
	}
	if !o.Converged {
		fmt.Printf("campus did not converge: %d/%d stations associated\n", r.Associated, r.STAs)
		exitCode = 1
	}
	if digest {
		fmt.Printf("trace digest: %016x\n", o.Digest)
	}
	os.Exit(exitCode)
}

func printDownload(o *core.ScenarioOutcome) {
	res := o.Download
	fmt.Println()
	fmt.Println("victim browses to the download page and runs md5sum:")
	if res.Err != nil {
		fmt.Println("  download failed:", res.Err)
		return
	}
	fmt.Printf("  link on page:    %s\n", res.Href)
	fmt.Printf("  page's MD5SUM:   %s\n", res.PageMD5)
	fmt.Printf("  md5 check:       passed=%v\n", res.MD5OK)
	fmt.Printf("  file contents:   %q\n", trim(string(res.Body), 72))
	fmt.Println()
	switch {
	case res.Compromised():
		fmt.Println("VERDICT: COMPROMISED — the victim verified and will run a trojan.")
	case res.Clean():
		fmt.Println("VERDICT: clean — the genuine file arrived and verified.")
	default:
		fmt.Printf("VERDICT: anomalous (tampered=%v md5ok=%v)\n", res.Tampered, res.MD5OK)
	}
	w := o.World
	if w.Netsed != nil {
		fmt.Printf("(netsed: %d connection(s), %d substitution(s))\n",
			w.Netsed.Connections, w.Netsed.ReplacementsIn)
	}
}

func trim(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
