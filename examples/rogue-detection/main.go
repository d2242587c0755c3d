// rogue-detection runs the defender's side of Section 2.3: a channel-hopping
// monitor-mode sensor analysing 802.11 sequence-control numbers and beacon
// fingerprints while a cloned-BSSID rogue operates, and a deauth-flood
// attack for good measure.
//
//	go run ./examples/rogue-detection
package main

import (
	"fmt"
	"log"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/dot11"
	"repro/internal/phy"
	"repro/internal/sim"
)

func main() {
	w := core.NewWorld(core.Config{
		Seed:  3,
		Rogue: true, RogueCloneBSSID: true, RoguePureRelay: true,
		APPos:     phy.Position{X: 0, Y: 0},
		VictimPos: phy.Position{X: 40, Y: 0},
		RoguePos:  phy.Position{X: 42, Y: 0},
	})

	// The sensor: one rfmon radio hopping all 11 channels.
	mon := dot11.NewMonitor(w.Medium.AddRadio(phy.RadioConfig{
		Name: "sensor", Pos: phy.Position{X: 20}, Channel: 1,
	}))
	det := detect.New(w.Kernel)
	det.Attach(mon)
	detect.NewHopper(w.Kernel, mon, 200*sim.Millisecond)

	seen := map[detect.AlertKind]bool{}
	det.OnAlert = func(a detect.Alert) {
		if !seen[a.Kind] {
			seen[a.Kind] = true
			fmt.Printf("t=%-8v first %v alert: %s\n",
				a.At.Duration().Round(1e6), a.Kind, a.Detail)
		}
	}

	w.VictimConnect()
	w.Run(30 * sim.Second)

	// Phase 2: the attacker also deauth-floods the victim; the sensor's
	// rate monitor should flag it.
	deauther := attack.NewDeauther(w.Kernel, w.Medium, phy.Position{X: 42}, 1)
	deauther.Flood(core.VictimMAC, core.CorpBSSID, 50*sim.Millisecond)
	w.Run(10 * sim.Second)
	deauther.Stop()
	w.Run(5 * sim.Second)

	fmt.Printf("\nsensor analysed %d frames; %d total alerts\n", det.FramesSeen, len(det.Alerts))
	for _, kind := range []detect.AlertKind{
		detect.AlertBeaconMismatch, detect.AlertSeqAnomaly, detect.AlertDeauthFlood,
	} {
		fmt.Printf("  %-18v detected: %v\n", kind, len(det.AlertsOf(kind)) > 0)
	}
	if len(det.AlertsOf(detect.AlertBeaconMismatch)) == 0 && len(det.AlertsOf(detect.AlertSeqAnomaly)) == 0 {
		log.Fatal("the cloned-BSSID rogue went undetected")
	}
	if len(det.AlertsOf(detect.AlertDeauthFlood)) == 0 {
		log.Fatal("the deauth flood went undetected")
	}
}
