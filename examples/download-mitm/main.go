// download-mitm reproduces the paper's Section 4 proof of concept end to
// end (Figures 1 and 2):
//
//  1. The CORP network runs WEP with the shared key "SECRET".
//
//  2. The attacker's laptop associates to CORP with one card and runs a
//     rogue AP on a second card — same SSID, same cloned BSSID, same WEP
//     key, different channel — exactly Figure 1.
//
//  3. parprouted bridges the cards; Netfilter DNATs the victim's port-80
//     traffic to a local netsed; netsed rewrites the download link and the
//     page's MD5 sum — exactly Figure 2.
//
//  4. The victim associates to the rogue (stronger signal), downloads,
//     checks the MD5... and it PASSES on the trojan.
//
//     go run ./examples/download-mitm
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/wep"
)

func main() {
	w := core.NewWorld(core.Config{
		Seed:   7,
		WEPKey: wep.Key40FromString("SECRET"),

		Rogue:           true,
		RogueCloneBSSID: true, // Figure 1: both APs present AA:BB:CC:DD

		// Geometry: the victim sits 40 m from the real AP; the rogue parks
		// 2 m away. Best-RSSI client firmware does the rest.
		APPos:     phy.Position{X: 0, Y: 0},
		VictimPos: phy.Position{X: 40, Y: 0},
		RoguePos:  phy.Position{X: 42, Y: 0},

		FileContents:   []byte("the real installer the user wanted\n"),
		TrojanContents: []byte("the same installer, plus a backdoor\n"),
	})

	w.VictimConnect()
	w.Run(10 * sim.Second)
	fmt.Println("victim on rogue AP:", w.VictimOnRogue())
	fmt.Println("rogue uplink (attacker associated to CORP):", w.Rogue.UplinkUp)
	if !w.VictimOnRogue() {
		log.Fatal("rogue failed to capture the victim")
	}

	var res core.DownloadResult
	w.VictimDownload(func(r core.DownloadResult) { res = r })
	w.Run(60 * sim.Second)
	if res.Err != nil {
		log.Fatalf("download failed: %v", res.Err)
	}

	fmt.Println()
	fmt.Println("what the victim saw:")
	fmt.Printf("  page link:  %s\n", res.Href)
	fmt.Printf("  page MD5:   %s\n", res.PageMD5)
	fmt.Printf("  md5sum:     %v  <-- the victim's own integrity check\n", res.MD5OK)
	fmt.Printf("  downloaded: %q\n", res.Body)
	fmt.Println()
	if res.Compromised() {
		fmt.Println("COMPROMISED: the victim verified and will run the trojan.")
		fmt.Printf("netsed applied %d substitution(s) across %d proxied connection(s).\n",
			w.Netsed.ReplacementsIn, w.Netsed.Connections)
	} else {
		log.Fatalf("attack failed: %+v", res)
	}
}
