// wep-crack shows the attack's enabling step for networks whose key the
// attacker was not given: passive FMS key recovery ("an outside attacker
// who has retrieved the WEP key via Airsnort", paper §4). A monitor-mode
// radio sniffs a busy WEP cell; weak-IV frames feed the cracker until the
// key falls out.
//
// Sniffing the full multi-million-frame capture through the simulated air
// would work but takes a while, so this example sniffs a sample over the
// air (proving the capture path) and bulk-feeds the remaining weak-IV
// traffic directly — the cryptanalysis is identical.
//
//	go run ./examples/wep-crack
package main

import (
	"fmt"
	"log"

	"repro/internal/attack"
	"repro/internal/dot11"
	"repro/internal/ethernet"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/wep"
)

func main() {
	key := wep.Key40FromString("SECRE")
	k := sim.NewKernel(1)
	medium := phy.NewMedium(k, phy.Config{})

	// The target cell: an AP and a chatty client, WEP with sequential IVs
	// (what early-2000s firmware shipped).
	bssid := ethernet.MustParseMAC("02:aa:bb:cc:dd:01")
	ap := dot11.NewAP(k, medium.AddRadio(phy.RadioConfig{Name: "ap", Channel: 1}),
		dot11.APConfig{SSID: "CORP", BSSID: bssid, Channel: 1, WEPKey: key})
	ap.HostNIC().SetReceiver(func(f ethernet.Frame) {})
	sta := dot11.NewSTA(k, medium.AddRadio(phy.RadioConfig{Name: "sta", Pos: phy.Position{X: 10}, Channel: 1}),
		dot11.STAConfig{MAC: ethernet.MustParseMAC("02:00:00:00:03:01"), SSID: "CORP", WEPKey: key})
	sta.Connect()

	// The attacker: a monitor-mode radio feeding the FMS cracker.
	sniffer := attack.NewWEPSniffer(k, medium, phy.Position{X: 20}, 1, wep.KeySize40)

	// Generate some real over-the-air WEP traffic.
	k.RunUntil(5 * sim.Second)
	for i := 0; i < 200; i++ {
		sta.NIC().SendBuf(bssid, ethernet.TypeIPv4, k.BufPool().GetCopy([]byte("client chatter over WEP")))
	}
	k.RunUntil(10 * sim.Second)
	fmt.Printf("over-the-air: sniffer captured %d frames (%d with weak IVs)\n",
		sniffer.Cracker.Frames, sniffer.Cracker.WeakFrames)

	// Bulk phase: the long tail of a multi-hour capture, fed directly.
	iv := &wep.SequentialIV{}
	payload := dot11.EncapsulateLLC(ethernet.TypeIPv4, []byte("bulk traffic"))
	for sniffer.Cracker.WeakFrames < 1200 {
		sniffer.Cracker.AddSealed(wep.Seal(key, iv.NextIV(), 0, payload))
	}
	fmt.Printf("after the long capture: %d frames total, %d weak\n",
		sniffer.Cracker.Frames, sniffer.Cracker.WeakFrames)

	got, err := sniffer.TryRecoverKey()
	if err != nil {
		log.Fatalf("recovery failed: %v", err)
	}
	fmt.Printf("KEY RECOVERED: %x (%q)\n", []byte(got), got)
	if string(got) != string(key) {
		log.Fatal("recovered key does not match!")
	}
	fmt.Println("the attacker can now run the full rogue-AP MITM against this 'protected' network")
}
