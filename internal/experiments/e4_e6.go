package experiments

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/wep"
)

// E2bBoundary (§4.2): "netsed will not match strings that cross packet
// boundaries". We place the pattern at controlled offsets relative to the
// TCP segment boundary and compare original (chunk) netsed against the
// boundary-safe streaming rewriter.
func E2bBoundary(s Scale) Table {
	t := Table{
		ID:    "E2b",
		Title: "netsed segment-boundary limitation and the streaming fix (§4.2)",
		Columns: []string{"pattern position vs MSS boundary",
			"chunk-mode replaced", "streaming replaced"},
		Notes: []string{
			"pattern is a 32-char MD5 digest; MSS = 1460 bytes",
			"offsets that fit entirely in one segment always match; straddling offsets only match in streaming mode",
		},
	}
	const mss = 1460
	pattern := "0123456789abcdef0123456789abcdef" // stand-in digest
	replacement := "ffffffffffffffffffffffffffffffff"
	// Offsets of the pattern start relative to the first boundary.
	cases := []struct {
		name  string
		start int
	}{
		{"well inside segment 1", mss - 400},
		{"ends exactly at boundary", mss - len(pattern)},
		{"straddles boundary by 1", mss - len(pattern) + 1},
		{"straddles boundary by 16", mss - 16},
		{"starts exactly at boundary", mss},
		{"well inside segment 2", mss + 400},
	}
	// Each (offset, mode) relay is an independent single-kernel world, so the
	// twelve runs fan out through one sweep and pair back up per row.
	type point struct {
		start     int
		streaming bool
	}
	var points []point
	for _, c := range cases {
		points = append(points, point{c.start, false}, point{c.start, true})
	}
	results := core.Sweep(points, func(p point) bool {
		body := bytes.Repeat([]byte("x"), p.start)
		body = append(body, pattern...)
		body = append(body, bytes.Repeat([]byte("y"), 600)...)
		got := proxyOnce(body, "s/"+pattern+"/"+replacement, p.streaming)
		return bytes.Contains(got, []byte(replacement))
	})
	for i, c := range cases {
		t.AddRow(c.name, yes(results[2*i]), yes(results[2*i+1]))
	}
	return t
}

func yes(b bool) string {
	if b {
		return "yes"
	}
	return "MISSED"
}

// E4FMSCrack (§2.1 / §4): Airsnort-style WEP key recovery. We count the
// weak-IV frames the cracker needs and report the implied total capture for
// a random-IV network (weak fraction = keylen·256 / 2^24).
func E4FMSCrack(s Scale) Table {
	t := Table{
		ID:      "E4",
		Title:   "FMS/Airsnort WEP key recovery cost (§4: 'retrieved the WEP key via Airsnort')",
		Columns: []string{"key", "IV policy", "weak frames used", "implied total frames", "recovered"},
		Notes: []string{
			"implied total = weak frames ÷ weak-IV fraction of random-IV traffic",
			"'weak-avoiding' is the later-firmware mitigation: FMS starves (ablation)",
		},
	}
	// Each crack is an independent CPU-bound job (no shared world), so the
	// two-or-three runs fan out through one sweep; each job returns its
	// finished row and the rows land in point order.
	type kcase struct {
		name     string
		key      wep.Key
		ablation bool
	}
	jobs := []kcase{{"40-bit", wep.Key40FromString("SECRE"), false}}
	if !s.Quick {
		jobs = append(jobs, kcase{"104-bit", wep.Key([]byte("thirteenbytes")), false})
	}
	jobs = append(jobs, kcase{"40-bit", wep.Key40FromString("SECRE"), true})
	rows := core.Sweep(jobs, func(kc kcase) []string {
		if kc.ablation {
			// Ablation: weak-avoiding IVs. The oracle derives K0 only for
			// weak IVs — Airsnort's capture filter drops strong frames
			// before any RC4 work, and the cracker never reads their K0 —
			// so a weak-avoiding network costs the attacker nothing but the
			// IV check per frame.
			c := wep.NewCracker(wep.KeySize40)
			src := &wep.WeakAvoidingIV{KeyLen: wep.KeySize40}
			for i := 0; i < 200000; i++ {
				iv := src.NextIV()
				var k0 byte
				if iv.IsWeak(wep.KeySize40) {
					k0 = wep.FirstKeystreamByte(kc.key, iv)
				}
				c.AddSample(wep.Sample{IV: iv, K0: k0})
			}
			_, err := c.RecoverKey()
			return []string{kc.name, "weak-avoiding", fmt.Sprint(c.WeakFrames),
				"∞ (no weak IVs)", yes(err == nil)}
		}
		weakUsed, ok := fmsCost(kc.key)
		frac := float64(len(kc.key)*256) / float64(1<<24)
		implied := float64(weakUsed) / frac
		return []string{kc.name, "sequential/random", fmt.Sprint(weakUsed),
			fmt.Sprintf("%.2g", implied), yes(ok)}
	})
	t.Rows = append(t.Rows, rows...)
	return t
}

// fmsCost feeds weak IVs in random order, 64 at a time, until the key
// recovers, returning the number of weak frames consumed.
//
// The attempt after burst i depends only on the samples fed by then, so
// core.First tries the bursts on every core: each worker replays the same
// capture stream into its own cracker up to the burst it is handed, and
// the first burst whose attempt recovers the key is the one a serial
// poll-after-every-burst loop stops at.
func fmsCost(key wep.Key) (int, bool) {
	ref := wep.Seal(key, wep.IV{200, 1, 1}, 0, []byte("verification frame"))
	bursts := len(key) * 256 * 4 / 64
	first := core.First(bursts, func() func(int) bool {
		c := wep.NewCracker(len(key))
		c.Verify = func(k wep.Key) bool {
			_, err := wep.Open(k, ref)
			return err == nil
		}
		rng := sim.NewRNG(4)
		fed := 0
		return func(burst int) bool {
			// Random order over the weak-IV space, possibly with repeats —
			// like sniffing a random-IV network, but skipping the strong
			// frames.
			for ; fed <= burst; fed++ {
				for i := 0; i < 64; i++ {
					b := rng.Intn(len(key))
					iv := wep.IV{byte(b + 3), 255, byte(rng.Intn(256))}
					c.AddSample(wep.Sample{IV: iv, K0: wep.FirstKeystreamByte(key, iv)})
				}
			}
			got, err := c.RecoverKey()
			return err == nil && bytes.Equal(got, key)
		}
	})
	return min(first+1, bursts) * 64, first < bursts
}

// E6TCPoverTCP (§5.3): the PPP-over-SSH drawback — a TCP-carried tunnel
// under wireless loss versus a UDP carrier. We push the victim toward the
// edge of the cell and download a file through each tunnel.
func E6TCPoverTCP(s Scale) Table {
	t := Table{
		ID:    "E6",
		Title: "VPN carrier under wireless loss: TCP-in-TCP vs UDP (§5.3)",
		Columns: []string{"victim distance (m)", "carrier", "download time (s)",
			"goodput (kB/s)", "outer TCP retransmits"},
		Notes: []string{
			"the paper's PPP-over-SSH is the TCP carrier; 'any UDP traffic is subject to unnecessary retransmission by TCP'",
			"at the cell edge the stacked retransmission loops of TCP-in-TCP collapse goodput",
		},
	}
	const fileSize = 150_000
	distances := []float64{20, 86, 90}
	if s.Quick {
		distances = []float64{20, 90}
	}
	type point struct {
		dist float64
		udp  bool
		seed uint64
	}
	var points []point
	for _, d := range distances {
		for _, udp := range []bool{false, true} {
			for _, seed := range core.Seeds(uint64(d)*7, s.trials()) {
				points = append(points, point{d, udp, seed})
			}
		}
	}
	type out struct {
		stage   string // "no-assoc", "no-tunnel", "stalled", "ok"
		seconds float64
		retx    uint64
	}
	results := core.Sweep(points, func(p point) out {
		carrier := vpnCarrier(p.udp)
		cfg := core.Config{
			Seed: p.seed, VPNServer: true, VPNCarrier: carrier,
			VictimPos:        phyPos(p.dist),
			ShadowingSigmaDB: 3,
			FileContents:     bytes.Repeat([]byte("payload-"), fileSize/8),
		}
		w := core.NewWorld(cfg)
		w.VictimConnect()
		w.Run(15 * sim.Second)
		if !w.VictimAssociated() {
			return out{stage: "no-assoc"}
		}
		up := false
		w.EnableVictimVPN(nil, func(err error) { up = err == nil })
		w.Run(30 * sim.Second)
		if !up {
			return out{stage: "no-tunnel"}
		}
		start := w.Kernel.Now()
		var res core.DownloadResult
		var doneAt sim.Time
		done := false
		w.VictimDownload(func(r core.DownloadResult) { res = r; done = true; doneAt = w.Kernel.Now() })
		w.Run(4 * sim.Minute)
		if !done || res.Err != nil || !res.Clean() {
			return out{stage: "stalled", retx: w.Victim.TCP.Retransmits}
		}
		return out{stage: "ok", seconds: (doneAt - start).Seconds(), retx: w.Victim.TCP.Retransmits}
	})
	i := 0
	for _, d := range distances {
		for _, udp := range []bool{false, true} {
			var times []float64
			var retx uint64
			stalled := 0
			for n := 0; n < s.trials(); n++ {
				r := results[i]
				i++
				switch r.stage {
				case "ok":
					times = append(times, r.seconds)
					retx += r.retx
				case "stalled":
					stalled++
					retx += r.retx
				}
			}
			carrier := "TCP (PPP/SSH)"
			if udp {
				carrier = "UDP"
			}
			if len(times) == 0 {
				t.AddRow(d, carrier, fmt.Sprintf("stalled (%d/%d)", stalled, s.trials()), "-", retx)
				continue
			}
			mean := core.Mean(times)
			label := fmt.Sprintf("%.2f", mean)
			if stalled > 0 {
				label += fmt.Sprintf(" (+%d stalled)", stalled)
			}
			goodput := float64(fileSize) / mean / 1000
			t.AddRow(d, carrier, label, fmt.Sprintf("%.1f", goodput), retx)
		}
	}
	return t
}
