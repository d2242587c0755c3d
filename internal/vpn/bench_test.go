package vpn

import (
	"fmt"
	"testing"
)

// recordSizes are a keepalive-sized and an MTU-sized inner packet.
var recordSizes = []int{60, 1400}

var benchRecord []byte

func benchKeys() sessionKeys {
	return deriveKeys([]byte("bench psk"), make([]byte, nonceLen), make([]byte, nonceLen))
}

// BenchmarkVPNSeal stands for the sealing half of vpn's layer share: 8.3%
// of chaos-matrix CPU and 6.4% of paper-suite's in one traced seed-1 run of
// bench/run.sh on 2 vCPUs (10.9% and 8.6% while each record keyed a fresh
// HMAC). Each iteration seals one record: CTR encryption plus the truncated
// HMAC-SHA256, keyed once per direction.
func BenchmarkVPNSeal(b *testing.B) {
	for _, n := range recordSizes {
		b.Run(fmt.Sprintf("bytes=%d", n), func(b *testing.B) {
			keys := benchKeys()
			s := newSealer(keys.encC2S, keys.macC2S[:])
			plaintext := make([]byte, n)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchRecord = s.seal(plaintext)
			}
		})
	}
}

// BenchmarkVPNOpen stands for the opening half of the same share. One record
// is sealed up front and opened every iteration; the anti-replay window is
// cleared between opens, so each verifies its MAC and decrypts in full.
func BenchmarkVPNOpen(b *testing.B) {
	for _, n := range recordSizes {
		b.Run(fmt.Sprintf("bytes=%d", n), func(b *testing.B) {
			keys := benchKeys()
			record := newSealer(keys.encC2S, keys.macC2S[:]).seal(make([]byte, n))
			o := newOpener(keys.encC2S, keys.macC2S[:])
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.maxSeq, o.window = 0, 0
				pt, err := o.open(record)
				if err != nil {
					b.Fatal(err)
				}
				benchRecord = pt
			}
		})
	}
}
