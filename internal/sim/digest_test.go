package sim

import "testing"

// refDigest is the trace digest as it was first written: FNV-1a folded one
// byte at a time through the state struct. The register folds in digest.go
// must reproduce it bit for bit, or every pinned digest literal moves.
type refDigest struct{ h, mixed uint64 }

func (d *refDigest) mixByte(b byte) {
	d.h = (d.h ^ uint64(b)) * fnvPrime64
}

func (d *refDigest) mixUint64(v uint64) {
	for i := 0; i < 64; i += 8 {
		d.mixByte(byte(v >> i))
	}
}

func (d *refDigest) mixBytes(p []byte) {
	for _, b := range p {
		d.mixByte(b)
	}
}

func (d *refDigest) mixString(s string) {
	d.mixUint64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		d.mixByte(s[i])
	}
}

// TestDigestMatchesByteReference interleaves random fired events and
// observations (empty to 64-byte kinds, 0–2048-byte data) and requires the
// kernel's digest and observation count to equal the byte-at-a-time
// reference after every step.
func TestDigestMatchesByteReference(t *testing.T) {
	rng := NewRNG(42)
	long := make([]byte, 64)
	rng.Bytes(long)
	kinds := []string{"", "phy/rx", "eth/rx", string(long)}
	k := NewKernel(1)
	ref := refDigest{h: fnvOffset64}
	for step := 0; step < 3000; step++ {
		if rng.Intn(2) == 0 {
			e := &event{when: Time(rng.Int63()), seq: rng.Uint64()}
			k.mixEvent(e)
			ref.mixed++
			ref.mixUint64(uint64(e.when))
			ref.mixUint64(e.seq)
		} else {
			k.now = Time(rng.Int63())
			kind := kinds[rng.Intn(len(kinds))]
			data := make([]byte, rng.Intn(2049))
			rng.Bytes(data)
			k.MixDigest(kind, data)
			ref.mixed++
			ref.mixUint64(uint64(k.now))
			ref.mixString(kind)
			ref.mixUint64(uint64(len(data)))
			ref.mixBytes(data)
		}
		if k.Digest() != ref.h || k.DigestObservations() != ref.mixed {
			t.Fatalf("step %d: digest %#x (%d observations), reference %#x (%d)",
				step, k.Digest(), k.DigestObservations(), ref.h, ref.mixed)
		}
	}
}
