package sim

// The trace digest is a streaming FNV-1a hash over the kernel's ordered
// event/observation stream. Two runs of the same scenario with the same seed
// must produce identical digests; any divergence means hidden nondeterminism
// (map-iteration ordering, wall-clock leakage, cross-world state). The digest
// is cheap enough to leave always-on: every fired event mixes its timestamp
// and scheduling sequence number, and protocol layers mix the bytes of every
// delivered frame via MixDigest.
//
// The folds are pure functions of (h, input): each observation loads the
// kernel's hash once, folds every byte in a register and stores it once, so
// a byte waits only on the previous byte's XOR and multiply. Folding through
// the struct field made it also wait on a store-to-load forward.
//
// internal/check builds its determinism assertions on top of this.

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// traceDigest is the streaming hash state.
type traceDigest struct {
	h uint64
	// mixed counts observations folded in, so an empty digest and a
	// colliding digest can never be confused in test output.
	mixed uint64
}

func newTraceDigest() traceDigest { return traceDigest{h: fnvOffset64} }

// fnvUint64 folds v's eight bytes, least significant first.
func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = (h ^ uint64(byte(v>>i))) * fnvPrime64
	}
	return h
}

// fnvBytes folds every byte of p.
func fnvBytes(h uint64, p []byte) uint64 {
	for _, b := range p {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return h
}

// fnvString folds s length-prefixed, so "ab"+"c" != "a"+"bc".
func fnvString(h uint64, s string) uint64 {
	h = fnvUint64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// Digest reports the current trace digest: a hash of every event fired and
// every observation mixed so far. Equal seeds must yield equal digests at
// equal points in virtual time; see check.AssertDeterministic.
func (k *Kernel) Digest() uint64 { return k.digest.h }

// DigestObservations reports how many observations (events + MixDigest
// calls) the digest covers.
func (k *Kernel) DigestObservations() uint64 { return k.digest.mixed }

// MixDigest folds a labelled observation — typically a delivered packet or
// frame — into the kernel's trace digest. kind names the observation source
// ("phy/rx", "eth/rx", ...); data is the observed bytes. The current virtual
// time is mixed automatically.
func (k *Kernel) MixDigest(kind string, data []byte) {
	h := fnvUint64(k.digest.h, uint64(k.now))
	h = fnvString(h, kind)
	h = fnvUint64(h, uint64(len(data)))
	k.digest.h = fnvBytes(h, data)
	k.digest.mixed++
}

// mixEvent folds one fired event into the digest: its virtual time and its
// scheduling sequence number (which captures causal ordering exactly).
func (k *Kernel) mixEvent(e *event) {
	k.digest.h = fnvUint64(fnvUint64(k.digest.h, uint64(e.when)), e.seq)
	k.digest.mixed++
}
