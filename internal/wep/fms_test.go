package wep

import (
	"bytes"
	"sort"
	"testing"

	"repro/internal/sim"
)

// --- Reference implementations ---
//
// The incremental vote engine (standing per-byte tables, sparse-overlay KSA,
// partial top-k ranking) must be observationally identical to the obvious
// from-scratch computation. These references ARE that obvious computation:
// fmsVoteRef materialises the full 256-entry S-box per sample, and
// voteByteRef recounts every sample and ranks all 256 candidates with a
// stable sort.

// fmsVoteRef is the straightforward full-array FMS vote.
func fmsVoteRef(iv IV, prefix Key, k0 byte) (byte, bool) {
	b := len(prefix)
	known := make([]byte, 0, IVLen+b)
	known = append(known, iv[:]...)
	known = append(known, prefix...)
	steps := b + 3

	var s [256]int
	for i := range s {
		s[i] = i
	}
	j := 0
	for i := 0; i < steps; i++ {
		j = (j + s[i] + int(known[i])) & 0xff
		s[i], s[j] = s[j], s[i]
	}
	if s[1] >= steps {
		return 0, false
	}
	if (s[1]+s[s[1]])&0xff != steps {
		return 0, false
	}
	var inv [256]int
	for i, v := range s {
		inv[v] = i
	}
	vote := (inv[int(k0)] - j - s[steps]) & 0xff
	return byte(vote), true
}

// voteByteRef recounts byte b's votes from scratch and returns all 256
// candidates ranked by descending votes, ties by ascending byte value, plus
// the resolved total.
func voteByteRef(samples []Sample, prefix Key) ([]byte, int) {
	var votes [256]int
	total := 0
	for _, s := range samples {
		if v, ok := fmsVoteRef(s.IV, prefix, s.K0); ok {
			votes[v]++
			total++
		}
	}
	ranked := make([]byte, 256)
	for i := range ranked {
		ranked[i] = byte(i)
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		return votes[ranked[i]] > votes[ranked[j]]
	})
	return ranked, total
}

// recoverRef is the from-scratch recovery RecoverKey must reproduce: the
// plurality key, then a width-3 depth-first search over each byte's top
// candidates under a budget of 256·keyLen nodes, with every node ranked by
// voteByteRef. samples[b] holds key byte b's weak samples.
func recoverRef(samples [][]Sample, verify func(Key) bool) (Key, error) {
	keyLen := len(samples)
	var key Key
	for b := 0; b < keyLen; b++ {
		ranked, total := voteByteRef(samples[b], key)
		if total < minVotes {
			return nil, ErrNotEnough
		}
		key = append(key, ranked[0])
	}
	if verify(key) {
		return key, nil
	}
	budget := 256 * keyLen
	var search func(prefix Key) Key
	search = func(prefix Key) Key {
		if budget <= 0 {
			return nil
		}
		budget--
		b := len(prefix)
		if b == keyLen {
			if verify(prefix) {
				return prefix
			}
			return nil
		}
		ranked, total := voteByteRef(samples[b], prefix)
		if total < minVotes {
			return nil
		}
		for _, cand := range ranked[:3] {
			if k := search(append(prefix[:b:b], cand)); k != nil {
				return k
			}
		}
		return nil
	}
	if k := search(Key{}); k != nil {
		return k, nil
	}
	return nil, ErrNotEnough
}

// TestFMSVoteMatchesReference drives the sparse-overlay fmsVote against the
// full-array reference across every prefix length and a dense spread of IV
// third bytes, keystream bytes, and prefix contents.
func TestFMSVoteMatchesReference(t *testing.T) {
	rng := sim.NewRNG(99)
	for b := 0; b < KeySize104; b++ {
		prefix := make(Key, b)
		for trial := 0; trial < 200; trial++ {
			for i := range prefix {
				prefix[i] = byte(rng.Intn(256))
			}
			iv := IV{byte(b + 3), 255, byte(rng.Intn(256))}
			k0 := byte(rng.Intn(256))
			gotV, gotOK := fmsVote(iv, prefix, k0)
			wantV, wantOK := fmsVoteRef(iv, prefix, k0)
			if gotV != wantV || gotOK != wantOK {
				t.Fatalf("fmsVote(b=%d iv=%v prefix=%x k0=%#x) = (%#x,%v), reference (%#x,%v)",
					b, iv, prefix, k0, gotV, gotOK, wantV, wantOK)
			}
		}
	}
	// Non-weak IVs must agree too (AddSample filters them, but fmsVote's
	// contract is not limited to the weak form).
	for trial := 0; trial < 500; trial++ {
		iv := IV{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
		k0 := byte(rng.Intn(256))
		gotV, gotOK := fmsVote(iv, nil, k0)
		wantV, wantOK := fmsVoteRef(iv, nil, k0)
		if gotV != wantV || gotOK != wantOK {
			t.Fatalf("fmsVote(iv=%v k0=%#x) = (%#x,%v), reference (%#x,%v)",
				iv, k0, gotV, gotOK, wantV, wantOK)
		}
	}
}

// TestRankVotesTieBreak pins the ranking contract: descending votes, equal
// votes ordered by ascending byte value, and a top-k request returns exactly
// the first k entries of the full ranking.
func TestRankVotesTieBreak(t *testing.T) {
	// Hand-built case: 7 and 200 tie at the top; 3, 5 and 100 tie below.
	var votes [256]int32
	votes[200] = 9
	votes[7] = 9
	votes[100] = 4
	votes[5] = 4
	votes[3] = 4
	var top [6]byte
	rankVotes(&votes, top[:])
	want := []byte{7, 200, 3, 5, 100, 0}
	if !bytes.Equal(top[:], want) {
		t.Fatalf("rankVotes top-6 = %v, want %v", top[:], want)
	}

	// Property: for random vote tables (including heavy ties), every top-k
	// prefix matches the full stable ranking.
	rng := sim.NewRNG(7)
	for trial := 0; trial < 100; trial++ {
		var v [256]int32
		vi := make([]int, 256)
		for i := range v {
			n := int32(rng.Intn(4)) // few distinct counts → many ties
			v[i] = n
			vi[i] = int(n)
		}
		full := make([]byte, 256)
		for i := range full {
			full[i] = byte(i)
		}
		sort.SliceStable(full, func(a, b int) bool {
			return vi[full[a]] > vi[full[b]]
		})
		for _, k := range []int{1, 3, 16, 256} {
			out := make([]byte, k)
			rankVotes(&v, out)
			if !bytes.Equal(out, full[:k]) {
				t.Fatalf("trial %d: rankVotes top-%d = %v, full ranking prefix %v",
					trial, k, out, full[:k])
			}
		}
	}
}

// TestVoteByteMatchesReference checks the incremental tables against a full
// recount across a randomized capture stream with interleaved prefix changes
// — including prefix flips that force dirty-prefix invalidation, and
// backtracking-style returns to a previously used prefix.
func TestVoteByteMatchesReference(t *testing.T) {
	key := Key{0x5e, 0xc2, 0x17, 0x88, 0x3a}
	rng := sim.NewRNG(13)
	c := NewCracker(len(key))

	prefixes := []Key{
		{},
		{key[0]},
		{0x00}, // wrong byte 0: invalidates byte-1 table built under key[0]
		{key[0], key[1]},
		{key[0], 0xff},
		{key[0], key[1], key[2], key[3]},
	}
	for round := 0; round < 40; round++ {
		// A burst of captures: mostly weak IVs, some noise.
		for i := 0; i < 50; i++ {
			var iv IV
			if rng.Intn(10) == 0 {
				iv = IV{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
			} else {
				iv = IV{byte(rng.Intn(len(key)) + 3), 255, byte(rng.Intn(256))}
			}
			c.AddSample(Sample{IV: iv, K0: FirstKeystreamByte(key, iv)})
		}
		// Interrogate a random byte under a random prefix; the table must
		// match a from-scratch recount every time.
		p := prefixes[rng.Intn(len(prefixes))]
		b := len(p)
		var top [3]byte
		total := c.voteByte(b, p, top[:])
		wantRanked, wantTotal := voteByteRef(c.samples[b], p)
		if total != wantTotal {
			t.Fatalf("round %d byte %d prefix %x: total %d, reference %d",
				round, b, p, total, wantTotal)
		}
		if !bytes.Equal(top[:], wantRanked[:3]) {
			t.Fatalf("round %d byte %d prefix %x: top-3 %v, reference %v",
				round, b, p, top[:], wantRanked[:3])
		}
	}
}

// TestRecoverKeyMatchesFromScratch replays randomized sample streams into a
// long-lived cracker (incremental tables, early-out cache) and a fresh
// cracker per attempt (no standing state), asserting identical outcomes.
func TestRecoverKeyMatchesFromScratch(t *testing.T) {
	key := Key{0xde, 0xad, 0xbe, 0xef, 0x42}
	ref := Seal(key, IV{200, 1, 1}, 0, []byte("verification frame"))
	verify := func(k Key) bool {
		_, err := Open(k, ref)
		return err == nil
	}
	rng := sim.NewRNG(21)
	live := NewCracker(len(key))
	live.Verify = verify
	var stream []Sample
	for round := 0; round < 30; round++ {
		for i := 0; i < 64; i++ {
			iv := IV{byte(rng.Intn(len(key)) + 3), 255, byte(rng.Intn(256))}
			s := Sample{IV: iv, K0: FirstKeystreamByte(key, iv)}
			stream = append(stream, s)
			live.AddSample(s)
		}
		gotKey, gotErr := live.RecoverKey()

		fresh := NewCracker(len(key))
		fresh.Verify = verify
		for _, s := range stream {
			fresh.AddSample(s)
		}
		wantKey, wantErr := fresh.RecoverKey()
		if !bytes.Equal(gotKey, wantKey) || gotErr != wantErr {
			t.Fatalf("round %d: live (%x, %v) != fresh (%x, %v)",
				round, gotKey, gotErr, wantKey, wantErr)
		}
		if gotErr == nil && bytes.Equal(gotKey, key) {
			return // recovered; the interesting rounds are behind us
		}
	}
	t.Fatal("key never recovered within the stream budget")
}

// TestSearchMatchesReference replays E4's 104-bit capture stream into one
// long-lived cracker and, after every burst, into recoverRef over the same
// samples. The backtracking search must ask Verify the same candidates in
// the same order and reach the same outcome as the from-scratch reference:
// the sibling vote tables, the standing tables left on the plurality prefix
// and the one-scan ranking are all exact.
func TestSearchMatchesReference(t *testing.T) {
	const attempts = 12
	verify := e4Verify(e4Key)
	var got, want []byte // every Verify candidate of one attempt, in order
	recording := func(log *[]byte) func(Key) bool {
		return func(k Key) bool {
			*log = append(*log, k...)
			return verify(k)
		}
	}
	c := NewCracker(len(e4Key))
	c.Verify = recording(&got)
	samples := make([][]Sample, len(e4Key))
	rng := sim.NewRNG(4)
	var burst []Sample
	searched := 0
	for a := 0; a < attempts; a++ {
		burst = e4Burst(rng, e4Key, burst[:0])
		for _, s := range burst {
			c.AddSample(s)
			b := int(s.IV[0]) - 3
			samples[b] = append(samples[b], s)
		}
		got, want = got[:0], want[:0]
		gotKey, gotErr := c.RecoverKey()
		wantKey, wantErr := recoverRef(samples, recording(&want))
		if !bytes.Equal(gotKey, wantKey) || gotErr != wantErr {
			t.Fatalf("attempt %d: cracker (%x, %v), reference (%x, %v)",
				a, gotKey, gotErr, wantKey, wantErr)
		}
		if !bytes.Equal(got, want) {
			n := len(e4Key)
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("attempt %d: cracker asked Verify %d candidates, reference %d; first difference in candidate %d",
				a, len(got)/n, len(want)/n, i/n)
		}
		if len(got) > len(e4Key) {
			searched++
		}
	}
	if searched < attempts/2 {
		t.Fatalf("only %d of %d attempts backtracked", searched, attempts)
	}
}

// TestRecoverKeyEarlyOut verifies the no-new-samples no-op: the cached
// outcome is returned (as a fresh copy the caller may mutate), strong frames
// do not defeat the cache, and a new weak frame re-arms a real attempt.
func TestRecoverKeyEarlyOut(t *testing.T) {
	key := Key40FromString("SECRE")
	c := NewCracker(len(key))
	for b := 0; b < len(key); b++ {
		for x := 0; x < 256; x++ {
			iv := IV{byte(b + 3), 255, byte(x)}
			c.AddSample(Sample{IV: iv, K0: FirstKeystreamByte(key, iv)})
		}
	}
	got1, err := c.RecoverKey()
	if err != nil || !bytes.Equal(got1, key) {
		t.Fatalf("first attempt: %x, %v", got1, err)
	}
	// Strong frames only: the early-out must hold (WeakFrames unchanged).
	c.AddSample(Sample{IV: IV{1, 2, 3}, K0: 0})
	got2, err := c.RecoverKey()
	if err != nil || !bytes.Equal(got2, key) {
		t.Fatalf("cached attempt: %x, %v", got2, err)
	}
	// The cache must hand out copies: corrupting one result must not leak
	// into the next.
	got2[0] ^= 0xff
	got3, err := c.RecoverKey()
	if err != nil || !bytes.Equal(got3, key) {
		t.Fatalf("after caller mutation: %x, %v", got3, err)
	}
	// A new weak frame re-arms recovery (and it still succeeds).
	iv := IV{3, 255, 9}
	c.AddSample(Sample{IV: iv, K0: FirstKeystreamByte(key, iv)})
	got4, err := c.RecoverKey()
	if err != nil || !bytes.Equal(got4, key) {
		t.Fatalf("re-armed attempt: %x, %v", got4, err)
	}
}

// TestRecoverKeyEarlyOutCachesFailure pins the other half of the cache: a
// thin sample set fails once, and the repeat attempt is the same failure
// without recomputation.
func TestRecoverKeyEarlyOutCachesFailure(t *testing.T) {
	c := NewCracker(KeySize40)
	for x := 0; x < 4; x++ {
		c.AddSample(Sample{IV: IV{3, 255, byte(x)}, K0: 0})
	}
	if _, err := c.RecoverKey(); err != ErrNotEnough {
		t.Fatalf("err = %v, want ErrNotEnough", err)
	}
	if _, err := c.RecoverKey(); err != ErrNotEnough {
		t.Fatalf("cached err = %v, want ErrNotEnough", err)
	}
}

// TestVoteMachineryAllocFree asserts the steady-state contract: folding a
// weak sample into a standing table and re-ranking candidates allocates
// nothing, and a backtracking attempt allocates only its key.
func TestVoteMachineryAllocFree(t *testing.T) {
	key := Key40FromString("SECRE")
	c := NewCracker(len(key))
	// Pre-size the sample slices so append's amortized growth does not count
	// against the steady-state measurement.
	for b := range c.samples {
		c.samples[b] = make([]Sample, 0, 4096)
	}
	var top [3]byte
	iv := IV{3, 255, 0}
	s := Sample{IV: iv, K0: FirstKeystreamByte(key, iv)}
	allocs := testing.AllocsPerRun(1000, func() {
		c.AddSample(s)
		c.voteByte(0, nil, top[:])
	})
	if allocs != 0 {
		t.Fatalf("AddSample+voteByte allocated %.1f times per op, want 0", allocs)
	}
	if a := testing.AllocsPerRun(1000, func() { FirstKeystreamByte(key, iv) }); a != 0 {
		t.Fatalf("FirstKeystreamByte allocated %.1f times per op, want 0", a)
	}

	// A failing attempt that backtracks through the whole budget: after the
	// first one has sized the search scratch, each allocates only the
	// plurality key. The search votes into the scratch, hands Verify its
	// own buffer, and leaves the standing tables current.
	calls := 0
	c.Verify = func(Key) bool {
		calls++
		return false
	}
	for b := 1; b < len(key); b++ {
		for x := 0; x < 16; x++ {
			iv := IV{byte(b + 3), 255, byte(x)}
			c.AddSample(Sample{IV: iv, K0: FirstKeystreamByte(key, iv)})
		}
	}
	if _, err := c.RecoverKey(); err != ErrNotEnough || calls < 2 {
		t.Fatalf("first backtracking attempt: %v after %d Verify calls, want ErrNotEnough after a search", err, calls)
	}
	allocs = testing.AllocsPerRun(100, func() {
		c.AddSample(s) // a new weak frame re-arms the attempt
		if _, err := c.RecoverKey(); err != ErrNotEnough {
			t.Fatalf("backtracking attempt: %v, want ErrNotEnough", err)
		}
	})
	if allocs > 1 {
		t.Fatalf("backtracking RecoverKey allocated %.1f times per op, want at most 1", allocs)
	}
}

// FuzzCrackerAddSealed feeds arbitrary byte strings through the sealed-frame
// path and cross-checks the incremental engine against a fresh cracker over
// the surviving samples. Both verify candidates by opening one frame sealed
// under the key, so a plurality miss runs the backtracking search under
// fuzz. The engine must never panic, and statistics, outcomes and the
// number of Verify calls must match a from-scratch replay.
func FuzzCrackerAddSealed(f *testing.F) {
	key := Key40FromString("SECRE")
	ref := Seal(key, IV{200, 1, 1}, 0, []byte("verification frame"))
	counting := func(calls *int) func(Key) bool {
		return func(k Key) bool {
			*calls++
			_, err := Open(k, ref)
			return err == nil
		}
	}
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{3, 255, 1, 0, 0xaa}, uint8(1))
	f.Add(Seal(key, IV{3, 255, 7}, 0, []byte{SNAPFirstByte, 0xaa, 0x03}), uint8(9))
	weak := Seal(key, IV{4, 255, 200}, 0, []byte{SNAPFirstByte})
	f.Add(append(weak, weak...), uint8(40))
	// IVs (b+3, 255, x) for x < 63, as 9-byte frames (chunk 8): the
	// plurality key is wrong, and the search finds the real one.
	var backtrack []byte
	for x := 0; x < 63; x++ {
		for b := 0; b < len(key); b++ {
			backtrack = append(backtrack, Seal(key, IV{byte(b + 3), 255, byte(x)}, 0, []byte{SNAPFirstByte})...)
		}
	}
	var calls int
	c := NewCracker(len(key))
	c.Verify = counting(&calls)
	for off := 0; off < len(backtrack); off += 9 {
		c.AddSealed(backtrack[off : off+9])
	}
	if got, err := c.RecoverKey(); err != nil || !bytes.Equal(got, key) || calls < 2 {
		f.Fatalf("backtracking seed: (%x, %v) after %d Verify calls, want the key after a search", got, err, calls)
	}
	f.Add(backtrack, uint8(8))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		var liveCalls, freshCalls int
		live := NewCracker(KeySize40)
		live.Verify = counting(&liveCalls)
		// lastCalls is the Verify count of the live cracker's last attempt
		// that had new weak frames; a repeat without them must be a cached
		// no-op.
		lastCalls := 0
		lastWeak := ^uint64(0)
		attempt := func() (Key, error) {
			liveCalls = 0
			k, err := live.RecoverKey()
			if live.WeakFrames != lastWeak {
				lastCalls, lastWeak = liveCalls, live.WeakFrames
			} else if liveCalls != 0 {
				t.Fatalf("cached attempt called Verify %d times", liveCalls)
			}
			return k, err
		}
		size := int(chunk)%64 + 1
		var frames [][]byte
		for off := 0; off < len(data); off += size {
			end := off + size
			if end > len(data) {
				end = len(data)
			}
			frames = append(frames, data[off:end])
		}
		for i, fr := range frames {
			live.AddSealed(fr)
			if i%3 == 0 {
				attempt() // interleave attempts to churn the tables
			}
		}
		liveKey, liveErr := attempt()

		fresh := NewCracker(KeySize40)
		fresh.Verify = counting(&freshCalls)
		for _, fr := range frames {
			fresh.AddSealed(fr)
		}
		freshKey, freshErr := fresh.RecoverKey()
		if live.Frames != fresh.Frames || live.WeakFrames != fresh.WeakFrames {
			t.Fatalf("frame accounting diverged: live %d/%d, fresh %d/%d",
				live.Frames, live.WeakFrames, fresh.Frames, fresh.WeakFrames)
		}
		if !bytes.Equal(liveKey, freshKey) || (liveErr == nil) != (freshErr == nil) {
			t.Fatalf("outcome diverged: live (%x, %v), fresh (%x, %v)",
				liveKey, liveErr, freshKey, freshErr)
		}
		if lastCalls != freshCalls {
			t.Fatalf("Verify calls diverged: live %d, fresh %d", lastCalls, freshCalls)
		}
	})
}

// e4Key and e4Verify reproduce E4's 104-bit job: the key, and the Verify
// that opens one frame sealed under it.
var e4Key = Key("thirteenbytes")

func e4Verify(key Key) func(Key) bool {
	ref := Seal(key, IV{200, 1, 1}, 0, []byte("verification frame"))
	return func(k Key) bool {
		_, err := Open(k, ref)
		return err == nil
	}
}

// e4Burst appends one of E4's 64-sample capture bursts for key, drawn from
// rng: weak IVs in random order, possibly with repeats.
func e4Burst(rng *sim.RNG, key Key, out []Sample) []Sample {
	for i := 0; i < 64; i++ {
		b := rng.Intn(len(key))
		iv := IV{byte(b + 3), 255, byte(rng.Intn(256))}
		out = append(out, Sample{IV: iv, K0: FirstKeystreamByte(key, iv)})
	}
	return out
}

// BenchmarkFMSRecover104 replays E4's 104-bit capture stream (sim.NewRNG(4),
// 64-sample bursts, RecoverKey after each) into a fresh cracker until the key
// is recovered. It stands for E4's 104-bit job, nearly all of E4, the largest
// single cost of a paper-suite pass. E4 spreads that job's attempts over
// every core (core.First), and took 26–28% of the wall time of an E1–E14
// pass at GOMAXPROCS 2 (three `cmd/experiments` passes, 2-vCPU host,
// Go 1.24), against 32–44% with the attempts on one core and ~50% while
// every search node rebuilt its own vote table. The benchmark still times
// one serial cracker: the attempts' own cost, which core.First spreads but
// does not shrink.
func BenchmarkFMSRecover104(b *testing.B) {
	verify := e4Verify(e4Key)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		c := NewCracker(len(e4Key))
		c.Verify = verify
		rng := sim.NewRNG(4)
		var burst []Sample
		for {
			if c.WeakFrames >= uint64(len(e4Key)*256*4) {
				b.Fatal("key not recovered within E4's sample budget")
			}
			burst = e4Burst(rng, e4Key, burst[:0])
			for _, s := range burst {
				c.AddSample(s)
			}
			if got, err := c.RecoverKey(); err == nil && bytes.Equal(got, e4Key) {
				break
			}
		}
	}
}
