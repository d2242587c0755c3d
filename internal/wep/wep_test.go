package wep

import (
	"bytes"
	"hash/crc32"
	"testing"
	"testing/quick"
)

// RC4 test vectors from RFC 6229 (key lengths 40 and 128 bits).
func TestRC4RFC6229Vectors(t *testing.T) {
	cases := []struct {
		key  []byte
		want []byte // first 16 keystream bytes
	}{
		{
			key: []byte{0x01, 0x02, 0x03, 0x04, 0x05},
			want: []byte{0xb2, 0x39, 0x63, 0x05, 0xf0, 0x3d, 0xc0, 0x27,
				0xcc, 0xc3, 0x52, 0x4a, 0x0a, 0x11, 0x18, 0xa8},
		},
		{
			key: []byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,
				0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f, 0x10},
			want: []byte{0x9a, 0xc7, 0xcc, 0x9a, 0x60, 0x9d, 0x1e, 0xf7,
				0xb2, 0x93, 0x28, 0x99, 0xcd, 0xe4, 0x1b, 0x97},
		},
	}
	for _, c := range cases {
		got := NewRC4(c.key).Keystream(16)
		if !bytes.Equal(got, c.want) {
			t.Errorf("key %x: keystream %x, want %x", c.key, got, c.want)
		}
	}
}

func TestRC4OffsetVector(t *testing.T) {
	// RFC 6229, key 0x0102030405, bytes at offset 240..255.
	c := NewRC4([]byte{0x01, 0x02, 0x03, 0x04, 0x05})
	c.Keystream(240)
	got := c.Keystream(16)
	want := []byte{0x28, 0xcb, 0x11, 0x32, 0xc9, 0x6c, 0xe2, 0x86,
		0x42, 0x1d, 0xca, 0xad, 0xb8, 0xb6, 0x9e, 0xae}
	if !bytes.Equal(got, want) {
		t.Fatalf("offset-240 keystream %x, want %x", got, want)
	}
}

func TestRC4EncryptDecrypt(t *testing.T) {
	f := func(key []byte, msg []byte) bool {
		if len(key) == 0 || len(key) > 256 {
			key = []byte{1, 2, 3}
		}
		ct := make([]byte, len(msg))
		NewRC4(key).XORKeyStream(ct, msg)
		pt := make([]byte, len(ct))
		NewRC4(key).XORKeyStream(pt, ct)
		return bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRC4BadKeyPanics(t *testing.T) {
	for _, n := range []int{0, 257} {
		n := n
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("key size %d did not panic", n)
				}
			}()
			NewRC4(make([]byte, n))
		}()
	}
}

func TestCRC32MatchesStdlib(t *testing.T) {
	f := func(p []byte) bool {
		return crc32ieee(p) == crc32.ChecksumIEEE(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyValidate(t *testing.T) {
	if Key(make([]byte, 5)).Validate() != nil {
		t.Error("40-bit key rejected")
	}
	if Key(make([]byte, 13)).Validate() != nil {
		t.Error("104-bit key rejected")
	}
	for _, n := range []int{0, 4, 6, 12, 14} {
		if Key(make([]byte, n)).Validate() == nil {
			t.Errorf("%d-byte key accepted", n)
		}
	}
}

func TestKey40FromString(t *testing.T) {
	k := Key40FromString("SECRET")
	if len(k) != 5 || string(k) != "SECRE" {
		t.Fatalf("key = %q", k)
	}
	if string(Key40FromString("AB")) != "AB\x00\x00\x00" {
		t.Fatal("short passphrase not padded")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	key := Key40FromString("SECRET")
	msg := []byte("attack at dawn")
	sealed := Seal(key, IV{1, 2, 3}, 0, msg)
	if len(sealed) != len(msg)+Overhead {
		t.Fatalf("sealed len %d", len(sealed))
	}
	got, err := Open(key, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
}

func TestOpenWrongKeyFails(t *testing.T) {
	sealed := Seal(Key40FromString("SECRET"), IV{1, 2, 3}, 0, []byte("hello"))
	if _, err := Open(Key40FromString("WRONG"), sealed); err != ErrICV {
		t.Fatalf("err = %v, want ErrICV", err)
	}
}

func TestOpenDetectsNaiveCorruption(t *testing.T) {
	key := Key40FromString("SECRET")
	sealed := Seal(key, IV{9, 9, 9}, 0, []byte("hello world"))
	sealed[HeaderLen+2] ^= 0x01
	if _, err := Open(key, sealed); err != ErrICV {
		t.Fatalf("err = %v, want ErrICV", err)
	}
}

func TestOpenShortFrame(t *testing.T) {
	if _, err := Open(Key40FromString("SECRET"), make([]byte, Overhead-1)); err != ErrShort {
		t.Fatalf("err = %v, want ErrShort", err)
	}
}

func TestQuickSealOpen(t *testing.T) {
	key := Key(make([]byte, 13))
	copy(key, "thirteenbytes")
	f := func(ivRaw uint32, msg []byte) bool {
		iv := IVFromUint32(ivRaw)
		got, err := Open(key, Seal(key, iv, 1, msg))
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The paper: "in the attack scenarios we present here [WEP] provides no
// protection what so ever." One reason: anyone can flip bits without the key.
func TestFlipBitsForgesValidFrame(t *testing.T) {
	key := Key40FromString("SECRET")
	msg := []byte("PAY $100 TO ALICE")
	sealed := Seal(key, IV{5, 5, 5}, 0, msg)

	// Attacker (no key) turns ALICE into MALLO by XOR delta.
	delta := make([]byte, 5)
	for i, c := range []byte("MALLO") {
		delta[i] = c ^ msg[12+i]
	}
	forged, err := FlipBits(sealed, 12, delta)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(key, forged)
	if err != nil {
		t.Fatalf("forged frame failed ICV: %v", err)
	}
	if string(got) != "PAY $100 TO MALLO" {
		t.Fatalf("got %q", got)
	}
}

func TestFlipBitsRangeChecks(t *testing.T) {
	sealed := Seal(Key40FromString("SECRET"), IV{1, 1, 1}, 0, []byte("abcd"))
	if _, err := FlipBits(sealed, 3, []byte{1, 1}); err == nil {
		t.Error("out-of-range delta accepted")
	}
	if _, err := FlipBits([]byte{1, 2}, 0, []byte{1}); err != ErrShort {
		t.Error("short frame accepted")
	}
}

func TestQuickFlipBits(t *testing.T) {
	key := Key40FromString("SECRET")
	f := func(msg []byte, off8 uint8, delta []byte) bool {
		if len(msg) == 0 {
			msg = []byte{0}
		}
		off := int(off8) % len(msg)
		if len(delta) > len(msg)-off {
			delta = delta[:len(msg)-off]
		}
		sealed := Seal(key, IV{1, 2, 3}, 0, msg)
		forged, err := FlipBits(sealed, off, delta)
		if err != nil {
			return false
		}
		got, err := Open(key, forged)
		if err != nil {
			return false
		}
		want := append([]byte(nil), msg...)
		for i, d := range delta {
			want[off+i] ^= d
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIVRoundTripAndWeakness(t *testing.T) {
	f := func(v uint32) bool {
		v &= 0xffffff
		return IVFromUint32(v).Uint32() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if !(IV{3, 255, 7}).IsWeak(KeySize40) {
		t.Error("(3,255,7) should be weak for byte 0")
	}
	if !(IV{7, 255, 0}).IsWeak(KeySize40) {
		t.Error("(7,255,0) should be weak for byte 4")
	}
	if (IV{8, 255, 0}).IsWeak(KeySize40) {
		t.Error("(8,255,0) beyond 40-bit key bytes")
	}
	if !(IV{8, 255, 0}).IsWeak(KeySize104) {
		t.Error("(8,255,0) weak for 104-bit keys")
	}
	if (IV{3, 254, 7}).IsWeak(KeySize40) {
		t.Error("second byte must be 255")
	}
}

func TestSequentialIVWrapsAndCovers(t *testing.T) {
	s := &SequentialIV{}
	first := s.NextIV()
	if first != (IV{0, 0, 0}) {
		t.Fatalf("first IV %v", first)
	}
	s.counter = 0xffffff
	if s.NextIV() != (IV{255, 255, 255}) {
		t.Fatal("last IV")
	}
	if s.NextIV() != (IV{0, 0, 0}) {
		t.Fatal("wrap")
	}
}

func TestRandomIVUsesLow24Bits(t *testing.T) {
	r := &RandomIV{Rand: func() uint32 { return 0xff123456 }}
	if r.NextIV() != IVFromUint32(0x123456) {
		t.Fatal("high bits leaked into IV")
	}
}

func TestWeakAvoidingIVNeverWeak(t *testing.T) {
	w := &WeakAvoidingIV{KeyLen: KeySize40}
	w.counter = 3<<16 | 255<<8 // start right at a weak run
	for i := 0; i < 2000; i++ {
		if iv := w.NextIV(); iv.IsWeak(KeySize40) {
			t.Fatalf("weak IV emitted: %v", iv)
		}
	}
}

func TestSampleFromSealed(t *testing.T) {
	key := Key40FromString("SECRET")
	iv := IV{3, 255, 7}
	plaintext := []byte{SNAPFirstByte, 0xaa, 0x03}
	sealed := Seal(key, iv, 0, plaintext)
	s, err := SampleFromSealed(sealed, SNAPFirstByte)
	if err != nil {
		t.Fatal(err)
	}
	if s.IV != iv {
		t.Fatalf("iv %v", s.IV)
	}
	if s.K0 != FirstKeystreamByte(key, iv) {
		t.Fatal("derived keystream byte wrong")
	}
}

func TestFirstKeystreamByteMatchesSeal(t *testing.T) {
	key := Key40FromString("kyxzq")
	for v := uint32(0); v < 300; v += 7 {
		iv := IVFromUint32(v)
		sealed := Seal(key, iv, 0, []byte{SNAPFirstByte})
		if sealed[HeaderLen]^SNAPFirstByte != FirstKeystreamByte(key, iv) {
			t.Fatalf("mismatch at iv %v", iv)
		}
	}
}

// crackWith runs a full FMS recovery against key, feeding every weak IV
// repetitions of the given count, and reports the recovered key.
func crackWith(t *testing.T, key Key) Key {
	t.Helper()
	c := NewCracker(len(key))
	c.Verify = func(k Key) bool {
		ref := Seal(key, IV{200, 1, 1}, 0, []byte("verify me please"))
		_, err := Open(k, ref)
		return err == nil
	}
	// Feed every weak IV (b+3, 255, x) — what a sequential-IV network leaks
	// over one IV-space pass.
	for b := 0; b < len(key); b++ {
		for x := 0; x < 256; x++ {
			iv := IV{byte(b + 3), 255, byte(x)}
			c.AddSample(Sample{IV: iv, K0: FirstKeystreamByte(key, iv)})
		}
	}
	got, err := c.RecoverKey()
	if err != nil {
		t.Fatalf("RecoverKey: %v (weak frames %d)", err, c.WeakFrames)
	}
	return got
}

func TestFMSRecovers40BitKey(t *testing.T) {
	key := Key40FromString("SECRE")
	if got := crackWith(t, key); !bytes.Equal(got, key) {
		t.Fatalf("recovered %x, want %x", got, key)
	}
}

func TestFMSRecoversBinary40BitKey(t *testing.T) {
	key := Key{0xde, 0xad, 0xbe, 0xef, 0x42}
	if got := crackWith(t, key); !bytes.Equal(got, key) {
		t.Fatalf("recovered %x, want %x", got, key)
	}
}

func TestFMSRecovers104BitKey(t *testing.T) {
	if testing.Short() {
		t.Skip("104-bit crack is slow")
	}
	key := Key([]byte("thirteenbytes"))
	if got := crackWith(t, key); !bytes.Equal(got, key) {
		t.Fatalf("recovered %x, want %x", got, key)
	}
}

func TestFMSNotEnoughSamples(t *testing.T) {
	c := NewCracker(KeySize40)
	for x := 0; x < 4; x++ {
		iv := IV{3, 255, byte(x)}
		c.AddSample(Sample{IV: iv, K0: 0})
	}
	if _, err := c.RecoverKey(); err != ErrNotEnough {
		t.Fatalf("err = %v, want ErrNotEnough", err)
	}
}

func TestFMSIgnoresStrongIVs(t *testing.T) {
	c := NewCracker(KeySize40)
	c.AddSample(Sample{IV: IV{1, 2, 3}, K0: 0})
	if c.WeakFrames != 0 {
		t.Fatal("strong IV counted as weak")
	}
	if c.Frames != 1 {
		t.Fatal("frame not counted")
	}
}

func TestFMSStarvedByWeakAvoidingIVs(t *testing.T) {
	// Ablation: when the sender skips weak IVs, the cracker gets nothing.
	key := Key40FromString("SECRE")
	c := NewCracker(KeySize40)
	src := &WeakAvoidingIV{KeyLen: KeySize40}
	for i := 0; i < 50000; i++ {
		iv := src.NextIV()
		c.AddSample(Sample{IV: iv, K0: FirstKeystreamByte(key, iv)})
	}
	if c.WeakFrames != 0 {
		t.Fatalf("cracker saw %d weak frames from avoiding source", c.WeakFrames)
	}
	if _, err := c.RecoverKey(); err == nil {
		t.Fatal("key recovered without weak IVs")
	}
}

func TestKeystreamReuseOnIVCollision(t *testing.T) {
	// Two frames sealed with the same IV leak the XOR of their plaintexts —
	// the keystream-reuse hazard of the 24-bit IV space.
	key := Key40FromString("SECRE")
	a := []byte("first secret msg")
	b := []byte("other hidden txt")
	sa := Seal(key, IV{1, 2, 3}, 0, a)
	sb := Seal(key, IV{1, 2, 3}, 0, b)
	for i := range a {
		ctXor := sa[HeaderLen+i] ^ sb[HeaderLen+i]
		if ctXor != a[i]^b[i] {
			t.Fatal("ciphertext XOR does not equal plaintext XOR under IV reuse")
		}
	}
}

func BenchmarkSeal1500(b *testing.B) {
	key := Key40FromString("SECRE")
	msg := make([]byte, 1500)
	iv := &SequentialIV{}
	b.SetBytes(1500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Seal(key, iv.NextIV(), 0, msg)
	}
}

func BenchmarkOpen1500(b *testing.B) {
	key := Key40FromString("SECRE")
	sealed := Seal(key, IV{1, 2, 3}, 0, make([]byte, 1500))
	b.SetBytes(1500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Open(key, sealed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFirstKeystreamByte(b *testing.B) {
	key := Key40FromString("SECRE")
	iv := &SequentialIV{}
	for i := 0; i < b.N; i++ {
		FirstKeystreamByte(key, iv.NextIV())
	}
}

// BenchmarkWEPSeal is the per-layer marshal bench gated by scripts/bench.sh:
// a full WEP encapsulation (IV header, RC4 keystream, ICV) of an MTU-sized
// payload.
func BenchmarkWEPSeal(b *testing.B) {
	key := Key40FromString("SECRE")
	msg := make([]byte, 1400)
	iv := &SequentialIV{}
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Seal(key, iv.NextIV(), 0, msg)
	}
}
