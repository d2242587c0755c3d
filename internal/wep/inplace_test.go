package wep

import (
	"bytes"
	"testing"

	"repro/internal/pkt"
)

// TestSealInPlaceMatchesSeal pins byte-identity between the allocating and
// in-place encapsulation paths — the refactor's digest-neutrality hinges on
// the on-air bytes not moving.
func TestSealInPlaceMatchesSeal(t *testing.T) {
	pool := pkt.NewPool()
	for _, key := range []Key{Key40FromString("SECRET"), make(Key, KeySize104)} {
		for _, plaintext := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte("payload!"), 150)} {
			iv := IV{0x12, 0x34, 0x56}
			want := Seal(key, iv, 2, plaintext)

			pb := pool.GetCopy(plaintext)
			SealInPlace(key, iv, 2, pb)
			if !bytes.Equal(pb.Bytes(), want) {
				t.Fatalf("key %d plaintext %d: in-place seal diverged", len(key), len(plaintext))
			}

			if err := OpenInPlace(key, pb); err != nil {
				t.Fatalf("open in place: %v", err)
			}
			if !bytes.Equal(pb.Bytes(), plaintext) {
				t.Fatalf("round trip: got %q want %q", pb.Bytes(), plaintext)
			}
			pb.Release()
		}
	}
}

// TestOpenInPlaceMatchesOpen cross-checks against the allocating decryptor.
func TestOpenInPlaceMatchesOpen(t *testing.T) {
	pool := pkt.NewPool()
	key := Key40FromString("SECRET")
	sealed := Seal(key, IV{9, 8, 7}, 0, []byte("hello world"))

	want, err := Open(key, sealed)
	if err != nil {
		t.Fatal(err)
	}
	pb := pool.GetCopy(sealed)
	if err := OpenInPlace(key, pb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb.Bytes(), want) {
		t.Fatalf("got %q want %q", pb.Bytes(), want)
	}
	pb.Release()
}

func TestOpenInPlaceErrors(t *testing.T) {
	pool := pkt.NewPool()
	key := Key40FromString("SECRET")

	short := pool.GetCopy([]byte{1, 2, 3})
	if err := OpenInPlace(key, short); err != ErrShort {
		t.Fatalf("short frame: %v, want ErrShort", err)
	}
	short.Release()

	sealed := Seal(key, IV{1, 2, 3}, 0, []byte("payload"))
	sealed[len(sealed)-1] ^= 0xff // corrupt the ICV
	bad := pool.GetCopy(sealed)
	if err := OpenInPlace(key, bad); err != ErrICV {
		t.Fatalf("corrupt frame: %v, want ErrICV", err)
	}
	bad.Release()
}

// TestSealInPlaceZeroAlloc pins the hot path's allocation count.
func TestSealInPlaceZeroAlloc(t *testing.T) {
	pool := pkt.NewPool()
	key := Key40FromString("SECRET")
	pb := pool.GetCopy(bytes.Repeat([]byte("a"), 256))
	allocs := testing.AllocsPerRun(20, func() {
		SealInPlace(key, IV{1, 2, 3}, 0, pb)
		if err := OpenInPlace(key, pb); err != nil {
			t.Fatal(err)
		}
	})
	pb.Release()
	if allocs != 0 {
		t.Fatalf("seal+open in place allocates %v per run, want 0", allocs)
	}
}

// sealSink keeps Seal's result live so the allocation count below is real.
var sealSink []byte

// TestSealOpenOneAlloc pins the allocating paths to their output buffer
// alone: the per-frame key and RC4 state live on the stack, as in the
// in-place paths.
func TestSealOpenOneAlloc(t *testing.T) {
	key := make(Key, KeySize104)
	msg := bytes.Repeat([]byte("a"), 256)
	sealed := Seal(key, IV{1, 2, 3}, 0, msg)
	if a := testing.AllocsPerRun(20, func() { sealSink = Seal(key, IV{1, 2, 3}, 0, msg) }); a != 1 {
		t.Fatalf("Seal allocates %v per run, want 1", a)
	}
	if a := testing.AllocsPerRun(20, func() {
		if _, err := Open(key, sealed); err != nil {
			t.Fatal(err)
		}
	}); a != 1 {
		t.Fatalf("Open allocates %v per run, want 1", a)
	}
}
