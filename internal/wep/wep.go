package wep

import (
	"errors"
	"fmt"
)

// Key is a WEP root key: 5 bytes ("40-bit"/WEP-64) or 13 bytes
// ("104-bit"/WEP-128). The paper's CORP network uses a shared WEP key named
// "SECRET"; Key40FromString builds the same kind of ASCII key.
type Key []byte

// Key sizes.
const (
	KeySize40  = 5
	KeySize104 = 13
)

// Validate reports whether the key has a legal WEP size.
func (k Key) Validate() error {
	if len(k) != KeySize40 && len(k) != KeySize104 {
		return fmt.Errorf("wep: key must be %d or %d bytes, got %d", KeySize40, KeySize104, len(k))
	}
	return nil
}

// Key40FromString derives a 5-byte key from an ASCII passphrase by
// truncation/padding — the naive scheme consumer gear used for "ASCII keys".
func Key40FromString(s string) Key {
	k := make(Key, KeySize40)
	copy(k, s)
	return k
}

// Encapsulation constants.
const (
	IVLen     = 3 // initialisation vector prepended in the clear
	KeyIDLen  = 1 // key index byte (2 bits used)
	ICVLen    = 4 // CRC-32 integrity check value
	HeaderLen = IVLen + KeyIDLen
	// Overhead is the total expansion Seal adds to a plaintext.
	Overhead = HeaderLen + ICVLen
)

// IV is the 24-bit per-frame initialisation vector.
type IV [IVLen]byte

// Uint32 returns the IV as an integer (iv[0] is the first byte on the wire).
func (iv IV) Uint32() uint32 {
	return uint32(iv[0])<<16 | uint32(iv[1])<<8 | uint32(iv[2])
}

// IVFromUint32 builds an IV from the low 24 bits of v.
func IVFromUint32(v uint32) IV {
	return IV{byte(v >> 16), byte(v >> 8), byte(v)}
}

// IsWeak reports whether the IV has the Fluhrer–Mantin–Shamir weak form
// (B+3, 255, x) for some attackable key-byte index B of a key of length
// keyLen. These are the IVs Airsnort harvests.
func (iv IV) IsWeak(keyLen int) bool {
	b := int(iv[0]) - 3
	return iv[1] == 0xff && b >= 0 && b < keyLen
}

// Seal encrypts plaintext under key with the given IV and key index,
// returning the on-air WEP payload: IV || keyID || RC4(plaintext || ICV).
func Seal(key Key, iv IV, keyID byte, plaintext []byte) []byte {
	if err := key.Validate(); err != nil {
		panic(err)
	}
	out := make([]byte, HeaderLen+len(plaintext)+ICVLen)
	copy(out[0:IVLen], iv[:])
	out[IVLen] = keyID & 0x03
	body := out[HeaderLen:]
	copy(body, plaintext)
	icv := crc32ieee(plaintext)
	putLE32(body[len(plaintext):], icv)
	var c RC4
	c.resetFrame(iv[:], key)
	c.XORKeyStream(body, body)
	return out
}

// ErrICV is returned by Open when the integrity check fails — either the key
// is wrong or the frame was corrupted in a way CRC detects.
var ErrICV = errors.New("wep: ICV mismatch")

// ErrShort is returned by Open for frames too small to be WEP payloads.
var ErrShort = errors.New("wep: frame too short")

// Open decrypts a WEP payload produced by Seal, verifying the ICV.
func Open(key Key, sealed []byte) ([]byte, error) {
	if err := key.Validate(); err != nil {
		return nil, err
	}
	if len(sealed) < Overhead {
		return nil, ErrShort
	}
	body := make([]byte, len(sealed)-HeaderLen)
	var c RC4
	c.resetFrame(sealed[:IVLen], key)
	c.XORKeyStream(body, sealed[HeaderLen:])
	plaintext := body[:len(body)-ICVLen]
	if crc32ieee(plaintext) != le32(body[len(plaintext):]) {
		return nil, ErrICV
	}
	return plaintext, nil
}

// FlipBits demonstrates WEP's integrity failure: given a sealed frame it
// XORs delta into the plaintext at offset and fixes up the encrypted ICV so
// the frame still verifies under Open — without knowing the key. This works
// because both RC4 and CRC-32 are linear over XOR.
func FlipBits(sealed []byte, offset int, delta []byte) ([]byte, error) {
	if len(sealed) < Overhead {
		return nil, ErrShort
	}
	plainLen := len(sealed) - Overhead
	if offset < 0 || offset+len(delta) > plainLen {
		return nil, fmt.Errorf("wep: delta out of range")
	}
	out := append([]byte(nil), sealed...)
	// XOR the delta into the ciphertext: RC4 linearity makes the same delta
	// appear in the plaintext.
	for i, d := range delta {
		out[HeaderLen+offset+i] ^= d
	}
	// Fix the ICV: crc(p^D) = crc(p) ^ crc0(D) for a full-length delta D with
	// zero initial state, where D is delta placed at offset in a zero buffer.
	full := make([]byte, plainLen)
	copy(full[offset:], delta)
	icvDelta := crc32zero(full)
	icvOff := HeaderLen + plainLen
	for i := 0; i < ICVLen; i++ {
		out[icvOff+i] ^= byte(icvDelta >> (8 * i))
	}
	return out, nil
}

// --- CRC-32 (IEEE 802.3, reflected) implemented locally so the bit-flip
// attack can use the raw linear update without init/final conditioning. ---

var crcTable [256]uint32

func init() {
	const poly = 0xedb88320
	for i := range crcTable {
		c := uint32(i)
		for k := 0; k < 8; k++ {
			if c&1 != 0 {
				c = c>>1 ^ poly
			} else {
				c >>= 1
			}
		}
		crcTable[i] = c
	}
}

func crcUpdate(crc uint32, p []byte) uint32 {
	for _, b := range p {
		crc = crcTable[byte(crc)^b] ^ crc>>8
	}
	return crc
}

// crc32ieee is the standard CRC-32: init all-ones, final complement.
func crc32ieee(p []byte) uint32 { return ^crcUpdate(^uint32(0), p) }

// crc32zero is the raw linear map (init 0, no final complement); it is the
// XOR-difference of two standard CRCs over equal-length inputs.
func crc32zero(p []byte) uint32 { return crcUpdate(0, p) }

func putLE32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// --- IV allocation policies ---

// IVSource produces per-frame IVs. Implementations are not safe for
// concurrent use; each transmitter owns one.
type IVSource interface {
	NextIV() IV
}

// SequentialIV counts through the 24-bit IV space, as most early firmware
// did. It wraps after 2^24 frames — the keystream-reuse problem — and walks
// straight through every FMS-weak IV, which is what made Airsnort effective.
type SequentialIV struct{ counter uint32 }

// NextIV implements IVSource.
func (s *SequentialIV) NextIV() IV {
	iv := IVFromUint32(s.counter)
	s.counter = (s.counter + 1) & 0xffffff
	return iv
}

// RandomIV draws IVs uniformly from a caller-supplied 32-bit generator
// (typically the kernel RNG), colliding by birthday paradox after ~4096
// frames.
type RandomIV struct {
	// Rand returns random 32 bits; the low 24 are used.
	Rand func() uint32
}

// NextIV implements IVSource.
func (r *RandomIV) NextIV() IV { return IVFromUint32(r.Rand() & 0xffffff) }

// WeakAvoidingIV is the later-firmware mitigation: sequential allocation
// that skips FMS-weak IVs. The E4 ablation shows FMS starving under it.
type WeakAvoidingIV struct {
	KeyLen  int
	counter uint32
}

// NextIV implements IVSource.
func (w *WeakAvoidingIV) NextIV() IV {
	for {
		iv := IVFromUint32(w.counter)
		w.counter = (w.counter + 1) & 0xffffff
		if !iv.IsWeak(w.KeyLen) {
			return iv
		}
	}
}
