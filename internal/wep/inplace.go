package wep

import "repro/internal/pkt"

// maxKeySize bounds the stack space for per-frame keys (IV + WEP-128 key).
const maxKeySize = IVLen + KeySize104

// resetFrame keys c for one frame: the KSA over IV‖key, with the per-frame
// key in a stack array. key must be a valid WEP key.
func (c *RC4) resetFrame(iv []byte, key Key) {
	var perFrame [maxKeySize]byte
	n := copy(perFrame[:], iv[:IVLen])
	n += copy(perFrame[n:], key)
	c.Reset(perFrame[:n])
}

// SealInPlace encrypts a packet buffer's view in place, producing bytes
// identical to Seal: the IV and key-ID byte are pushed into the buffer's
// headroom, the ICV is extended into its tailroom, and RC4 runs over the body
// where it lies. Nothing is allocated: the per-frame RC4 state lives on the
// stack (see RC4.Reset).
//
//simvet:owner borrow in-place crypto over the caller's view; the caller keeps the release obligation
func SealInPlace(key Key, iv IV, keyID byte, pb *pkt.Buf) {
	if err := key.Validate(); err != nil {
		panic(err)
	}
	icv := crc32ieee(pb.Bytes())
	putLE32(pb.Extend(ICVLen), icv)
	hdr := pb.Push(HeaderLen)
	copy(hdr, iv[:])
	hdr[IVLen] = keyID & 0x03
	var c RC4
	c.resetFrame(iv[:], key)
	body := pb.Bytes()[HeaderLen:]
	c.XORKeyStream(body, body)
}

// OpenInPlace decrypts a sealed WEP payload where it lies, popping the
// IV/key-ID header and trimming the ICV so the buffer's view becomes the
// plaintext. On error the buffer's contents are unspecified (the body may be
// half-transformed); the caller still owns it and must Release as usual.
//
//simvet:owner borrow in-place crypto over the caller's view; the caller keeps the release obligation
func OpenInPlace(key Key, pb *pkt.Buf) error {
	if err := key.Validate(); err != nil {
		return err
	}
	if pb.Len() < Overhead {
		return ErrShort
	}
	hdr := pb.Pop(HeaderLen)
	var c RC4
	c.resetFrame(hdr[:IVLen], key)
	body := pb.Bytes()
	c.XORKeyStream(body, body)
	plaintext := body[:len(body)-ICVLen]
	if crc32ieee(plaintext) != le32(body[len(plaintext):]) {
		return ErrICV
	}
	pb.Trim(ICVLen)
	return nil
}
