package vpn

import (
	"bytes"
	"testing"

	"repro/internal/inet"
)

// Fuzz targets for the overlay control-plane decoders: these parse bytes
// that crossed a link from a merely PSK-authenticated neighbour, which in
// the threat model may still be buggy or compromised — decoders must never
// panic, and everything they accept must be canonical (re-encoding an
// accepted input reproduces it byte for byte, so no two wire forms alias
// the same route or stream).

// FuzzRouteAdDecode drives the route advertisement decoder.
func FuzzRouteAdDecode(f *testing.F) {
	f.Add(encodeRouteAd(nil))
	f.Add(encodeRouteAd([]adEntry{{prefix: inet.MustParsePrefix("10.0.0.0/24"), hops: 2}}))
	f.Add(encodeRouteAd([]adEntry{
		{prefix: inet.MustParsePrefix("198.18.0.44/32"), hops: 1},
		{prefix: inet.MustParsePrefix("198.18.0.44/32"), hops: hopsUnreachable},
	}))
	f.Add([]byte{10, 0, 0, 1, 24, 2}) // host bits set: must be rejected
	f.Add([]byte{10, 0, 0, 0, 33, 2}) // bits > 32: must be rejected
	f.Add([]byte{10, 0, 0, 0, 24})    // truncated entry

	f.Fuzz(func(t *testing.T, body []byte) {
		entries, ok := decodeRouteAd(body)
		if !ok {
			return
		}
		for _, e := range entries {
			if e.prefix.Bits < 0 || e.prefix.Bits > 32 {
				t.Fatalf("accepted bits %d", e.prefix.Bits)
			}
			if !e.prefix.Contains(e.prefix.Addr) {
				t.Fatalf("accepted non-canonical prefix %v", e.prefix)
			}
			if e.hops < 0 || e.hops > hopsUnreachable {
				t.Fatalf("accepted hops %d", e.hops)
			}
		}
		if re := encodeRouteAd(entries); !bytes.Equal(re, body) {
			t.Fatalf("accepted ad is not canonical: %x re-encodes to %x", body, re)
		}
	})
}

// FuzzStreamFrameDecode drives the stream-mux frame decoders: the open
// header and the id prefix shared by data/close/reset.
func FuzzStreamFrameDecode(f *testing.F) {
	f.Add(encodeStreamOpen(1, inet.MustParseHostPort("198.18.0.44:4789"), "alice"))
	f.Add(encodeStreamOpen(2, inet.MustParseHostPort("10.0.0.1:80"), ""))
	f.Add([]byte{0, 0, 0, 7, 1, 2, 3, 4})                          // id + payload (data frame shape)
	f.Add([]byte{0, 0, 0})                                         // shorter than any id
	f.Add(append(encodeStreamOpen(3, inet.HostPort{}, "x"), 0xff)) // trailing junk

	f.Fuzz(func(t *testing.T, body []byte) {
		if id, dst, origin, ok := decodeStreamOpen(body); ok {
			if len(origin) > maxOriginLen {
				t.Fatalf("accepted %d-byte origin", len(origin))
			}
			if re := encodeStreamOpen(id, dst, origin); !bytes.Equal(re, body) {
				t.Fatalf("accepted open is not canonical: %x re-encodes to %x", body, re)
			}
		}
		if id, payload, ok := streamID(body); ok {
			if len(payload) != len(body)-4 {
				t.Fatalf("payload length %d from %d-byte body", len(payload), len(body))
			}
			_ = id
		} else if len(body) >= 4 {
			t.Fatalf("rejected a %d-byte id prefix", len(body))
		}
	})
}
