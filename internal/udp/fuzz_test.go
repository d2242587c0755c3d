package udp

import (
	"bytes"
	"testing"

	"repro/internal/inet"
)

// FuzzUDPUnmarshal checks the datagram codec: no panic on any bytes and
// addresses, the payload is a slice of the input, and anything unmarshal
// accepts round-trips through Datagram.marshal unchanged.
func FuzzUDPUnmarshal(f *testing.F) {
	src, dst := inet.MustParseAddr("10.0.0.3"), inet.MustParseAddr("10.0.0.1")
	d := Datagram{SrcPort: 40000, DstPort: 4790, Payload: []byte("sealed record")}
	f.Add(src.Uint32(), dst.Uint32(), d.marshal(src, dst))
	f.Add(src.Uint32(), dst.Uint32(), []byte{0x9c, 0x40, 0x12, 0xb6, 0, 8, 0, 0})
	f.Add(uint32(0), uint32(0), []byte{0, 1, 0, 2, 0, 9, 0xff, 0xff, 'x', 'y'})
	f.Fuzz(func(t *testing.T, s, d uint32, b []byte) {
		src, dst := inet.AddrFromUint32(s), inet.AddrFromUint32(d)
		got, err := unmarshal(src, dst, b)
		if err != nil {
			return
		}
		if len(b) < HeaderLen+len(got.Payload) || !bytes.Equal(b[HeaderLen:HeaderLen+len(got.Payload)], got.Payload) {
			t.Fatalf("payload %q is not the bytes after the header", got.Payload)
		}
		again, err := unmarshal(src, dst, got.marshal(src, dst))
		if err != nil {
			t.Fatalf("re-decode of marshalled datagram: %v", err)
		}
		if again.SrcPort != got.SrcPort || again.DstPort != got.DstPort || !bytes.Equal(again.Payload, got.Payload) {
			t.Fatalf("round trip unstable: %+v -> %+v", got, again)
		}
	})
}
