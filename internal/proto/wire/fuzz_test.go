package wire

import "testing"

// header is the codec every wire header implements.
type header interface {
	Marshal(b []byte)
	Unmarshal(b []byte) error
}

// FuzzHeaders feeds arbitrary bytes to every header parser on the receive
// path — Datalink, Nectar, IPv4, UDP, TCP and ICMP. No input may panic a
// parser, and whatever a parser accepts must survive Marshal -> Unmarshal
// unchanged. Seeds are the encodings wire_test.go checks by hand.
func FuzzHeaders(f *testing.F) {
	marshal := func(h header, size int) []byte {
		b := make([]byte, size)
		h.Marshal(b)
		return b
	}
	f.Add([]byte{})
	f.Add(make([]byte, 3))                 // truncated datalink header
	f.Add(make([]byte, DatalinkHeaderLen)) // bad frame magic
	f.Add(append([]byte{0x46}, make([]byte, 23)...))
	f.Add(marshal(&DatalinkHeader{Type: TypeRMP, Len: 1024, Src: 1, Dst: 2}, DatalinkHeaderLen))
	f.Add(marshal(&NectarHeader{DstBox: 3, SrcBox: 12, Seq: 99, Flags: FlagData, Window: 4, Len: 1024}, NectarHeaderLen))
	f.Add(marshal(&IPv4Header{TotalLen: 40, ID: 7, TTL: 16, Protocol: ProtoTCP,
		Src: IPAddr(10, 9, 0, 1), Dst: IPAddr(10, 9, 0, 2)}, IPv4HeaderLen))
	f.Add(marshal(&IPv4Header{TotalLen: 1500, Flags: IPFlagMF, FragOff: 185, TTL: 1, Protocol: ProtoUDP}, IPv4HeaderLen))
	f.Add(marshal(&UDPHeader{SrcPort: 7, DstPort: 9, Len: 11}, UDPHeaderLen))
	f.Add(marshal(&TCPHeader{SrcPort: 1234, DstPort: 80, Seq: 99, Ack: 12, Flags: TCPAck, Window: 4096}, TCPHeaderLen))
	f.Add(marshal(&ICMPHeader{Type: ICMPEcho, ID: 7, Seq: 3}, ICMPHeaderLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip[DatalinkHeader](t, data, DatalinkHeaderLen)
		roundTrip[NectarHeader](t, data, NectarHeaderLen)
		roundTrip[IPv4Header](t, data, IPv4HeaderLen)
		roundTrip[UDPHeader](t, data, UDPHeaderLen)
		roundTrip[TCPHeader](t, data, TCPHeaderLen)
		roundTrip[ICMPHeader](t, data, ICMPHeaderLen)
	})
}

// roundTrip parses data as an H and, if the parser accepts it, checks that
// marshaling the result into size bytes parses back to the same header.
// IPv4's Marshal recomputes the header checksum into the struct before
// the comparison, so only the fields the encoding carries must agree.
func roundTrip[H comparable, P interface {
	*H
	header
}](t *testing.T, data []byte, size int) {
	t.Helper()
	var h H
	if P(&h).Unmarshal(data) != nil {
		return
	}
	b := make([]byte, size)
	P(&h).Marshal(b)
	var g H
	if err := P(&g).Unmarshal(b); err != nil {
		t.Fatalf("%T: re-parse of its own encoding % x failed: %v (input % x)", h, b, err, data)
	}
	if g != h {
		t.Fatalf("%T: round trip changed the header: %+v -> %+v (input % x)", h, h, g, data)
	}
}
