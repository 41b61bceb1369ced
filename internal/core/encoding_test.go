package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHeaderMarshalRoundTrip(t *testing.T) {
	h := OuterHeader{
		Fmt: fmt4DWData, Type: FinePackType, TrafficClass: 5,
		Digest: true, Poisoned: false, Attr: 2, LengthDW: 1024,
		RequesterID: 0xBEEF, Tag: 0x5A, LastBE: 0b0111, FirstBE: 0,
		Address: 0x1234_5678_9ABC & ^uint64(3),
	}
	raw, err := h.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalHeader(raw[:])
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, h)
	}
	if !got.IsFinePack() {
		t.Fatal("type lost")
	}
}

func TestHeaderMarshalRejects(t *testing.T) {
	if _, err := (OuterHeader{LengthDW: 0, Address: 0}).Marshal(); err == nil {
		t.Fatal("zero length accepted")
	}
	if _, err := (OuterHeader{LengthDW: 1025, Address: 0}).Marshal(); err == nil {
		t.Fatal("over-length accepted")
	}
	if _, err := (OuterHeader{LengthDW: 1, Address: 2}).Marshal(); err == nil {
		t.Fatal("misaligned address accepted")
	}
	if _, err := (OuterHeader{LengthDW: 1, Address: 1 << 62}).Marshal(); err == nil {
		t.Fatal("oversized address accepted")
	}
	if _, err := UnmarshalHeader(make([]byte, 8)); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestLengthFieldEncoding(t *testing.T) {
	// PCIe convention: 1024 DW encodes as 0.
	f, err := encodeLengthDW(1024)
	if err != nil || f != 0 {
		t.Fatalf("encode(1024) = %d, %v", f, err)
	}
	if decodeLengthDW(0) != 1024 {
		t.Fatal("decode(0) must be 1024")
	}
	if decodeLengthDW(7) != 7 {
		t.Fatal("decode(7)")
	}
}

func TestSubheaderRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	for _, c := range []struct {
		offset uint64
		length int
	}{
		{0, 1}, {63, 8}, {1<<30 - 1, 128}, {12345, 1024},
	} {
		b, err := appendSubheader(nil, cfg, c.offset, c.length)
		if err != nil {
			t.Fatalf("encode(%d,%d): %v", c.offset, c.length, err)
		}
		if len(b) != cfg.SubheaderBytes {
			t.Fatalf("sub-header is %d bytes", len(b))
		}
		off, l, err := decodeSubheader(cfg, b)
		if err != nil || off != c.offset || l != c.length {
			t.Fatalf("decode = (%d,%d,%v), want (%d,%d)", off, l, err, c.offset, c.length)
		}
	}
}

func TestSubheaderRejects(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := appendSubheader(nil, cfg, 0, 0); err == nil {
		t.Fatal("zero length accepted")
	}
	if _, err := appendSubheader(nil, cfg, 0, 1025); err == nil {
		t.Fatal("over length accepted")
	}
	if _, err := appendSubheader(nil, cfg, cfg.AddressableRange(), 8); err == nil {
		t.Fatal("offset overflow accepted")
	}
	if _, _, err := decodeSubheader(cfg, []byte{1}); err == nil {
		t.Fatal("short sub-header accepted")
	}
}

// TestEncodeDecodeFinePackPacket: queue → encode → decode reproduces the
// packet contents exactly.
func TestEncodeDecodeFinePackPacket(t *testing.T) {
	cfg := DefaultConfig()
	var pkts []*Packet
	q, err := NewQueue(cfg, func(p *Packet) { pkts = append(pkts, p) })
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		size := 1 + rng.Intn(32)
		data := make([]byte, size)
		rng.Read(data)
		mustWrite(t, q, Store{Dst: 2, Addr: uint64(rng.Intn(1 << 16)), Size: size, Data: data})
	}
	q.FlushAll(CauseRelease)
	if len(pkts) == 0 {
		t.Fatal("no packets")
	}
	for _, p := range pkts {
		wire, err := EncodePacket(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(wire) != HeaderBytes+pcieDWPad(p.PayloadBytes) {
			t.Fatalf("wire length %d for payload %d", len(wire), p.PayloadBytes)
		}
		got, err := DecodePacket(cfg, wire)
		if err != nil {
			t.Fatal(err)
		}
		if got.Plain != p.Plain || got.BaseAddr != p.BaseAddr || got.Dst != p.Dst {
			t.Fatalf("header mismatch: %+v vs %+v", got, p)
		}
		if len(got.Subs) != len(p.Subs) {
			t.Fatalf("subs: %d vs %d", len(got.Subs), len(p.Subs))
		}
		for i := range p.Subs {
			if got.Subs[i].Offset != p.Subs[i].Offset ||
				!bytes.Equal(got.Subs[i].Data, p.Subs[i].Data) {
				t.Fatalf("sub %d mismatch", i)
			}
		}
	}
}

// TestEncodeDecodePlainPacket covers the standard memory-write path with
// every byte alignment.
func TestEncodeDecodePlainPacket(t *testing.T) {
	cfg := DefaultConfig()
	for addrOff := uint64(0); addrOff < 4; addrOff++ {
		for size := 1; size <= 9; size++ {
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(7*i + int(addrOff) + 1)
			}
			p := NewPlainPacket(cfg, 3, 0x1000+addrOff, data)
			wire, err := EncodePacket(cfg, p)
			if err != nil {
				t.Fatalf("addr+%d size %d: %v", addrOff, size, err)
			}
			got, err := DecodePacket(cfg, wire)
			if err != nil {
				t.Fatalf("addr+%d size %d: %v", addrOff, size, err)
			}
			if !got.Plain || got.BaseAddr != 0x1000+addrOff {
				t.Fatalf("addr+%d size %d: decoded %+v", addrOff, size, got)
			}
			if !bytes.Equal(got.Subs[0].Data, data) {
				t.Fatalf("addr+%d size %d: data % x vs % x",
					addrOff, size, got.Subs[0].Data, data)
			}
		}
	}
}

// TestDecodeRobustness: corrupted wire bytes produce errors, not panics or
// bogus packets that fail validation.
func TestDecodeRobustness(t *testing.T) {
	cfg := DefaultConfig()
	p := NewPlainPacket(cfg, 1, 0x2000, []byte{1, 2, 3, 4})
	wire, err := EncodePacket(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations.
	for cut := 0; cut < len(wire); cut++ {
		if _, err := DecodePacket(cfg, wire[:cut]); err == nil {
			t.Fatalf("truncation to %d accepted", cut)
		}
	}
	// Single-byte corruptions must either error or decode to a packet
	// that still validates (bit flips in data bytes are undetectable
	// without the link-layer CRC, which is out of scope here).
	for i := range wire {
		for _, flip := range []byte{0x01, 0x80, 0xFF} {
			mut := append([]byte(nil), wire...)
			mut[i] ^= flip
			got, err := DecodePacket(cfg, mut)
			if err != nil {
				continue
			}
			if err := ValidatePacket(cfg, got); err != nil {
				t.Fatalf("byte %d flip %#x: decoded invalid packet: %v", i, flip, err)
			}
		}
	}
}

// TestDecodeRandomGarbage: arbitrary bytes never panic.
func TestDecodeRandomGarbage(t *testing.T) {
	cfg := DefaultConfig()
	f := func(raw []byte) bool {
		p, err := DecodePacket(cfg, raw)
		if err != nil {
			return true
		}
		return ValidatePacket(cfg, p) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodingAcrossSubheaderSizes: the codec works for every Table II
// configuration.
func TestEncodingAcrossSubheaderSizes(t *testing.T) {
	for shb := 2; shb <= 6; shb++ {
		cfg := DefaultConfig()
		cfg.SubheaderBytes = shb
		p := &Packet{
			Dst:      1,
			BaseAddr: cfg.WindowBase(0x40),
			Subs: []SubPacket{
				{Offset: 0, Data: []byte{1, 2, 3}},
				{Offset: 33, Data: []byte{4}},
			},
		}
		p.finalize(cfg)
		wire, err := EncodePacket(cfg, p)
		if err != nil {
			t.Fatalf("shb %d: %v", shb, err)
		}
		got, err := DecodePacket(cfg, wire)
		if err != nil {
			t.Fatalf("shb %d: %v", shb, err)
		}
		if len(got.Subs) != 2 || got.Subs[1].Offset != 33 {
			t.Fatalf("shb %d: %+v", shb, got.Subs)
		}
	}
}

func TestBEHelpers(t *testing.T) {
	if beMask(0, 4) != 0xF || beMask(1, 3) != 0b0110 || beMask(2, 2) != 0 {
		t.Fatal("beMask")
	}
	if firstEnabled(0) != -1 || firstEnabled(0b0100) != 2 {
		t.Fatal("firstEnabled")
	}
	if lastEnabled(0) != -1 || lastEnabled(0b0110) != 2 {
		t.Fatal("lastEnabled")
	}
}

// pcieDWPad mirrors pcie.PadToDW without importing it into the test's
// hot path assertions.
func pcieDWPad(n int) int { return (n + 3) / 4 * 4 }
