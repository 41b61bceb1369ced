package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"finepack/internal/pcie"
)

// Binary wire format. EncodePacket/DecodePacket serialize packets into the
// byte layout of Table I: a 4-DW PCIe memory-write TLP header whose fields
// keep their standard meanings, except that FinePack packets repurpose an
// unused Type encoding, carry the window base in the address field, zero
// the First-BE field, and pack (offset, length) sub-headers ahead of each
// store's data inside the payload. This is the format the packetizer would
// hand to the link layer; the simulator's byte accounting (Packet.WireBytes)
// corresponds to these bytes plus framing/sequence/LCRC.

// TLP type encodings (the 5-bit Type field). MWr is the standard posted
// memory write; FinePackType repurposes an encoding PCIe leaves unused
// ("We repurpose an unused encoding in the type field to indicate the new
// FinePack transaction type").
const (
	typeMWr      = 0b00000
	FinePackType = 0b11010
	fmt4DWData   = 0b011 // 4-DW header, with data
)

// HeaderBytes is the encoded outer-header size (4 DW).
const HeaderBytes = 16

// OuterHeader is the decoded 4-DW TLP header (Table I).
type OuterHeader struct {
	Fmt          uint8  // 3 bits
	Type         uint8  // 5 bits
	TrafficClass uint8  // 3 bits
	Digest       bool   // TD
	Poisoned     bool   // EP
	Attr         uint8  // 2 bits
	LengthDW     int    // 10-bit field; 0 encodes 1024
	RequesterID  uint16 // 16 bits
	Tag          uint8  // 8 bits
	LastBE       uint8  // 4 bits
	FirstBE      uint8  // 4 bits
	Address      uint64 // 62 usable bits, DW-aligned (low 2 bits zero)
}

// IsFinePack reports whether the header carries a FinePack transaction.
func (h OuterHeader) IsFinePack() bool { return h.Type == FinePackType }

// encodeLengthDW packs a DW count into the 10-bit length field (1024 → 0,
// per PCIe convention).
func encodeLengthDW(dw int) (uint16, error) {
	if dw < 1 || dw > 1024 {
		return 0, fmt.Errorf("core: payload of %d DW outside [1,1024]", dw)
	}
	return uint16(dw % 1024), nil
}

func decodeLengthDW(field uint16) int {
	if field == 0 {
		return 1024
	}
	return int(field)
}

// Marshal encodes the header into 16 bytes.
func (h OuterHeader) Marshal() ([HeaderBytes]byte, error) {
	var out [HeaderBytes]byte
	lenField, err := encodeLengthDW(h.LengthDW)
	if err != nil {
		return out, err
	}
	if h.Address&3 != 0 {
		return out, fmt.Errorf("core: TLP address %#x not DW aligned", h.Address)
	}
	if h.Address >= 1<<62 {
		return out, fmt.Errorf("core: TLP address %#x exceeds 62 bits", h.Address)
	}
	out[0] = (h.Fmt&0b111)<<5 | (h.Type & 0b11111)
	out[1] = (h.TrafficClass & 0b111) << 4
	var td, ep uint8
	if h.Digest {
		td = 1
	}
	if h.Poisoned {
		ep = 1
	}
	out[2] = td<<7 | ep<<6 | (h.Attr&0b11)<<4 | uint8(lenField>>8)&0b11
	out[3] = uint8(lenField)
	binary.BigEndian.PutUint16(out[4:6], h.RequesterID)
	out[6] = h.Tag
	out[7] = (h.LastBE&0xF)<<4 | (h.FirstBE & 0xF)
	binary.BigEndian.PutUint64(out[8:16], h.Address)
	return out, nil
}

// UnmarshalHeader decodes a 16-byte outer header.
func UnmarshalHeader(b []byte) (OuterHeader, error) {
	var h OuterHeader
	if len(b) < HeaderBytes {
		return h, fmt.Errorf("core: header needs %d bytes, have %d", HeaderBytes, len(b))
	}
	h.Fmt = b[0] >> 5
	h.Type = b[0] & 0b11111
	h.TrafficClass = (b[1] >> 4) & 0b111
	h.Digest = b[2]&(1<<7) != 0
	h.Poisoned = b[2]&(1<<6) != 0
	h.Attr = (b[2] >> 4) & 0b11
	h.LengthDW = decodeLengthDW(uint16(b[2]&0b11)<<8 | uint16(b[3]))
	h.RequesterID = binary.BigEndian.Uint16(b[4:6])
	h.Tag = b[6]
	h.LastBE = b[7] >> 4
	h.FirstBE = b[7] & 0xF
	h.Address = binary.BigEndian.Uint64(b[8:16])
	if h.Address&3 != 0 {
		return h, fmt.Errorf("core: decoded address %#x not DW aligned", h.Address)
	}
	if h.Address >= 1<<62 {
		return h, fmt.Errorf("core: decoded address %#x exceeds the 62-bit field", h.Address)
	}
	return h, nil
}

// appendSubheader appends (offset, length) packed into cfg.SubheaderBytes
// bytes, little-endian: bits [0,10) hold length-1, the rest the address
// offset (Table II: ten bits are reserved for the length field in all
// configurations).
func appendSubheader(dst []byte, cfg Config, offset uint64, length int) ([]byte, error) {
	if length < 1 || length > 1<<LengthFieldBits {
		return nil, fmt.Errorf("core: sub-packet length %d outside [1,%d]", length, 1<<LengthFieldBits)
	}
	if offset >= cfg.AddressableRange() {
		return nil, fmt.Errorf("core: offset %d exceeds %d-bit field", offset, cfg.OffsetBits())
	}
	v := uint64(length-1) | offset<<LengthFieldBits
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return append(dst, buf[:cfg.SubheaderBytes]...), nil
}

// decodeSubheader reverses appendSubheader.
func decodeSubheader(cfg Config, b []byte) (offset uint64, length int, err error) {
	if len(b) < cfg.SubheaderBytes {
		return 0, 0, fmt.Errorf("core: sub-header needs %d bytes, have %d", cfg.SubheaderBytes, len(b))
	}
	var buf [8]byte
	copy(buf[:], b[:cfg.SubheaderBytes])
	v := binary.LittleEndian.Uint64(buf[:])
	length = int(v&(1<<LengthFieldBits-1)) + 1
	offset = v >> LengthFieldBits
	return offset, length, nil
}

// EncodePacket serializes a packet into its on-wire TLP bytes (header +
// DW-padded payload; framing/sequence/LCRC are link-layer and excluded).
// The result is one allocation at its final size.
func EncodePacket(cfg Config, p *Packet) ([]byte, error) {
	if err := ValidatePacket(cfg, p); err != nil {
		return nil, err
	}
	var out []byte
	h := OuterHeader{Fmt: fmt4DWData, RequesterID: uint16(p.Dst)}

	if p.Plain {
		// Standard memory write: DW-aligned address plus first/last
		// byte enables delimit the exact byte range.
		addr := p.BaseAddr
		data := p.Subs[0].Data
		startPad := int(addr & 3)
		h.Type = typeMWr
		h.Address = addr &^ 3
		out = make([]byte, HeaderBytes+pcie.PadToDW(startPad+len(data)))
		copy(out[HeaderBytes+startPad:], data)
		endValid := (startPad+len(data)-1)%4 + 1
		if len(out) == HeaderBytes+4 {
			// Single-DW write: PCIe sets Last BE to zero and First BE
			// covers the valid bytes.
			h.LastBE = 0
			h.FirstBE = beMask(startPad, min(startPad+len(data), 4))
		} else {
			h.FirstBE = beMask(startPad, 4)
			h.LastBE = beMask(0, endValid)
		}
	} else {
		h.Type = FinePackType
		h.Address = p.BaseAddr
		valid := len(p.Subs) * cfg.SubheaderBytes
		for _, s := range p.Subs {
			valid += len(s.Data)
		}
		out = make([]byte, HeaderBytes, HeaderBytes+pcie.PadToDW(valid))
		for _, s := range p.Subs {
			var err error
			if out, err = appendSubheader(out, cfg, s.Offset, len(s.Data)); err != nil {
				return nil, err
			}
			out = append(out, s.Data...)
		}
		out = out[:cap(out)] // DW padding: zeroed by make
		// Table I: "Last BE: set relative to FinePack payload" — it
		// marks the valid bytes of the final DW so the receiver can
		// strip padding. First BE is not needed (0).
		h.FirstBE = 0
		h.LastBE = beMask(0, (valid-1)%4+1)
	}
	h.LengthDW = (len(out) - HeaderBytes) / 4
	hdr, err := h.Marshal()
	if err != nil {
		return nil, err
	}
	copy(out, hdr[:])
	return out, nil
}

// DecodePacket reverses EncodePacket. The destination GPU travels in the
// requester-ID field under this simulator's convention. Every decoded
// sub-packet's Data is a capacity-capped slice of one copy of the payload.
func DecodePacket(cfg Config, wire []byte) (*Packet, error) {
	h, err := UnmarshalHeader(wire)
	if err != nil {
		return nil, err
	}
	payload := wire[HeaderBytes:]
	if len(payload) != h.LengthDW*4 {
		return nil, fmt.Errorf("core: payload is %d bytes, header says %d DW",
			len(payload), h.LengthDW)
	}
	var p *Packet

	switch h.Type {
	case typeMWr:
		start := firstEnabled(h.FirstBE)
		if start < 0 {
			return nil, fmt.Errorf("core: plain write with empty First BE")
		}
		var end int
		if h.LengthDW == 1 {
			end = lastEnabled(h.FirstBE) + 1
		} else {
			if h.LastBE == 0 {
				return nil, fmt.Errorf("core: multi-DW write with empty Last BE")
			}
			end = (h.LengthDW-1)*4 + lastEnabled(h.LastBE) + 1
		}
		if end <= start {
			return nil, fmt.Errorf("core: byte enables delimit empty write")
		}
		p = NewPlainPacket(cfg, int(h.RequesterID), h.Address+uint64(start),
			append([]byte(nil), payload[start:end]...))
	case FinePackType:
		if h.LastBE == 0 {
			return nil, fmt.Errorf("core: FinePack packet with empty Last BE")
		}
		valid := (h.LengthDW-1)*4 + lastEnabled(h.LastBE) + 1
		if valid > len(payload) {
			return nil, fmt.Errorf("core: Last BE claims %d valid bytes of %d", valid, len(payload))
		}
		n, err := countSubs(cfg, payload[:valid])
		if err != nil {
			return nil, err
		}
		data := append([]byte(nil), payload[:valid]...)
		subs := make([]SubPacket, 0, n)
		for pos := 0; pos < valid; {
			offset, length, _ := decodeSubheader(cfg, data[pos:])
			pos += cfg.SubheaderBytes
			subs = append(subs, SubPacket{Offset: offset, Data: data[pos : pos+length : pos+length]})
			pos += length
		}
		p = &Packet{Dst: int(h.RequesterID), BaseAddr: h.Address, Subs: subs, StoresMerged: n}
		p.finalize(cfg)
	default:
		return nil, fmt.Errorf("core: unknown TLP type %#b", h.Type)
	}
	if err := ValidatePacket(cfg, p); err != nil {
		return nil, err
	}
	return p, nil
}

// countSubs walks a FinePack payload's valid bytes sub-header by
// sub-header and returns the sub-packet count, or an error if the
// sub-packets do not tile the payload exactly.
func countSubs(cfg Config, payload []byte) (int, error) {
	n := 0
	for pos := 0; pos < len(payload); n++ {
		if len(payload)-pos < cfg.SubheaderBytes {
			return 0, fmt.Errorf("core: trailing %d bytes cannot hold a sub-header", len(payload)-pos)
		}
		_, length, err := decodeSubheader(cfg, payload[pos:])
		if err != nil {
			return 0, err
		}
		pos += cfg.SubheaderBytes
		if pos+length > len(payload) {
			return 0, fmt.Errorf("core: sub-packet of %dB overruns payload", length)
		}
		pos += length
	}
	return n, nil
}

// beMask builds a 4-bit byte-enable mask with bits [from, to) set.
func beMask(from, to int) uint8 {
	var m uint8
	for i := from; i < to && i < 4; i++ {
		m |= 1 << uint(i)
	}
	return m
}

// firstEnabled returns the lowest set bit index of a BE mask, or -1.
func firstEnabled(be uint8) int {
	if be == 0 {
		return -1
	}
	return bits.TrailingZeros8(be)
}

// lastEnabled returns the highest set bit index of a BE mask, or -1.
func lastEnabled(be uint8) int {
	if be == 0 {
		return -1
	}
	return 7 - bits.LeadingZeros8(be)
}
