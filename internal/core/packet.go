package core

import "fmt"

// SubPacket is one compressed store inside a FinePack outer transaction:
// an address offset relative to the outer packet's base address, and the
// payload bytes. Its wire cost is len(Data) plus one sub-header
// (Config.SubheaderBytes), which encodes the offset and the 10-bit length.
type SubPacket struct {
	Offset uint64
	Data   []byte
}

// Packet is one transaction handed to the interconnect. For FinePack
// packets (Plain == false) the payload is a sequence of sub-packets sharing
// the outer TLP header, whose address field carries the window base
// (Table I). Plain packets are ordinary PCIe memory writes: the fallback
// for stores FinePack cannot represent, for baseline paradigms, and for
// uncoalesced atomics.
type Packet struct {
	// Dst is the destination GPU.
	Dst int
	// BaseAddr is the outer TLP address field: the window base for
	// FinePack packets, the store address for plain packets.
	BaseAddr uint64
	// Subs holds the packed stores. Plain packets have exactly one
	// sub-packet at offset 0.
	Subs []SubPacket
	// Plain marks an ordinary (non-FinePack) memory-write TLP.
	Plain bool
	// StoresMerged counts how many incoming stores were aggregated into
	// this packet (Fig 11's metric). Plain fallback packets count the
	// stores whose bytes they carry, attributed at flush time.
	StoresMerged int
	// Cause records why the packet was flushed out of the queue.
	Cause FlushCause
	// PayloadBytes and WireBytes are filled by the packetizer.
	PayloadBytes int
	WireBytes    int
}

// DataBytes returns the total store payload carried (excluding
// sub-headers).
func (p *Packet) DataBytes() int {
	n := 0
	for _, s := range p.Subs {
		n += len(s.Data)
	}
	return n
}

// FlushCause explains why a partition was flushed (§IV-B).
type FlushCause int

const (
	// CauseNone marks packets not produced by a queue flush.
	CauseNone FlushCause = iota
	// CauseWindowMiss: an incoming store fell outside the open window.
	CauseWindowMiss
	// CausePayloadFull: the store would overflow the max payload.
	CausePayloadFull
	// CauseEntriesFull: the partition had no free 128B entry.
	CauseEntriesFull
	// CauseRelease: a system-scoped release (fence / kernel end).
	CauseRelease
	// CauseLoadConflict: a remote load hit a queued store address.
	CauseLoadConflict
	// CauseAtomic: a remote atomic flushed its matching line.
	CauseAtomic
	// CauseTimeout: an inactivity timeout flushed the queue (§IV-B's
	// optional latency mitigation, not enabled in the paper's
	// evaluation).
	CauseTimeout
	// CauseDrain: end-of-simulation drain.
	CauseDrain
	numCauses
)

var causeNames = [numCauses]string{
	"none", "window-miss", "payload-full", "entries-full",
	"release", "load-conflict", "atomic", "timeout", "drain",
}

func (c FlushCause) String() string {
	if c < 0 || c >= numCauses {
		return fmt.Sprintf("cause(%d)", int(c)) //finepack:allow hotalloc -- out-of-range causes only; every real cause hits the static name table
	}
	return causeNames[c]
}

// NumFlushCauses is the number of distinct causes, for stats arrays.
const NumFlushCauses = int(numCauses)

// finalize computes payload and wire bytes for a packet under cfg.
func (p *Packet) finalize(cfg Config) {
	if p.Plain {
		p.PayloadBytes = p.DataBytes()
		p.WireBytes = cfg.TLP.WireBytes(p.PayloadBytes)
		return
	}
	payload := 0
	for _, s := range p.Subs {
		payload += cfg.SubheaderBytes + len(s.Data)
	}
	p.PayloadBytes = payload
	p.WireBytes = cfg.TLP.WireBytes(payload)
}

// SubheaderOverhead returns the bytes spent on sub-headers in the packet.
func (p *Packet) SubheaderOverhead(cfg Config) int {
	if p.Plain {
		return 0
	}
	return len(p.Subs) * cfg.SubheaderBytes
}

// NewPlainPacket builds an ordinary memory-write packet carrying data to
// dst at addr, with wire accounting under cfg. The packet and its single
// sub-packet are one allocation.
func NewPlainPacket(cfg Config, dst int, addr uint64, data []byte) *Packet {
	pp := &plainPacket{
		Packet: Packet{
			Dst:          dst,
			BaseAddr:     addr,
			Plain:        true,
			StoresMerged: 1,
		},
		sub: [1]SubPacket{{Offset: 0, Data: data}},
	}
	pp.Subs = pp.sub[:]
	pp.finalize(cfg)
	return &pp.Packet
}

// plainPacket co-allocates a plain packet with the backing array of its
// one-element Subs.
type plainPacket struct {
	Packet
	sub [1]SubPacket
}

// Depacketize reverses the packetizer: it expands a packet into the
// individual store transactions the destination GPU's memory system
// consumes, adding each sub-packet's offset to the outer base address
// (§IV-B, de-packetizer). The returned stores reference the packet's data
// slices; callers must not mutate them.
func Depacketize(p *Packet) []Store {
	return DepacketizeAppend(make([]Store, 0, len(p.Subs)), p)
}

// DepacketizeAppend is Depacketize into a caller-provided slice, so hot
// ingress paths can reuse one scratch buffer across packets instead of
// allocating per packet.
func DepacketizeAppend(out []Store, p *Packet) []Store {
	for _, s := range p.Subs {
		out = append(out, Store{
			Dst:  p.Dst,
			Addr: p.BaseAddr + s.Offset,
			Size: len(s.Data),
			Data: s.Data,
		})
	}
	return out
}

// ValidatePacket checks structural invariants the wire format requires:
// offsets fit the sub-header's offset field, lengths fit ten bits, and the
// payload respects the configured maximum.
func ValidatePacket(cfg Config, p *Packet) error {
	if p.Plain {
		if len(p.Subs) != 1 || p.Subs[0].Offset != 0 {
			return fmt.Errorf("core: plain packet must have one sub at offset 0")
		}
		return nil
	}
	if len(p.Subs) == 0 {
		return fmt.Errorf("core: empty FinePack packet")
	}
	maxLen := 1 << LengthFieldBits
	for i, s := range p.Subs {
		if s.Offset >= cfg.AddressableRange() {
			return fmt.Errorf("core: sub %d offset %d exceeds %d-bit field",
				i, s.Offset, cfg.OffsetBits())
		}
		if len(s.Data) == 0 || len(s.Data) > maxLen {
			return fmt.Errorf("core: sub %d length %d outside (0,%d]",
				i, len(s.Data), maxLen)
		}
	}
	if p.PayloadBytes > cfg.MaxPayload {
		return fmt.Errorf("core: payload %d exceeds max %d", p.PayloadBytes, cfg.MaxPayload)
	}
	return nil
}
