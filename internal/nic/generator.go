package nic

import (
	"encoding/binary"

	"atmosphere/internal/hw"
	"atmosphere/internal/netproto"
)

// Generator is the Pktgen substitute (§6.5.1): a deterministic source of
// 64-byte UDP frames at line rate, with configurable flow diversity so
// Maglev and the kv-store see realistic five-tuple distributions.
type Generator struct {
	rand  *hw.Rand
	flows int
	size  int
	// payload, when set, overrides the zero payload (kv-store requests).
	payloadFn func(i uint64, buf []byte) int

	count uint64
	frame []byte

	// lastErr keeps the most recent frame-build failure for
	// diagnostics instead of panicking the driver process.
	lastErr error
}

// NewGenerator builds a generator with the given flow count and frame
// size (64 for the §6.5.1 tests; sizes below the minimum are padded).
func NewGenerator(seed uint64, flows, size int) *Generator {
	if flows < 1 {
		flows = 1
	}
	if size < netproto.MinFrameLen {
		size = netproto.MinFrameLen
	}
	return &Generator{rand: hw.NewRand(seed), flows: flows, size: size, frame: make([]byte, 2048)}
}

// SetPayload installs a payload builder invoked per packet.
func (g *Generator) SetPayload(fn func(i uint64, buf []byte) int) { g.payloadFn = fn }

// Count returns the number of frames generated.
func (g *Generator) Count() uint64 { return g.count }

// Err returns the most recent build failure, if any.
func (g *Generator) Err() error { return g.lastErr }

// Next produces the next frame. The returned slice is reused across
// calls; the device model copies it into the DMA buffer immediately.
func (g *Generator) Next() []byte {
	flow := uint32(g.count % uint64(g.flows))
	g.count++
	srcIP := netproto.IPv4{10, 0, byte(flow >> 8), byte(flow)}
	dstIP := netproto.IPv4{192, 168, 1, 1}
	var payload []byte
	if g.payloadFn != nil {
		n := g.payloadFn(g.count-1, g.frame[128:])
		payload = g.frame[128 : 128+n]
	} else {
		payload = g.frame[128:138]
		binary.LittleEndian.PutUint64(payload, g.count-1)
	}
	n, err := netproto.BuildUDP(g.frame[:128],
		netproto.MAC{2, 0, 0, 0, 0, 1}, netproto.MAC{2, 0, 0, 0, 0, 2},
		srcIP, dstIP, uint16(9000+flow%64), 53, payload)
	if err != nil {
		// A malformed frame must not take the driver process down: nil
		// tells the device to stop the burst and count the error.
		g.lastErr = err
		return nil
	}
	if n < g.size {
		n = g.size // pad to the configured frame size
	}
	return g.frame[:n]
}
