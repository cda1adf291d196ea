package netproto

import (
	"encoding/binary"
	"errors"

	"atmosphere/internal/hw"
)

// Distributed-trace context header. When cluster-level tracing is on,
// the client prepends this 16-byte header to the UDP payload ahead of
// the application request; every hop (LB forward, backend serve, LB
// return) increments the hop count and stamps its own span reference so
// the receiving side can link per-machine spans into one causal chain.
// Replies echo the header back to the client. When tracing is off the
// header is simply absent — the wire bytes are identical to an
// untraced build, which is what keeps propagation zero-cost.
//
// Layout (little-endian scalars):
//
//	[0]     magic 0xA7
//	[1]     magic 0x7A
//	[2]     hop count (0 = client send, 1 = LB fwd, 2 = backend, 3 = LB return)
//	[3]     check: FNV-1a over the other 15 bytes, folded to one byte
//	[4:12]  trace ID (one per request attempt)
//	[12:16] parent span ref (the previous hop's span sequence number)
//
// The check byte exists so that a corrupted or truncated header is
// rejected rather than mis-joined to another trace: DecodeTraceHeader
// fails closed on any magic, length, or checksum mismatch.

// TraceHeaderLen is the on-wire size of a trace-context header.
const TraceHeaderLen = 16

// Trace header magic bytes.
const (
	traceMagic0 = 0xA7
	traceMagic1 = 0x7A
)

// Trace header errors.
var (
	ErrNoTraceHeader  = errors.New("netproto: no trace header")
	ErrTraceHeaderSum = errors.New("netproto: trace header checksum mismatch")
)

// TraceHeader is the decoded trace context carried ahead of the
// application payload.
type TraceHeader struct {
	TraceID uint64 // FNV-1a of (seed, flow, request seq, attempt)
	Hop     uint8
	Parent  uint32 // span ref of the hop that last forwarded the frame
}

// traceCheck folds an FNV-1a hash of the 15 non-check header bytes to
// one byte. A single flipped bit anywhere in the header changes it.
func traceCheck(b []byte) byte {
	h := hw.FNVOffset
	for i := 0; i < TraceHeaderLen; i++ {
		if i != 3 {
			h = hw.FNVByte(h, b[i])
		}
	}
	var c byte
	for i := 0; i < 8; i++ {
		c ^= byte(h >> (8 * i))
	}
	return c
}

// EncodeTraceHeader writes h into the first TraceHeaderLen bytes of buf
// and returns TraceHeaderLen. It charges no cycles and is safe to call
// on the hot path; buf too short is the only error.
func EncodeTraceHeader(buf []byte, h TraceHeader) (int, error) {
	if len(buf) < TraceHeaderLen {
		return 0, ErrTooShort
	}
	buf[0] = traceMagic0
	buf[1] = traceMagic1
	buf[2] = h.Hop
	binary.LittleEndian.PutUint64(buf[4:12], h.TraceID)
	binary.LittleEndian.PutUint32(buf[12:16], h.Parent)
	buf[3] = traceCheck(buf)
	return TraceHeaderLen, nil
}

// DecodeTraceHeader parses a trace header off the front of payload and
// returns it with the remaining application bytes. It fails closed:
// truncated buffers and wrong magic return ErrNoTraceHeader, a magic
// match with a bad checksum returns ErrTraceHeaderSum, and in neither
// case is a header value returned that could be mis-joined to another
// trace. Nil and short payloads are safe.
func DecodeTraceHeader(payload []byte) (TraceHeader, []byte, error) {
	if len(payload) < TraceHeaderLen || payload[0] != traceMagic0 || payload[1] != traceMagic1 {
		return TraceHeader{}, nil, ErrNoTraceHeader
	}
	if traceCheck(payload[:TraceHeaderLen]) != payload[3] {
		return TraceHeader{}, nil, ErrTraceHeaderSum
	}
	h := TraceHeader{
		TraceID: binary.LittleEndian.Uint64(payload[4:12]),
		Hop:     payload[2],
		Parent:  binary.LittleEndian.Uint32(payload[12:16]),
	}
	return h, payload[TraceHeaderLen:], nil
}

// UpdateTraceHeader rewrites the hop count and parent span ref of a
// valid in-place header (what a forwarding hop does) and fixes the
// check byte. The trace ID is never rewritten — identity is stamped
// once, at the client.
func UpdateTraceHeader(payload []byte, hop uint8, parent uint32) error {
	if len(payload) < TraceHeaderLen || payload[0] != traceMagic0 || payload[1] != traceMagic1 {
		return ErrNoTraceHeader
	}
	payload[2] = hop
	binary.LittleEndian.PutUint32(payload[12:16], parent)
	payload[3] = traceCheck(payload[:TraceHeaderLen])
	return nil
}

// TraceID derives an attempt's trace ID: FNV-1a over (seed, flow,
// request sequence number, attempt). Including the per-flow request
// sequence keeps IDs unique across a flow's successive requests, so a
// straggler reply from a finished request can never be mis-joined to
// the flow's next one.
func TraceID(seed uint64, flow int, seq uint64, attempt int) uint64 {
	return hw.FNV(hw.FNVOffset, seed, uint64(flow), seq, uint64(attempt))
}
