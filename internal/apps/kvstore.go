package apps

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"atmosphere/internal/hw"
	"atmosphere/internal/netproto"
)

// KVStore is the network-attached key-value store of §6.6: an open
// addressing hash table with linear probing and the FNV hash function,
// serving GET/SET requests carried in UDP payloads (the
// memcached-compatible binary shape, simplified).
type KVStore struct {
	keySize, valSize int
	capacity         uint64
	// slots: 1-byte occupancy + key + value, in one flat array for
	// cache-behaviour fidelity.
	slots    []byte
	slotSize int
	used     uint64

	// bigTable marks tables whose working set exceeds the LLC; probes
	// then charge miss-level costs.
	bigTable bool

	Gets, Sets, Hits, Misses uint64
}

// Request opcodes on the wire.
const (
	KVGet = 1
	KVSet = 2
)

// NewKVStore builds a store with the given entry count and fixed
// key/value sizes (the paper evaluates 1M and 8M entries with 8/16/32
// byte keys and values).
func NewKVStore(capacity uint64, keySize, valSize int) (*KVStore, error) {
	if capacity == 0 || keySize <= 0 || valSize <= 0 {
		return nil, fmt.Errorf("apps: bad kv store shape")
	}
	slotSize := 1 + keySize + valSize
	s := &KVStore{
		keySize: keySize, valSize: valSize, capacity: capacity,
		slots: make([]byte, capacity*uint64(slotSize)), slotSize: slotSize,
		// A 1M-entry table of small items is ~tens of MB: past LLC
		// already, but an 8M table misses essentially always.
		bigTable: capacity > 4_000_000,
	}
	return s, nil
}

func (s *KVStore) hash(key []byte) uint64 {
	h := fnv.New64a()
	h.Write(key)
	return h.Sum64() % s.capacity
}

func (s *KVStore) slot(i uint64) []byte {
	off := i * uint64(s.slotSize)
	return s.slots[off : off+uint64(s.slotSize)]
}

func keyEqual(a, b []byte) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// probeCost charges one probe's memory behaviour.
func (s *KVStore) probeCost(clk *hw.Clock) {
	if clk == nil {
		return
	}
	if s.bigTable {
		clk.Charge(hw.CostCacheMiss)
	} else {
		clk.Charge(hw.CostCacheMiss / 2) // partially cached working set
	}
}

// Set inserts or updates a key. Returns false when the table is full.
func (s *KVStore) Set(clk *hw.Clock, key, val []byte) bool {
	if len(key) != s.keySize || len(val) != s.valSize {
		return false
	}
	s.Sets++
	i := s.hash(key)
	for probes := uint64(0); probes < s.capacity; probes++ {
		sl := s.slot(i)
		s.probeCost(clk)
		if sl[0] == 0 {
			sl[0] = 1
			copy(sl[1:1+s.keySize], key)
			copy(sl[1+s.keySize:], val)
			s.used++
			return true
		}
		if keyEqual(sl[1:1+s.keySize], key) {
			copy(sl[1+s.keySize:], val)
			return true
		}
		i = (i + 1) % s.capacity
	}
	return false
}

// Get looks a key up; the returned slice aliases the table.
func (s *KVStore) Get(clk *hw.Clock, key []byte) ([]byte, bool) {
	if len(key) != s.keySize {
		return nil, false
	}
	s.Gets++
	i := s.hash(key)
	for probes := uint64(0); probes < s.capacity; probes++ {
		sl := s.slot(i)
		s.probeCost(clk)
		if sl[0] == 0 {
			s.Misses++
			return nil, false
		}
		if keyEqual(sl[1:1+s.keySize], key) {
			s.Hits++
			return sl[1+s.keySize:], true
		}
		i = (i + 1) % s.capacity
	}
	s.Misses++
	return nil, false
}

// Used returns the number of live entries.
func (s *KVStore) Used() uint64 { return s.used }

// Reset empties the store in place: every slot and counter reads as in
// a fresh NewKVStore of the same shape, and nothing is allocated or
// charged.
func (s *KVStore) Reset() {
	clear(s.slots)
	s.used = 0
	s.Gets, s.Sets, s.Hits, s.Misses = 0, 0, 0, 0
}

// --- wire protocol -----------------------------------------------------------

// BuildKVRequest writes "op klen key [vlen value]" into buf.
func BuildKVRequest(buf []byte, op byte, key, val []byte) (int, error) {
	n := 3 + len(key)
	if op == KVSet {
		n += 2 + len(val)
	}
	if len(buf) < n {
		return 0, netproto.ErrTooShort
	}
	buf[0] = op
	binary.LittleEndian.PutUint16(buf[1:3], uint16(len(key)))
	copy(buf[3:], key)
	if op == KVSet {
		binary.LittleEndian.PutUint16(buf[3+len(key):], uint16(len(val)))
		copy(buf[5+len(key):], val)
	}
	return n, nil
}

// ServeCycles is the per-request protocol overhead on top of the table
// probes: parse, response header, UDP rewrite for the reply.
const ServeCycles = 72

// Serve handles one request frame in place and reports whether a reply
// should be transmitted. Replies overwrite the request payload: status
// byte then the value for hits.
func (s *KVStore) Serve(clk *hw.Clock, frame []byte) bool {
	clk.Charge(ServeCycles)
	p, err := netproto.ParseUDP(frame)
	if err != nil {
		return false
	}
	return s.servePayload(clk, p.Payload)
}

// ServePayload handles one request payload in place — the entry point
// for callers that have already parsed the frame and stripped any
// transport prefix (the cluster's distributed-trace header travels
// ahead of the kv request, so its backends serve the sub-slice after
// it). Charges the same ServeCycles protocol overhead as Serve.
func (s *KVStore) ServePayload(clk *hw.Clock, payload []byte) bool {
	clk.Charge(ServeCycles)
	return s.servePayload(clk, payload)
}

func (s *KVStore) servePayload(clk *hw.Clock, payload []byte) bool {
	if len(payload) < 3 {
		return false
	}
	op := payload[0]
	klen := int(binary.LittleEndian.Uint16(payload[1:3]))
	if len(payload) < 3+klen {
		return false
	}
	key := payload[3 : 3+klen]
	switch op {
	case KVGet:
		val, okk := s.Get(clk, key)
		if okk {
			payload[0] = 1
			copy(payload[1:], val)
		} else {
			payload[0] = 0
		}
		return true
	case KVSet:
		rest := payload[3+klen:]
		if len(rest) < 2 {
			return false
		}
		vlen := int(binary.LittleEndian.Uint16(rest[:2]))
		if len(rest) < 2+vlen {
			return false
		}
		okk := s.Set(clk, key, rest[2:2+vlen])
		if okk {
			payload[0] = 1
		} else {
			payload[0] = 0
		}
		return true
	}
	return false
}
