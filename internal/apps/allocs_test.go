//go:build !race

package apps

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"atmosphere/internal/hw"
)

// kvScript serves n scripted requests to s on a fresh clock, a third of
// them SETs, over 96 keys: more than a 64-entry store holds, so probe
// chains, misses and refused SETs all occur. It returns every reply
// payload and the cycles charged.
func kvScript(t *testing.T, s *KVStore, seed uint64, n int) ([][]byte, uint64) {
	t.Helper()
	r := hw.NewRand(seed)
	clk := &hw.Clock{}
	var replies [][]byte
	var key, val [8]byte
	var buf [64]byte
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(key[:], r.Uint64n(96))
		binary.LittleEndian.PutUint64(val[:], r.Uint64())
		op := byte(KVGet)
		if r.Intn(3) == 0 {
			op = KVSet
		}
		m, err := BuildKVRequest(buf[:], op, key[:], val[:])
		if err != nil {
			t.Fatal(err)
		}
		if !s.ServePayload(clk, buf[:m]) {
			t.Fatalf("request %d rejected", i)
		}
		replies = append(replies, bytes.Clone(buf[:m]))
	}
	return replies, clk.Cycles()
}

func kvCounters(s *KVStore) [5]uint64 {
	return [5]uint64{s.Used(), s.Gets, s.Sets, s.Hits, s.Misses}
}

// TestKVStoreResetMatchesFresh: a filled store emptied by Reset serves
// one scripted sequence exactly as a fresh store of its shape does —
// the same replies, entry count, counters and charged cycles — and the
// reset allocates nothing.
func TestKVStoreResetMatchesFresh(t *testing.T) {
	reset, err := NewKVStore(64, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	kvScript(t, reset, 1, 400)
	if reset.Used() != 64 || reset.Hits == 0 {
		t.Fatalf("fill left used=%d hits=%d, want a full store that hit", reset.Used(), reset.Hits)
	}
	if n := testing.AllocsPerRun(10, reset.Reset); n != 0 {
		t.Fatalf("Reset allocates %.2f times, want 0", n)
	}
	fresh, err := NewKVStore(64, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, gotCycles := kvScript(t, reset, 2, 400)
	want, wantCycles := kvScript(t, fresh, 2, 400)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("request %d: reset store replied %x, fresh %x", i, got[i], want[i])
		}
	}
	if gotCycles != wantCycles {
		t.Fatalf("reset store charged %d cycles, fresh %d", gotCycles, wantCycles)
	}
	if g, w := kvCounters(reset), kvCounters(fresh); g != w {
		t.Fatalf("used, gets, sets, hits, misses: reset %v, fresh %v", g, w)
	}
}

// TestMaglevChurnAllocatesNothing: permutations are computed when a
// backend is added, so on a warm table an eviction and reinstatement
// refill the table in place and restore it exactly.
func TestMaglevChurnAllocatesNothing(t *testing.T) {
	names, addrs := backends(4)
	m, err := NewMaglev(names, addrs, 4093)
	if err != nil {
		t.Fatal(err)
	}
	before := m.TableSnapshot()
	churn := func() {
		if err := m.RemoveBackend(names[1]); err != nil {
			t.Fatal(err)
		}
		if err := m.AddBackend(names[1], addrs[1]); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, churn); n != 0 {
		t.Fatalf("RemoveBackend+AddBackend allocates %.2f times, want 0", n)
	}
	if !slices.Equal(m.TableSnapshot(), before) {
		t.Fatal("churn did not restore the table")
	}
}
