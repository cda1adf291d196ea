package apps

import (
	"fmt"
	"testing"

	"atmosphere/internal/netproto"
)

func testMaglev(t *testing.T, n int, tableSize uint64) *Maglev {
	t.Helper()
	var names []string
	var addrs []netproto.IPv4
	for i := 0; i < n; i++ {
		names = append(names, fmt.Sprintf("backend-%02d", i))
		addrs = append(addrs, netproto.IPv4{172, 16, 0, byte(i + 1)})
	}
	m, err := NewMaglev(names, addrs, tableSize)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMaglevRemoveMinimalDisruption is the Maglev paper's consistency
// claim as a property test against the RemoveBackend path: removing 1
// of B backends moves only the dead backend's own positions; the
// fraction of positions that change owner among survivors stays under
// the ~1% balance bound. Adding it back restores the exact original
// table (permutations are per-name).
func TestMaglevRemoveMinimalDisruption(t *testing.T) {
	for _, backends := range []int{4, 8, 16} {
		m := testMaglev(t, backends, DefaultTableSize)
		before := m.TableSnapshot()

		const victim = 1
		name := fmt.Sprintf("backend-%02d", victim)
		if err := m.RemoveBackend(name); err != nil {
			t.Fatal(err)
		}
		after := m.TableSnapshot()

		moved := 0 // positions a *surviving* backend lost
		victimPositions := 0
		for i := range before {
			if before[i] == victim {
				victimPositions++
				continue
			}
			if after[i] != before[i] {
				moved++
			}
		}
		if victimPositions == 0 {
			t.Fatalf("%d backends: victim owned no positions", backends)
		}
		frac := float64(moved) / float64(len(before))
		if frac > 0.01 {
			t.Fatalf("%d backends: %.3f%% of surviving positions changed owner (want <1%%)",
				backends, 100*frac)
		}

		// Reinstating the backend restores the original table exactly.
		if err := m.AddBackend(name, netproto.IPv4{172, 16, 0, victim + 1}); err != nil {
			t.Fatal(err)
		}
		restored := m.TableSnapshot()
		for i := range before {
			if restored[i] != before[i] {
				t.Fatalf("%d backends: position %d not restored (%d vs %d)",
					backends, i, restored[i], before[i])
			}
		}
	}
}

func TestMaglevAddRemoveErrors(t *testing.T) {
	m := testMaglev(t, 4, 251)
	if err := m.RemoveBackend("nope"); err == nil {
		t.Fatal("removing an unknown backend succeeded")
	}
	if err := m.RemoveBackend("backend-00"); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveBackend("backend-00"); err == nil {
		t.Fatal("double remove succeeded")
	}
	if err := m.AddBackend("backend-00", netproto.IPv4{172, 16, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddBackend("backend-00", netproto.IPv4{172, 16, 0, 1}); err == nil {
		t.Fatal("double add succeeded")
	}
	if m.ActiveBackends() != 4 {
		t.Fatalf("active = %d, want 4", m.ActiveBackends())
	}
}

// TestMaglevDrainedTable: with every backend removed the table is
// unowned and Lookup reports -1 instead of crashing.
func TestMaglevDrainedTable(t *testing.T) {
	m := testMaglev(t, 2, 251)
	for i := 0; i < 2; i++ {
		if err := m.RemoveBackend(fmt.Sprintf("backend-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	tuple := netproto.FiveTuple{SrcPort: 1234, DstPort: 80, Proto: netproto.ProtoUDP}
	if idx := m.Lookup(tuple); idx != -1 {
		t.Fatalf("lookup on drained table = %d, want -1", idx)
	}
	for i, c := range m.TableCounts() {
		if c != 0 {
			t.Fatalf("drained table still counts %d positions for backend %d", c, i)
		}
	}
	// A new backend grafted onto a drained table takes every position.
	if err := m.AddBackend("backend-99", netproto.IPv4{172, 16, 0, 99}); err != nil {
		t.Fatal(err)
	}
	if idx := m.Lookup(tuple); idx != 2 {
		t.Fatalf("lookup after graft = %d, want 2", idx)
	}
}

// TestMaglevBalanceAfterRemoval: the repopulated table still balances
// within the paper's ~1% bound across survivors.
func TestMaglevBalanceAfterRemoval(t *testing.T) {
	m := testMaglev(t, 8, DefaultTableSize)
	if err := m.RemoveBackend("backend-03"); err != nil {
		t.Fatal(err)
	}
	counts := m.TableCounts()
	if counts[3] != 0 {
		t.Fatalf("removed backend still owns %d positions", counts[3])
	}
	mean := float64(DefaultTableSize) / 7
	for i, c := range counts {
		if i == 3 {
			continue
		}
		dev := float64(c)/mean - 1
		if dev < -0.02 || dev > 0.02 {
			t.Fatalf("backend %d owns %d positions, %+.2f%% off the mean", i, c, 100*dev)
		}
	}
}

// TestMaglevGraftMatchesFresh: a backend appended by AddBackend gets
// the permutation NewMaglev would have given it, so the grown table is
// the table of a balancer built over every name at once.
func TestMaglevGraftMatchesFresh(t *testing.T) {
	grown := testMaglev(t, 4, 251)
	if err := grown.AddBackend("backend-04", netproto.IPv4{172, 16, 0, 5}); err != nil {
		t.Fatal(err)
	}
	fresh := testMaglev(t, 5, 251)
	want := fresh.TableSnapshot()
	for i, b := range grown.TableSnapshot() {
		if b != want[i] {
			t.Fatalf("position %d: grown table has backend %d, fresh %d", i, b, want[i])
		}
	}
}
