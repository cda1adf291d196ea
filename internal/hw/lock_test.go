package hw

import "testing"

// Disabled, the arbiter charges nothing — the legacy uncontended model.
func TestLockSimDisabledIsFree(t *testing.T) {
	var l LockSim
	if w := l.Acquire(0); w != 0 {
		t.Fatalf("disabled Acquire waited %d", w)
	}
	l.Release(1000)
	if w := l.Acquire(10); w != 0 {
		t.Fatalf("disabled Acquire after Release waited %d", w)
	}
	if acq, _, _ := l.Stats(); acq != 0 {
		t.Fatalf("disabled lock counted %d acquisitions", acq)
	}
	var nilLock *LockSim
	if w := nilLock.Acquire(0); w != 0 {
		t.Fatalf("nil Acquire waited %d", w)
	}
	nilLock.Release(5) // must not panic
}

// Enabled, waits are exactly the frontier gap and the frontier is
// monotone.
func TestLockSimFrontier(t *testing.T) {
	var l LockSim
	l.Enable()
	if w := l.Acquire(100); w != 0 {
		t.Fatalf("first acquire waited %d", w)
	}
	l.Release(600) // held [100, 600)
	if w := l.Acquire(200); w != 400 {
		t.Fatalf("contended acquire waited %d, want 400", w)
	}
	l.Release(700)
	// A release in the past must not move the frontier backwards.
	l.Release(50)
	if w := l.Acquire(650); w != 50 {
		t.Fatalf("acquire after stale release waited %d, want 50", w)
	}
	l.Release(800)
	// An arrival after the frontier pays nothing.
	if w := l.Acquire(900); w != 0 {
		t.Fatalf("late acquire waited %d", w)
	}
	acq, contended, wait := l.Stats()
	if acq != 4 || contended != 2 || wait != 450 {
		t.Fatalf("stats = (%d, %d, %d), want (4, 2, 450)", acq, contended, wait)
	}
}

// Calls are served in call order, not timestamp order: a holder that
// acquired at 1,000 and released at 1,300 makes a later call arriving
// at 100 wait 1,200, although that call's core reached the lock first
// in virtual time.
func TestLockSimServesInCallOrder(t *testing.T) {
	var l LockSim
	l.Enable()
	if w := l.Acquire(1000); w != 0 {
		t.Fatalf("first acquire waited %d", w)
	}
	l.Release(1300)
	if w := l.Acquire(100); w != 1200 {
		t.Fatalf("earlier-timestamped later call waited %d, want 1200", w)
	}
}

// Under seeded arrival jitter the counters must stay coherent at every
// step: the contended count and the wait total never disagree (a wait
// was charged iff an acquisition was contended, and every contended
// acquisition waited at least one cycle), per-Acquire returns sum to
// the Stats total, and the frontier stays monotone no matter how the
// jitter reorders arrivals.
func TestLockSimStatsConsistentUnderJitter(t *testing.T) {
	for _, tc := range []struct{ seed, max uint64 }{
		{1, 0}, {1, 64}, {7, 500}, {0xdead, 5000},
	} {
		var l LockSim
		l.Enable()
		l.SetJitter(tc.seed, tc.max)
		// A deterministic arrival pattern dense enough to contend: walk
		// the clock forward slowly while holding the lock for longer
		// stretches, so jittered arrivals land on both sides of the
		// frontier.
		rng := tc.seed*2654435761 + 1
		var arrival, sumWaits, prevContended, lastFrontier uint64
		for i := 0; i < 400; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			arrival += rng % 97
			w := l.Acquire(arrival)
			sumWaits += w
			acq, c, wc := l.Stats()
			if acq != uint64(i+1) {
				t.Fatalf("seed %d max %d step %d: acquisitions = %d", tc.seed, tc.max, i, acq)
			}
			if wc != sumWaits {
				t.Fatalf("seed %d max %d step %d: Stats wait %d != summed Acquire returns %d", tc.seed, tc.max, i, wc, sumWaits)
			}
			if (w > 0) != (c == prevContended+1) {
				t.Fatalf("seed %d max %d step %d: wait %d but contended went %d -> %d", tc.seed, tc.max, i, w, prevContended, c)
			}
			if (c == 0) != (wc == 0) {
				t.Fatalf("seed %d max %d step %d: contended %d vs wait cycles %d disagree", tc.seed, tc.max, i, c, wc)
			}
			if wc < c {
				t.Fatalf("seed %d max %d step %d: wait cycles %d < contended %d — some contended acquisition waited 0", tc.seed, tc.max, i, wc, c)
			}
			prevContended = c
			l.Release(arrival + w + 40 + rng%300)
			if f := l.Frontier(); f < lastFrontier {
				t.Fatalf("seed %d max %d step %d: frontier moved backwards %d -> %d", tc.seed, tc.max, i, lastFrontier, f)
			} else {
				lastFrontier = f
			}
		}
		if _, c, _ := l.Stats(); c == 0 {
			t.Fatalf("seed %d max %d: pattern never contended — the invariants were vacuous", tc.seed, tc.max)
		}
	}
}
