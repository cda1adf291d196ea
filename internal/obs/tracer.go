// Package obs is the observability layer: a fixed-capacity ring-buffer
// event tracer and a metrics registry, both driven by the deterministic
// cycle clocks (hw.Clock). Traces are a pure function of the cycles the
// simulation charges, so two runs with the same seed produce bit-for-bit
// identical traces — the same reproducibility contract the fault
// injector's trace hash gives (internal/faults).
//
// Observability must be free when off: nothing in this package ever
// charges a cycle clock, and every recording method is safe to call on a
// nil *Tracer / nil *Counter / nil *Histogram (it is a no-op), so
// instrumented hot paths need no branches. The hot path allocates
// nothing once tracks and names are interned: events are fixed-size
// values stored inline in a preallocated ring.
//
// Exporters: WriteTrace renders Chrome/Perfetto trace_event JSON (one
// pid per core, one tid per kernel domain or driver; open the file at
// ui.perfetto.dev), and Registry.WriteText renders a plain-text metrics
// dump.
package obs

import "atmosphere/internal/hw"

// DefaultEventCapacity is the ring size NewTracer uses for capacity <= 0
// (64 Ki events * 40 bytes ≈ 2.5 MiB).
const DefaultEventCapacity = 1 << 16

// MachinePID is the Perfetto pid of machine-wide tracks (fault
// injection, aggregate counters) whose timestamps run on the machine's
// total cycle count rather than one core's clock.
const MachinePID = 1 << 20

// TrackID identifies one timeline — a (pid, tid) pair in the Perfetto
// export. ID 0 is always valid (the first registered track, or a
// throwaway on a nil tracer).
type TrackID int32

// NameID is an interned event name.
type NameID int32

// EventKind discriminates ring entries.
type EventKind uint8

// Event kinds.
const (
	// KindSpan is a closed [TS, TS+Dur) interval on a track.
	KindSpan EventKind = iota
	// KindInstant is a point event at TS.
	KindInstant
	// KindCounter is a counter sample at TS: Arg carries the value. The
	// Perfetto export renders it as a "C" event, which the UI draws as a
	// step-function counter track keyed by (pid, name).
	KindCounter
)

// Event is one recorded trace event: a fixed-size value so the ring
// never allocates. TS and Dur are in cycles on the owning track's
// timeline (the core's clock for per-core tracks, the machine total for
// MachinePID tracks). Arg is an event-specific scalar (errno of a
// syscall span, IRQ line of an interrupt, stall cycles of a fault).
type Event struct {
	Kind  EventKind
	Track TrackID
	Name  NameID
	TS    uint64
	Dur   uint64
	Arg   uint64
}

// Track describes one timeline for the exporter.
type Track struct {
	PID     int    // Perfetto pid (the core number, or MachinePID)
	PIDName string // process_name metadata ("core0", "machine")
	TID     int    // Perfetto tid, assigned per pid in registration order
	TIDName string // thread_name metadata ("kernel", "nvme-driver", ...)
}

// Tracer records events into a fixed-capacity ring, dropping the oldest
// event (and counting the drop) when full. All methods are nil-safe.
type Tracer struct {
	ring    []Event
	head    int // index of the oldest live event
	n       int // live events
	dropped uint64

	tracks  []Track
	trackIx map[trackKey]TrackID
	nextTID map[int]int

	names  []string
	nameIx map[string]NameID
}

type trackKey struct {
	pid     int
	tidName string
}

// NewTracer builds a tracer with the given ring capacity (<= 0 means
// DefaultEventCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &Tracer{
		ring:    make([]Event, capacity),
		trackIx: make(map[trackKey]TrackID),
		nextTID: make(map[int]int),
		nameIx:  make(map[string]NameID),
	}
}

// Track interns a (pid, tidName) timeline and returns its ID; repeated
// registrations of the same pair return the same ID. Tids are assigned
// per pid in first-registration order, starting at 1. Call at setup
// time, not on the hot path (the first registration allocates).
func (t *Tracer) Track(pid int, pidName, tidName string) TrackID {
	if t == nil {
		return 0
	}
	key := trackKey{pid, tidName}
	if id, ok := t.trackIx[key]; ok {
		return id
	}
	t.nextTID[pid]++
	id := TrackID(len(t.tracks))
	t.tracks = append(t.tracks, Track{PID: pid, PIDName: pidName, TID: t.nextTID[pid], TIDName: tidName})
	t.trackIx[key] = id
	return id
}

// Name interns an event name. Repeated calls with the same string are
// allocation-free map lookups.
func (t *Tracer) Name(s string) NameID {
	if t == nil {
		return 0
	}
	if id, ok := t.nameIx[s]; ok {
		return id
	}
	id := NameID(len(t.names))
	t.names = append(t.names, s)
	t.nameIx[s] = id
	return id
}

// NameOf returns the string of an interned name.
func (t *Tracer) NameOf(id NameID) string {
	if t == nil || int(id) < 0 || int(id) >= len(t.names) {
		return "?"
	}
	return t.names[id]
}

// Tracks returns the registered track table (index = TrackID).
func (t *Tracer) Tracks() []Track {
	if t == nil {
		return nil
	}
	return t.tracks
}

func (t *Tracer) push(e Event) {
	if t.n == len(t.ring) {
		t.head = (t.head + 1) % len(t.ring)
		t.n--
		t.dropped++
	}
	t.ring[(t.head+t.n)%len(t.ring)] = e
	t.n++
}

// Span records a closed [start, end) interval. Empty spans (end <=
// start: no cycles charged) are not recorded.
func (t *Tracer) Span(track TrackID, name NameID, start, end uint64) {
	t.SpanArg(track, name, start, end, 0)
}

// SpanArg is Span with an event argument.
func (t *Tracer) SpanArg(track TrackID, name NameID, start, end, arg uint64) {
	if t == nil || end <= start {
		return
	}
	t.push(Event{Kind: KindSpan, Track: track, Name: name, TS: start, Dur: end - start, Arg: arg})
}

// Instant records a point event.
func (t *Tracer) Instant(track TrackID, name NameID, ts, arg uint64) {
	if t == nil {
		return
	}
	t.push(Event{Kind: KindInstant, Track: track, Name: name, TS: ts, Arg: arg})
}

// Counter records a counter sample: the named series holds value from
// ts onward. Perfetto draws one counter track per (pid, name), so
// series names should be fully qualified ("lock.big.kernel.queue").
func (t *Tracer) Counter(track TrackID, name NameID, ts, value uint64) {
	if t == nil {
		return
	}
	t.push(Event{Kind: KindCounter, Track: track, Name: name, TS: ts, Arg: value})
}

// Span is also available as a begin/end pair for call sites that prefer
// lexical scoping; SpanHandle is a value (no allocation).
type SpanHandle struct {
	t     *Tracer
	track TrackID
	name  NameID
	start uint64
}

// Begin opens a span at the given clock reading.
func (t *Tracer) Begin(track TrackID, name NameID, now uint64) SpanHandle {
	return SpanHandle{t: t, track: track, name: name, start: now}
}

// End closes the span at the given clock reading.
func (s SpanHandle) End(now uint64) { s.t.SpanArg(s.track, s.name, s.start, now, 0) }

// EndArg closes the span with an argument.
func (s SpanHandle) EndArg(now, arg uint64) { s.t.SpanArg(s.track, s.name, s.start, now, arg) }

// Len returns the number of live events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Cap returns the ring capacity.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.ring)
}

// Dropped returns how many events the ring evicted.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns the live events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, t.n)
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(t.head+i)%len(t.ring)])
	}
	return out
}

// SpanTotal sums the durations of all live span events — the cycles the
// trace accounts for. Instants contribute nothing; dropped events no
// longer count.
func (t *Tracer) SpanTotal() uint64 {
	if t == nil {
		return 0
	}
	var sum uint64
	for i := 0; i < t.n; i++ {
		e := &t.ring[(t.head+i)%len(t.ring)]
		if e.Kind == KindSpan {
			sum += e.Dur
		}
	}
	return sum
}

// Hash returns an FNV-1a hash over the live events plus the drop count:
// two traces agree iff their hashes agree (modulo astronomically
// unlikely collisions). The determinism tests compare hashes of
// same-seed runs.
func (t *Tracer) Hash() uint64 {
	if t == nil {
		return 0
	}
	h := hw.FNV(hw.FNVOffset, t.dropped)
	for i := 0; i < t.n; i++ {
		e := &t.ring[(t.head+i)%len(t.ring)]
		h = hw.FNV(h, uint64(e.Kind), uint64(e.Track), uint64(e.Name), e.TS, e.Dur, e.Arg)
	}
	return h
}
