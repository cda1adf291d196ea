package obs

import (
	"bufio"
	"io"
	"strconv"

	"atmosphere/internal/hw"
)

// Chrome/Perfetto trace_event JSON exporter. The output loads directly
// in ui.perfetto.dev (or chrome://tracing): every registered track
// becomes a (pid, tid) pair with process_name/thread_name metadata,
// spans become complete ("X") events, instants become instant ("i")
// events. Timestamps are microseconds of simulated time (cycles at the
// 2.2 GHz model clock). The writer is hand-rolled so the byte stream is
// a pure function of the tracer's contents — two same-seed runs export
// byte-identical files.

// cyclesPerMicro converts model cycles to trace_event's microsecond
// timestamps.
const cyclesPerMicro = float64(hw.ClockHz) / 1e6

func writeTS(b *bufio.Writer, cycles uint64) {
	// 4 decimals of a microsecond = 0.1 ns, finer than one 2.2 GHz cycle.
	b.WriteString(strconv.FormatFloat(float64(cycles)/cyclesPerMicro, 'f', 4, 64))
}

func writeStr(b *bufio.Writer, s string) {
	b.WriteString(strconv.Quote(s))
}

// WriteTrace writes the tracer's live events as trace_event JSON.
func WriteTrace(w io.Writer, t *Tracer) error {
	tw := NewTraceWriter(w)
	// Track metadata, in registration order (deterministic). One
	// process_name per distinct pid (first track of the pid wins), one
	// thread_name per track.
	seenPid := map[int]bool{}
	for _, tr := range t.Tracks() {
		if !seenPid[tr.PID] {
			seenPid[tr.PID] = true
			tw.Process(tr.PID, tr.PIDName)
		}
		tw.Thread(tr.PID, tr.TID, tr.TIDName)
	}
	tw.Events(t, func(tr Track) int { return tr.PID })
	return tw.Close()
}

// TraceWriter streams one trace_event JSON document. WriteTrace drives
// it for one tracer; dist.WriteMerged drives it for every cluster
// participant under its own pid, plus the flow arrows between them.
type TraceWriter struct {
	b     *bufio.Writer
	first bool
}

// NewTraceWriter opens a document on w; Close ends it.
func NewTraceWriter(w io.Writer) *TraceWriter {
	tw := &TraceWriter{b: bufio.NewWriter(w), first: true}
	tw.b.WriteString("{\"traceEvents\":[")
	return tw
}

// next starts the next event on its own line.
func (tw *TraceWriter) next() {
	if !tw.first {
		tw.b.WriteString(",\n")
	} else {
		tw.b.WriteString("\n")
	}
	tw.first = false
}

// Process names pid's process track.
func (tw *TraceWriter) Process(pid int, name string) {
	b := tw.b
	tw.next()
	b.WriteString("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":")
	b.WriteString(strconv.Itoa(pid))
	b.WriteString(",\"tid\":0,\"args\":{\"name\":")
	writeStr(b, name)
	b.WriteString("}}")
}

// Thread names the (pid, tid) thread track.
func (tw *TraceWriter) Thread(pid, tid int, name string) {
	b := tw.b
	tw.next()
	b.WriteString("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":")
	b.WriteString(strconv.Itoa(pid))
	b.WriteString(",\"tid\":")
	b.WriteString(strconv.Itoa(tid))
	b.WriteString(",\"args\":{\"name\":")
	writeStr(b, name)
	b.WriteString("}}")
}

// Events writes t's live events, oldest first, each drawn under the
// pid its track maps to.
func (tw *TraceWriter) Events(t *Tracer, pid func(Track) int) {
	b := tw.b
	tracks := t.Tracks()
	for _, e := range t.Events() {
		if int(e.Track) >= len(tracks) {
			continue // unregistered track: unreachable via the public API
		}
		tr := tracks[e.Track]
		tw.next()
		b.WriteString("{\"name\":")
		writeStr(b, t.NameOf(e.Name))
		switch e.Kind {
		case KindSpan:
			b.WriteString(",\"ph\":\"X\"")
		case KindInstant:
			b.WriteString(",\"ph\":\"i\",\"s\":\"t\"")
		case KindCounter:
			b.WriteString(",\"ph\":\"C\"")
		}
		b.WriteString(",\"pid\":")
		b.WriteString(strconv.Itoa(pid(tr)))
		b.WriteString(",\"tid\":")
		b.WriteString(strconv.Itoa(tr.TID))
		b.WriteString(",\"ts\":")
		writeTS(b, e.TS)
		if e.Kind == KindSpan {
			b.WriteString(",\"dur\":")
			writeTS(b, e.Dur)
		}
		if e.Kind == KindCounter {
			// Counter samples always carry their value — zero included,
			// since a drop back to zero is exactly what the step shows.
			b.WriteString(",\"args\":{\"value\":")
			b.WriteString(strconv.FormatUint(e.Arg, 10))
			b.WriteString("}")
		} else if e.Arg != 0 {
			b.WriteString(",\"args\":{\"arg\":")
			b.WriteString(strconv.FormatUint(e.Arg, 10))
			b.WriteString("}")
		}
		b.WriteString("}")
	}
}

// Flow writes one flow-arrow event of flow id: ph is "s" (start), "t"
// (step) or "f" (finish, bound to the enclosing slice). The id is a hex
// string, not a JSON number — 64-bit ids would lose precision in
// readers that parse numbers as float64.
func (tw *TraceWriter) Flow(name, cat, ph string, id uint64, pid, tid int, ts uint64) {
	b := tw.b
	tw.next()
	b.WriteString("{\"name\":")
	writeStr(b, name)
	b.WriteString(",\"cat\":")
	writeStr(b, cat)
	b.WriteString(",\"ph\":")
	writeStr(b, ph)
	b.WriteString(",\"id\":\"0x")
	b.WriteString(strconv.FormatUint(id, 16))
	b.WriteString("\",\"pid\":")
	b.WriteString(strconv.Itoa(pid))
	b.WriteString(",\"tid\":")
	b.WriteString(strconv.Itoa(tid))
	b.WriteString(",\"ts\":")
	writeTS(b, ts)
	if ph == "f" {
		b.WriteString(",\"bp\":\"e\"")
	}
	b.WriteString("}")
}

// Close ends the document and flushes it.
func (tw *TraceWriter) Close() error {
	tw.b.WriteString("\n],\"displayTimeUnit\":\"ns\"}\n")
	return tw.b.Flush()
}
