package dist

import (
	"io"

	"atmosphere/internal/obs"
)

// Merged Chrome/Perfetto trace_event export: every participant's tracer
// becomes one process track (pid = participant index + 1, process_name
// = the participant's name), and each completed request's completing
// attempt is drawn as a flow — the classic "s"/"t"/"f" arrow chain
// binding to the enclosing req.* slices: client send → lb-forward →
// backend → lb-return → client receipt. Open at ui.perfetto.dev.
//
// The bytes come from obs.TraceWriter, so the stream is a pure function
// of the collector's contents: two same-seed runs export byte-identical
// files (pinned by a golden test and a run-twice test of atmo-trace).

// WriteMerged writes the cluster-wide merged trace.
func WriteMerged(w io.Writer, c *Collector) error {
	tw := obs.NewTraceWriter(w)
	if c != nil {
		// Track metadata: one process per participant, threads per track.
		for i, tr := range c.tracers {
			tw.Process(i+1, c.names[i])
			for _, track := range tr.Tracks() {
				tw.Thread(i+1, track.TID, track.TIDName)
			}
		}
		// Per-participant events, client first, oldest first.
		for i, tr := range c.tracers {
			tw.Events(tr, func(obs.Track) int { return i + 1 })
		}
		// Flow arrows, in completion order. Irregular chains (none in a
		// healthy run) have no hop spans to bind to and are skipped. All
		// participants share tid 1 (each tracer registers exactly the
		// "requests" track).
		clientPID := ClientSlot + 1
		for _, rec := range c.completed {
			if rec.Irregular {
				continue
			}
			flow := func(ph string, pid int, ts uint64) {
				tw.Flow("req.flow", "req", ph, rec.TraceID, pid, 1, ts)
			}
			flow("s", clientPID, rec.cycles(c, rec.SentTick))
			for _, h := range rec.Hops {
				flow("t", h.Machine+1, h.SpanTS)
			}
			flow("f", clientPID, rec.cycles(c, rec.EndTick))
		}
	}
	return tw.Close()
}

// cycles converts one of the record's ticks via the owning collector.
func (rec TraceRec) cycles(c *Collector, tick uint64) uint64 {
	return tick * c.cfg.TickCycles
}
