package bench

import (
	"encoding/json"
	"fmt"
	"io"
)

// Machine-readable experiment output. One BENCH_<id>.json per
// experiment makes the performance trajectory diffable across PRs:
// every file carries the measured values, the paper's reference
// values, and the trace hash of the run that produced them.

type jsonRow struct {
	Case     string   `json:"case"`
	Measured *float64 `json:"measured,omitempty"` // nil for a paper-only row
	Paper    float64  `json:"paper,omitempty"`
	Unit     string   `json:"unit"`
}

type jsonResult struct {
	ID        string    `json:"id"`
	Title     string    `json:"title"`
	Rows      []jsonRow `json:"rows"`
	Notes     []string  `json:"notes,omitempty"`
	TraceHash string    `json:"trace_hash,omitempty"`
}

// WriteResultJSON writes one experiment result as indented JSON.
// traceHash is the tracer's event-stream hash after the experiment ran
// (pass 0 when no tracer is attached; the field is then omitted). The
// output is byte-deterministic: field order is fixed by the struct and
// the rows keep the experiment's presentation order.
func WriteResultJSON(w io.Writer, r Result, traceHash uint64) error {
	out := jsonResult{ID: r.ID, Title: r.Title, Notes: r.Notes}
	if traceHash != 0 {
		out.TraceHash = fmt.Sprintf("%016x", traceHash)
	}
	for _, row := range r.Rows {
		jr := jsonRow{Case: row.Name, Paper: row.Paper, Unit: row.Unit}
		if !row.PaperOnly {
			jr.Measured = &row.Value
		}
		out.Rows = append(out.Rows, jr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&out)
}
