package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"strings"
)

// Snapshot copies every retained span out of the shard rings, oldest
// first within a shard, then sorts the merged set by start time (ties
// by span id) — the stable export order. Snapshot does not clear the
// rings: a flight-recorder dump is a read, not a drain.
func (t *Tracer) Snapshot() []Record {
	if t == nil {
		return nil
	}
	var out []Record
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		out = sh.ring.AppendSince(out, 0)
		sh.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Span < out[j].Span
	})
	return out
}

// chromeEvent is one Chrome trace-event object: a "complete" event
// (ph "X") with microsecond timestamps, which chrome://tracing and
// Perfetto load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeDoc is the top-level Chrome trace JSON object. Extra metadata
// keys are legal in the format and both loaders ignore unknown ones,
// which is what the flight recorder uses to attach its breach context.
type chromeDoc struct {
	TraceEvents []chromeEvent  `json:"traceEvents"`
	Metadata    map[string]any `json:"metadata,omitempty"`
}

// chromeEvents converts records to Chrome trace events. The category is
// the span-name prefix before the first dot (atlas., serve., emu.), and
// the causal links ride in args (trace/span/parent) since complete
// events only nest visually by time and thread.
func chromeEvents(recs []Record) []chromeEvent {
	evs := make([]chromeEvent, 0, len(recs))
	for i := range recs {
		r := &recs[i]
		cat := r.Name
		if j := strings.IndexByte(cat, '.'); j >= 0 {
			cat = cat[:j]
		}
		args := make(map[string]any, int(r.NArgs)+int(r.NStrs)+3)
		args["trace"] = r.Trace
		args["span"] = r.Span
		if r.Parent != 0 {
			args["parent"] = r.Parent
		}
		for k := int32(0); k < r.NArgs; k++ {
			args[r.Args[k].Key] = r.Args[k].Val
		}
		for k := int32(0); k < r.NStrs; k++ {
			args[r.Strs[k].Key] = r.Strs[k].Val
		}
		evs = append(evs, chromeEvent{
			Name: r.Name,
			Cat:  cat,
			Ph:   "X",
			TS:   float64(r.Start) / 1e3,
			Dur:  float64(r.Dur) / 1e3,
			PID:  1,
			TID:  r.TID,
			Args: args,
		})
	}
	return evs
}

// WriteChrome renders records as a Chrome trace-event JSON document
// (`{"traceEvents": [...], "metadata": {...}}`), loadable in
// chrome://tracing and Perfetto. meta may be nil. The output is
// deterministic for fixed records (encoding/json sorts map keys),
// which is what the golden test pins.
func WriteChrome(w io.Writer, recs []Record, meta map[string]any) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", " ")
	if err := enc.Encode(chromeDoc{TraceEvents: chromeEvents(recs), Metadata: meta}); err != nil {
		return err
	}
	return bw.Flush()
}
