package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"stamp/internal/trace"
)

// The traced run records its spans from here, around the calls into each
// layer's public functions; internal/trace is only the recorder. One
// operation (an applied event, a read, a converged destination) is one
// trace.Ctx, so its spans share a trace id, and every span also carries
// the operation's index as the "op" argument.

// newRecorder returns a tracer with one ring big enough for spans spans.
func newRecorder(spans, sampleEvery int) *trace.Tracer {
	return trace.New(trace.Options{Shards: 1, BufferPerShard: spans, SampleEvery: sampleEvery})
}

// timed runs f inside a span named name under parent and returns that
// span's id. On a dead context it just runs f.
func timed(tc trace.Ctx, parent trace.SpanID, name string, op int, f func()) trace.SpanID {
	sp := tc.StartChild(parent, name)
	sp.Arg("op", int64(op))
	f()
	sp.End()
	return sp.ID()
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover. Children may overlap each other (parallel
// shards) and may stick out of the parent; only the covered part of the
// parent's own interval is subtracted, once.
func selfTimes(recs []trace.Record) map[uint64]int64 {
	type iv struct{ lo, hi int64 }
	kids := map[uint64][]iv{}
	for i := range recs {
		r := &recs[i]
		if r.Parent != 0 {
			kids[r.Parent] = append(kids[r.Parent], iv{r.Start, r.Start + r.Dur})
		}
	}
	self := make(map[uint64]int64, len(recs))
	for i := range recs {
		r := &recs[i]
		lo, hi := r.Start, r.Start+r.Dur
		ks := kids[r.Span]
		sort.Slice(ks, func(a, b int) bool { return ks[a].lo < ks[b].lo })
		covered, edge := int64(0), lo
		for _, k := range ks {
			a, b := max(k.lo, edge), min(k.hi, hi)
			if b > a {
				covered += b - a
				edge = b
			}
		}
		self[r.Span] = r.Dur - covered
	}
	return self
}

// spanSet indexes the recorded spans of a traced run.
type spanSet struct {
	recs []trace.Record
	self map[uint64]int64
}

func collect(trs ...*trace.Tracer) *spanSet {
	var recs []trace.Record
	for _, t := range trs {
		recs = append(recs, t.Snapshot()...)
	}
	return &spanSet{recs: recs, self: selfTimes(recs)}
}

// us returns the ascending durations, in microseconds, of the spans
// called name.
func (s *spanSet) us(name string) []float64 {
	return s.sortedUs(name, func(r *trace.Record) int64 { return r.Dur })
}

// selfUs is us for self time: what the spans called name spent outside
// their children.
func (s *spanSet) selfUs(name string) []float64 {
	return s.sortedUs(name, func(r *trace.Record) int64 { return s.self[r.Span] })
}

func (s *spanSet) sortedUs(name string, ns func(*trace.Record) int64) []float64 {
	var out []float64
	for i := range s.recs {
		if s.recs[i].Name == name {
			out = append(out, float64(ns(&s.recs[i]))/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

// perTrace sums, per operation, the durations (µs) of its spans called
// name.
func (s *spanSet) perTrace(name string) map[uint64]float64 {
	out := map[uint64]float64{}
	for i := range s.recs {
		if s.recs[i].Name == name {
			out[s.recs[i].Trace] += float64(s.recs[i].Dur) / 1e3
		}
	}
	return out
}

// writeChrome writes the spans as a Perfetto-loadable Chrome trace and
// says where.
func (s *spanSet) writeChrome(dir, workload string, meta map[string]any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, s.recs, meta); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Printf("# %s: %d spans written to %s\n", workload, len(s.recs), path)
	return f.Close()
}
