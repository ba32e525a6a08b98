// Package trace is the repository's causal tracing core: a
// dependency-free, sampling span tracer in the hot-loop discipline of
// internal/obs. A Tracer hands out per-event trace contexts (Ctx) whose
// spans record causally-linked work — an event apply, its invalidation
// cascade, each plane's convergence window — into preallocated
// per-shard ring buffers, and exports the retained spans as Chrome
// trace-event JSON (chrome://tracing / Perfetto-loadable) or a compact
// JSONL stream.
//
// The design constraint mirrors the atlas engine's 0 allocs/op gate:
// the disabled path (nil *Tracer) and the not-sampled path (Ctx zero
// value) must cost a pointer check and nothing else, and even the
// sampled path allocates nothing — spans are stack values, ring slots
// are preallocated at New, and span/arg names must be static strings
// (the tracer stores the string headers verbatim; a fmt.Sprintf'd name
// would both allocate and pin garbage in the ring). Pinned by
// TestTraceHotPathAllocs here and by the extended
// TestIncrementalHotLoopAllocs in internal/atlas.
package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"stamp/internal/ring"
)

// MaxArgs bounds the integer annotations one span can carry; MaxStrs
// the string annotations. Extra Arg/ArgStr calls are dropped silently
// (a span is a bounded record, not a log line).
const (
	MaxArgs = 10
	MaxStrs = 2
)

// Arg is one integer span annotation.
type Arg struct {
	Key string
	Val int64
}

// StrArg is one string span annotation. Values are stored as given;
// callers on 0-alloc paths must pass strings that already exist.
type StrArg struct {
	Key string
	Val string
}

// SpanID identifies one span within a tracer's lifetime. Zero means
// "no span" (the parent of a root span).
type SpanID uint64

// Record is one completed span as retained in a shard ring and handed
// to the exporters. Start/Dur are nanoseconds on the tracer's clock
// (which starts near zero at New, so Chrome timestamps stay small).
type Record struct {
	Trace  uint64
	Span   uint64
	Parent uint64
	TID    int32
	Name   string
	Start  int64
	Dur    int64
	Args   [MaxArgs]Arg
	NArgs  int32
	Strs   [MaxStrs]StrArg
	NStrs  int32
}

// shard is one preallocated span ring. Its mutex is held for one slot
// copy per append, so concurrent writers stay safe without allocation.
type shard struct {
	mu   sync.Mutex
	ring ring.Ring[Record]
}

// Options configures a Tracer.
type Options struct {
	// Shards is the ring count; writers pick a shard by index (modulo),
	// so one shard per concurrent writer domain avoids lock contention
	// (<= 0: 4).
	Shards int
	// BufferPerShard is each ring's span capacity; when it wraps, the
	// oldest spans are dropped (<= 0: 2048).
	BufferPerShard int
	// SampleEvery records 1-in-N traces: Event returns a live Ctx for
	// the first of every N decisions and a dead one otherwise (<= 1:
	// every trace).
	SampleEvery int
}

// Tracer produces sampled trace contexts and retains their spans. All
// methods are safe for concurrent use; a nil *Tracer is a valid
// disabled tracer (every method no-ops).
type Tracer struct {
	sampleEvery uint64
	seq         atomic.Uint64 // sampling decisions taken
	ids         atomic.Uint64 // span ids handed out
	shards      []shard
	now         func() int64 // ns clock, injectable for deterministic tests
}

// New builds a tracer with every ring preallocated.
func New(o Options) *Tracer {
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.BufferPerShard <= 0 {
		o.BufferPerShard = 2048
	}
	if o.SampleEvery <= 1 {
		o.SampleEvery = 1
	}
	t := &Tracer{
		sampleEvery: uint64(o.SampleEvery),
		shards:      make([]shard, o.Shards),
	}
	for i := range t.shards {
		t.shards[i].ring = ring.New[Record](o.BufferPerShard)
	}
	base := time.Now()
	t.now = func() int64 { return time.Since(base).Nanoseconds() }
	return t
}

// setNow injects a deterministic clock (tests only).
func (t *Tracer) setNow(f func() int64) { t.now = f }

// SampleEvery reports the tracer's 1-in-N sampling rate (1 = every
// trace); 0 on a nil tracer.
func (t *Tracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	return int(t.sampleEvery)
}

// Event takes one sampling decision and returns the trace context for
// a new causal unit (one applied event, one HTTP read, ...). The shard
// index selects the ring the trace's spans land in and doubles as the
// default Chrome thread id. A nil tracer, or a decision the sampler
// skips, returns the zero Ctx — every downstream span call on it is a
// no-op.
func (t *Tracer) Event(shardIdx int) Ctx {
	if t == nil {
		return Ctx{}
	}
	n := t.seq.Add(1)
	if t.sampleEvery > 1 && (n-1)%t.sampleEvery != 0 {
		return Ctx{}
	}
	if shardIdx < 0 {
		shardIdx = -shardIdx
	}
	return Ctx{t: t, sh: &t.shards[shardIdx%len(t.shards)], trace: n, tid: int32(shardIdx)}
}

// Traces reports how many sampling decisions were taken and how many
// were recorded (sampled). Dropped reports spans lost to ring wrap.
func (t *Tracer) Traces() (decisions, sampled uint64) {
	if t == nil {
		return 0, 0
	}
	n := t.seq.Load()
	if t.sampleEvery <= 1 {
		return n, n
	}
	return n, (n + t.sampleEvery - 1) / t.sampleEvery
}

// Dropped reports spans overwritten by ring wrap before a Snapshot
// retained them: the sum of the shard rings' evictions.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	var n uint64
	for i := range t.shards {
		t.shards[i].mu.Lock()
		n += t.shards[i].ring.Evicted()
		t.shards[i].mu.Unlock()
	}
	return n
}

// Ctx is one trace's recording context. The zero value is dead: Start
// returns dead spans and nothing is recorded. Pass by value; it is two
// words of pointers plus ids.
type Ctx struct {
	t     *Tracer
	sh    *shard
	trace uint64
	tid   int32
}

// Live reports whether spans started from this context are recorded.
func (c Ctx) Live() bool { return c.t != nil }

// WithTID returns the context with a different Chrome thread id, so
// one trace's spans can render on per-worker tracks.
func (c Ctx) WithTID(tid int32) Ctx {
	c.tid = tid
	return c
}

// Start begins a root span (no parent).
func (c Ctx) Start(name string) Span { return c.StartChild(0, name) }

// StartChild begins a span under parent (0 = root). The name must be a
// static string on 0-alloc paths.
func (c Ctx) StartChild(parent SpanID, name string) Span {
	if c.t == nil {
		return Span{}
	}
	return Span{
		c:      c,
		id:     c.t.ids.Add(1),
		parent: uint64(parent),
		name:   name,
		start:  c.t.now(),
	}
}

// Span is one in-flight span. It is a stack value: keep it local, call
// End exactly once. The zero Span (from a dead Ctx) no-ops everything.
type Span struct {
	c      Ctx
	id     uint64
	parent uint64
	name   string
	start  int64
	args   [MaxArgs]Arg
	nargs  int32
	strs   [MaxStrs]StrArg
	nstrs  int32
}

// Live reports whether this span records anywhere.
func (s *Span) Live() bool { return s.c.t != nil }

// ID returns the span's id for parenting children (0 when dead).
func (s *Span) ID() SpanID { return SpanID(s.id) }

// Arg attaches an integer annotation (dropped beyond MaxArgs). The key
// must be a static string on 0-alloc paths.
func (s *Span) Arg(key string, v int64) {
	if s.c.t == nil || s.nargs >= MaxArgs {
		return
	}
	s.args[s.nargs] = Arg{Key: key, Val: v}
	s.nargs++
}

// ArgStr attaches a string annotation (dropped beyond MaxStrs).
func (s *Span) ArgStr(key, v string) {
	if s.c.t == nil || s.nstrs >= MaxStrs {
		return
	}
	s.strs[s.nstrs] = StrArg{Key: key, Val: v}
	s.nstrs++
}

// End stamps the duration and commits the span to its shard ring.
func (s *Span) End() {
	if s.c.t == nil {
		return
	}
	end := s.c.t.now()
	sh := s.c.sh
	sh.mu.Lock()
	slot := sh.ring.Push()
	slot.Trace = s.c.trace
	slot.Span = s.id
	slot.Parent = s.parent
	slot.TID = s.c.tid
	slot.Name = s.name
	slot.Start = s.start
	slot.Dur = end - s.start
	slot.Args = s.args
	slot.NArgs = s.nargs
	slot.Strs = s.strs
	slot.NStrs = s.nstrs
	sh.mu.Unlock()
}
