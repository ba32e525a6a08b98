package obs

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"stamp/internal/ring"
)

// Event is one structured entry in the event log. Seq is a process-wide
// monotonic sequence number (1-based) clients use to resume a stream;
// Data carries an optional structured payload already rendered as JSON.
type Event struct {
	Seq    uint64          `json:"seq"`
	UnixNs int64           `json:"unix_ns"`
	Kind   string          `json:"kind"`
	Detail string          `json:"detail"`
	Data   json.RawMessage `json:"data,omitempty"`
}

// EventLog is a bounded ring buffer of structured events with blocking
// tail reads. Appends never block and never grow memory past the fixed
// capacity; when the ring wraps, the oldest events are dropped (a
// late-joining streamer simply starts from what is still retained).
type EventLog struct {
	mu     sync.Mutex
	ring   ring.Ring[Event]
	notify chan struct{}

	now func() int64 // injectable clock for deterministic tests
}

// NewEventLog returns a ring retaining the last capacity events.
func NewEventLog(capacity int) *EventLog {
	return &EventLog{
		ring:   ring.New[Event](capacity),
		notify: make(chan struct{}),
		now:    func() int64 { return time.Now().UnixNano() },
	}
}

// Append records an event and wakes every blocked Wait. Data, if
// non-nil, must be valid JSON (callers marshal their own payload
// structs). Returns the assigned sequence number.
func (l *EventLog) Append(kind, detail string, data json.RawMessage) uint64 {
	l.mu.Lock()
	seq := l.ring.Last() + 1
	*l.ring.Push() = Event{Seq: seq, UnixNs: l.now(), Kind: kind, Detail: detail, Data: data}
	ch := l.notify
	l.notify = make(chan struct{})
	l.mu.Unlock()
	close(ch)
	return seq
}

// LastSeq returns the sequence number of the newest event (0 if empty).
func (l *EventLog) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Last()
}

// OldestSeq returns the sequence number of the oldest event still
// retained in the ring (0 if empty) — what a resuming streamer is
// actually offered when its cursor has been evicted.
func (l *EventLog) OldestSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Oldest()
}

// Evicted returns how many events the ring has dropped — the gap
// between what was ever appended and what a from-scratch reader can
// still see. Exported as a gauge by serve so ring pressure is visible
// before a resuming client hits it.
func (l *EventLog) Evicted() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Evicted()
}

// Since returns a copy of every retained event with Seq > after, in
// sequence order.
func (l *EventLog) Since(after uint64) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.AppendSince(nil, after)
}

// Wait blocks until an event with Seq > after exists (returning true)
// or the context is done (returning false). Combined with Since it is
// the tail-read primitive the SSE streamer loops on.
func (l *EventLog) Wait(ctx context.Context, after uint64) bool {
	for {
		l.mu.Lock()
		if l.ring.Last() > after {
			l.mu.Unlock()
			return true
		}
		ch := l.notify
		l.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return false
		}
	}
}
