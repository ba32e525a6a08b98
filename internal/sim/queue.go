package sim

import (
	"time"

	"stamp/internal/topology"
)

// event is one queued action, held by value: a callback when fn is
// non-nil, otherwise the delivery of payload from one AS to another
// through the engine's network. Deliveries are the bulk of all events,
// and carrying their arguments in the event saves a closure per routing
// message.
type event struct {
	at       time.Duration
	seq      int64
	fn       func()
	payload  any
	from, to topology.ASN
}

// before is the queue order: by time, then by scheduling sequence, so
// events due at the same instant run in the order they were scheduled.
// seq is unique, which makes the order total.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// queue is a 4-ary min-heap of events under before. Four children per
// node halve the depth of a binary heap, and a node's children share a
// few cache lines, which is what a sift-down reads.
type queue []event

// push adds ev.
func (q *queue) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	*q = h
}

// pop removes and returns the earliest event. The vacated slot is
// zeroed, so the backing array keeps no popped closure or payload
// alive. The queue must not be empty.
func (q *queue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	*q = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for k := c + 1; k < c+4 && k < n; k++ {
			if h[k].before(&h[m]) {
				m = k
			}
		}
		if !h[m].before(&last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
	return top
}
