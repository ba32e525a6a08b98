package emu

import (
	"stamp/internal/netd"
	"stamp/internal/obs"
)

// Metrics is the fleet's handle set into an obs.Registry. Wire is
// installed on every session the fabric creates, so session liveness
// and message volume come for free from the netd layer; the fabric adds
// its own fleet-level update accounting on top. A nil *Metrics is valid
// everywhere.
type Metrics struct {
	// Wire instruments every netd session of the fleet.
	Wire *netd.Metrics
	// UpdatesSent / UpdatesDropped count fleet-level UPDATE fates:
	// written to a live session vs lost to a severed transport or dead
	// queue.
	UpdatesSent    *obs.Counter
	UpdatesDropped *obs.Counter
	// InFlight mirrors the fabric's in-flight UPDATE counter (enqueued
	// but not yet processed).
	InFlight *obs.Gauge
}

// NewMetrics registers the fleet's metric families (including the wire
// layer's) on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Wire: netd.NewMetrics(reg),
		UpdatesSent: reg.Counter("stamp_emu_updates_sent_total",
			"UPDATEs written to live sessions by the fleet."),
		UpdatesDropped: reg.Counter("stamp_emu_updates_dropped_total",
			"UPDATEs lost to severed transports or dead queues."),
		InFlight: reg.Gauge("stamp_emu_updates_inflight",
			"UPDATEs enqueued but not yet fully processed."),
	}
}

func (m *Metrics) wire() *netd.Metrics {
	if m == nil {
		return nil
	}
	return m.Wire
}

func (m *Metrics) sent() {
	if m != nil {
		m.UpdatesSent.Inc()
	}
}

func (m *Metrics) dropped(n int64) {
	if m != nil {
		m.UpdatesDropped.Add(n)
	}
}

func (m *Metrics) inFlight(n int64) {
	if m != nil {
		m.InFlight.Set(n)
	}
}
