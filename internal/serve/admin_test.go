package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stamp/internal/scenario"
)

// TestAdminRejectsApplyNothing drives both admin endpoints with bodies
// that must be refused — oversized (413), unknown fields and malformed
// or invalid requests (400) — and requires that none of them applies an
// event or records a steer switch. A body of exactly maxAdminBody bytes
// is the accepted control.
func TestAdminRejectsApplyNothing(t *testing.T) {
	s := testServer(t, 300, 2)
	h := s.Handler()
	var link scenario.Event
	for _, ev := range s.script {
		if ev.Op == scenario.OpFailLink {
			link = ev
			break
		}
	}
	a, b := s.g.OriginalASN(link.A), s.g.OriginalASN(link.B)
	event := fmt.Sprintf(`{"op":"fail-link","a":%d,"b":%d}`, a, b)
	steer := fmt.Sprintf(`{"source":%d,"to":"red","cur_ms":40,"other_ms":10}`, a)
	pad := func(body string, size int) string { return body + strings.Repeat(" ", size-len(body)) }
	post := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}

	for _, tc := range []struct {
		name, path, body string
		code             int
	}{
		{"event oversized value", "/admin/event",
			event[:len(event)-1] + `,"pad":"` + strings.Repeat("x", maxAdminBody) + `"}`, http.StatusRequestEntityTooLarge},
		{"event oversized trailer", "/admin/event", pad(event, maxAdminBody+1), http.StatusRequestEntityTooLarge},
		{"event unknown field", "/admin/event", event[:len(event)-1] + `,"node_id":3}`, http.StatusBadRequest},
		{"event malformed", "/admin/event", `{"op":`, http.StatusBadRequest},
		{"event empty", "/admin/event", ``, http.StatusBadRequest},
		{"event unknown op", "/admin/event", `{"op":"drop-table"}`, http.StatusBadRequest},
		{"event unknown AS", "/admin/event", fmt.Sprintf(`{"op":"fail-link","a":%d,"b":999999999}`, a), http.StatusBadRequest},
		{"steer oversized", "/admin/steer-switch", pad(steer, maxAdminBody+1), http.StatusRequestEntityTooLarge},
		{"steer unknown field", "/admin/steer-switch", steer[:len(steer)-1] + `,"reason":"x"}`, http.StatusBadRequest},
		{"steer malformed", "/admin/steer-switch", `[1,2]`, http.StatusBadRequest},
	} {
		rec := post(tc.path, tc.body)
		if rec.Code != tc.code {
			t.Errorf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.code, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), `"error"`) {
			t.Errorf("%s: body %q carries no error", tc.name, rec.Body)
		}
		if e, n, sw := s.Epoch(), s.eventsApplied.Load(), s.steer.switches.Value(); e != 0 || n != 0 || sw != 0 {
			t.Fatalf("%s: epoch %d, events_applied %d, steer switches %d after a rejected request; want 0",
				tc.name, e, n, sw)
		}
	}

	// Bodies of exactly the limit are accepted and applied.
	if rec := post("/admin/event", pad(event, maxAdminBody)); rec.Code != http.StatusOK {
		t.Fatalf("event at the limit: status %d: %s", rec.Code, rec.Body)
	}
	if rec := post("/admin/steer-switch", pad(steer, maxAdminBody)); rec.Code != http.StatusOK {
		t.Fatalf("steer switch at the limit: status %d: %s", rec.Code, rec.Body)
	}
	if e, n, sw := s.Epoch(), s.eventsApplied.Load(), s.steer.switches.Value(); e != 1 || n != 1 || sw != 1 {
		t.Fatalf("after the accepted requests: epoch %d, events_applied %d, steer switches %d; want 1, 1, 1", e, n, sw)
	}
}
