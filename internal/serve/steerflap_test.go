package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// TestSteerFlapWindow unit-tests the detector with an injected clock:
// switches below the threshold pass, crossing it dumps with the source
// and its latency samples in the metadata, and sliding the window
// forgets old switches.
func TestSteerFlapWindow(t *testing.T) {
	s := testServer(t, 300, 2)
	sf := s.steer
	now := time.Unix(5000, 0)
	sf.now = func() time.Time { return now }
	s.flight.now = sf.now

	// K switches are legal; the K+1st inside the window flaps.
	for i := 0; i < sf.k; i++ {
		count, flapped := sf.note(7, "blue", 80, 20)
		if flapped || count != i+1 {
			t.Fatalf("switch %d: count %d flapped %v, want %d false", i, count, flapped, i+1)
		}
		now = now.Add(time.Second)
	}
	count, flapped := sf.note(7, "red", 95, 30)
	if !flapped || count != sf.k+1 {
		t.Fatalf("threshold switch: count %d flapped %v, want %d true", count, flapped, sf.k+1)
	}
	if got := s.flight.Count(); got != 1 {
		t.Fatalf("flight dumps = %d, want 1", got)
	}
	var fd flightDump
	if err := json.Unmarshal(s.flight.Latest(), &fd); err != nil {
		t.Fatal(err)
	}
	if fd.Metadata["flight_reason"] != "steer-flap" {
		t.Errorf("flight_reason = %v, want steer-flap", fd.Metadata["flight_reason"])
	}
	if src, _ := fd.Metadata["steer_flap_source"].(float64); int64(src) != 7 {
		t.Errorf("steer_flap_source = %v, want 7", fd.Metadata["steer_flap_source"])
	}
	samples, _ := fd.Metadata["steer_flap_latency_ms"].([]any)
	if len(samples) != 2*(sf.k+1) {
		t.Errorf("latency samples = %d values, want %d (cur/other per switch)",
			len(samples), 2*(sf.k+1))
	}

	// Another source is tracked independently.
	if count, flapped := sf.note(9, "blue", 50, 10); flapped || count != 1 {
		t.Errorf("fresh source: count %d flapped %v, want 1 false", count, flapped)
	}
	// Past the window, source 7's history has slid out.
	now = now.Add(sf.window + time.Second)
	if count, flapped := sf.note(7, "blue", 60, 40); flapped || count != 1 {
		t.Errorf("post-window switch: count %d flapped %v, want 1 false", count, flapped)
	}
}

// TestSteerSwitchEndpoint drives POST /admin/steer-switch end to end:
// validation of source and color, the ack payload, and the flap dump
// reaching GET /debug/flight.
func TestSteerSwitchEndpoint(t *testing.T) {
	s := testServer(t, 300, 2)
	base := startServer(t, s)

	post := func(body string) (int, SteerSwitchAck) {
		t.Helper()
		resp, err := http.Post(base+"/admin/steer-switch", "application/json",
			bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ack SteerSwitchAck
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, ack
	}

	// Pick a real source ASN from the graph.
	src := s.g.OriginalASN(0)
	srcJSON := func(to string) string {
		raw, _ := json.Marshal(SteerSwitch{Source: src, To: to, CurMs: 120, OtherMs: 15})
		return string(raw)
	}

	if code, _ := post(`{bad json`); code != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d, want 400", code)
	}
	if code, _ := post(`{"source": 999999999, "to": "red"}`); code != http.StatusNotFound {
		t.Errorf("unknown source: status %d, want 404", code)
	}
	if code, _ := post(srcJSON("green")); code != http.StatusBadRequest {
		t.Errorf("bad color: status %d, want 400", code)
	}

	for i := 0; i <= s.steer.k; i++ {
		code, ack := post(srcJSON("blue"))
		if code != http.StatusOK {
			t.Fatalf("switch %d: status %d", i, code)
		}
		if wantFlap := i == s.steer.k; ack.Flapped != wantFlap || ack.SwitchesInWindow != i+1 {
			t.Fatalf("switch %d ack = %+v, want flapped=%v count=%d", i, ack, wantFlap, i+1)
		}
	}
	var fd flightDump
	resp, err := http.Get(base + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&fd)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if fd.Metadata["flight_reason"] != "steer-flap" {
		t.Errorf("flight_reason = %v, want steer-flap", fd.Metadata["flight_reason"])
	}
}
