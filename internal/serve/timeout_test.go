package serve

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestHTTPTimeouts runs Start's server with its read and write timeouts
// shortened: a client that trickles an admin body is cut off, while an
// /events stream opened before both timeouts expire still delivers
// events after they have.
func TestHTTPTimeouts(t *testing.T) {
	s := testServer(t, 300, 2)
	srv := newHTTPServer(s.Handler())
	if srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 {
		t.Fatalf("server has ReadTimeout %v, WriteTimeout %v: a slow client can hold a connection for ever",
			srv.ReadTimeout, srv.WriteTimeout)
	}
	const timeout = 200 * time.Millisecond
	srv.ReadTimeout, srv.WriteTimeout = timeout, 2*timeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	t.Run("trickled admin body is cut", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		const bodyLen = 1000
		fmt.Fprintf(conn, "POST /admin/event HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", addr, bodyLen)
		closed := make(chan struct{})
		go func() {
			// Whatever the server answers, it then closes the connection.
			buf := make([]byte, 512)
			for {
				if _, err := conn.Read(buf); err != nil {
					close(closed)
					return
				}
			}
		}()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		deadline := time.After(10 * timeout)
		for sent := 0; sent < bodyLen; sent++ {
			select {
			case <-closed:
				return
			case <-deadline:
				t.Fatalf("server still reading a trickled body after %v (%d of %d bytes sent)", 10*timeout, sent, bodyLen)
			case <-tick.C:
				if _, err := conn.Write([]byte{' '}); err != nil {
					return // cut
				}
			}
		}
		t.Fatal("trickled body delivered whole")
	})

	t.Run("event stream outlives both timeouts", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 20*timeout)
		defer cancel()
		from := s.events.LastSeq()
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("http://%s/events?from=%d", addr, from), nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		ids := make(chan string)
		go func() {
			defer close(ids)
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				if line := sc.Text(); strings.HasPrefix(line, "id: ") {
					ids <- line
				}
			}
		}()
		for round := 0; round < 2; round++ {
			time.Sleep(3 * timeout) // past the read and the write deadline
			if _, err := s.ApplyEvent(s.script[round]); err != nil {
				t.Fatal(err)
			}
			select {
			case id, ok := <-ids:
				if !ok {
					t.Fatalf("round %d: stream closed after %v", round, time.Duration(round+1)*3*timeout)
				}
				if want := fmt.Sprintf("id: %d", from+uint64(round)+1); id != want {
					t.Fatalf("round %d: got %q, want %q", round, id, want)
				}
			case <-ctx.Done():
				t.Fatalf("round %d: no event delivered", round)
			}
		}
	})
}
