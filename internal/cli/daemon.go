package cli

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"stamp/internal/netd"
	"stamp/internal/obs"
	"stamp/internal/serve"
	"stamp/internal/topology"
	"stamp/internal/wire"
)

// cmdDaemon is `stamp daemon`: one live STAMP routing process (one
// color) speaking the wire protocol over TCP. A full STAMP router runs
// two daemons, red and blue, on distinct ports — exactly the paper's
// deployment story.
//
// Peers are addr,AS,rel triples where rel is one of customer, peer,
// provider (the remote's role from our perspective).
func (e env) cmdDaemon(args []string) int {
	fs := e.flagSet("stamp daemon")
	var (
		asn       = fs.Uint("as", 0, "local AS number (required)")
		id        = fs.Uint("id", 1, "router ID")
		color     = fs.String("color", "red", "process color: red or blue")
		listen    = fs.String("listen", "", "listen address (optional)")
		originate = fs.String("originate", "", "prefix to originate (optional)")
		lock      = fs.Uint("lock", 0, "provider AS receiving the locked blue announcement")
		accept    = fs.String("accept", "", "inbound peers: AS,rel pairs separated by ';'")
		metrics   = fs.String("metrics", "", "serve /metrics, /healthz, and /events on this address (optional)")
		pprofOn   = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the -metrics listener")
	)
	var peers []peerFlag
	fs.Func("peer", "outbound peer as addr,AS,rel (repeatable)", func(v string) error {
		p, err := parsePeer(v)
		if err != nil {
			return err
		}
		peers = append(peers, p)
		return nil
	})
	if code, done := parse(fs, args); done {
		return code
	}

	if *asn == 0 || *asn > 65535 {
		fmt.Fprintln(e.stderr, "stamp daemon: -as is required (1..65535)")
		return ExitUsage
	}
	var colorByte byte
	switch *color {
	case "red":
		colorByte = 0
	case "blue":
		colorByte = 1
	default:
		fmt.Fprintln(e.stderr, "stamp daemon: -color must be red or blue")
		return ExitUsage
	}

	logger := log.New(e.stderr, "", log.LstdFlags)
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	wireMetrics := netd.NewMetrics(reg)
	events := obs.NewEventLog(1024)
	routeChanges := daemonRouteChanges(reg)
	sp := netd.NewSpeaker(netd.SpeakerConfig{
		AS:       uint16(*asn),
		RouterID: uint32(*id),
		Color:    colorByte,
		Logf:     logger.Printf,
		Metrics:  wireMetrics,
	})
	// Route changes flow through the structured event log (streamed on
	// /events when -metrics is set); the stderr line renders the same
	// record so a bare daemon stays observable.
	sp.OnChange = func(p wire.Prefix, best *wire.Attrs) {
		routeChanges.Inc()
		rec := daemonRouteChange{Prefix: p.String(), Lost: best == nil}
		if best != nil {
			for _, as := range best.ASPath {
				rec.Path = append(rec.Path, int(as))
			}
			rec.Lock = best.Lock
		}
		data, _ := json.Marshal(rec)
		detail := "route to " + rec.Prefix + " lost"
		if best != nil {
			detail = fmt.Sprintf("best route to %v: path %v lock=%v", p, best.ASPath, best.Lock)
		}
		events.Append("route-change", detail, data)
		logger.Print(detail)
	}

	if *listen != "" {
		expect, err := parseAccept(*accept)
		if err != nil {
			fmt.Fprintln(e.stderr, "stamp daemon:", err)
			return ExitUsage
		}
		addr, err := sp.Listen(*listen, expect)
		if err != nil {
			return e.fail(err)
		}
		logger.Printf("listening on %v", addr)
	}
	for _, p := range peers {
		if err := sp.Dial(p.addr, p.as, p.rel); err != nil {
			return e.fail(err)
		}
		logger.Printf("dialing %s (AS%d, %v)", p.addr, p.as, p.rel)
	}
	if *originate != "" {
		p, err := netip.ParsePrefix(*originate)
		if err != nil {
			fmt.Fprintln(e.stderr, "stamp daemon: bad -originate prefix:", err)
			return ExitUsage
		}
		pfx := wire.Prefix{Addr: p.Addr(), Bits: p.Bits()}
		sp.Originate(pfx, uint16(*lock))
		logger.Printf("originating %v (lock provider AS%d)", pfx, *lock)
	}

	// The observability listener shares the serve layer's mux: the same
	// /metrics, /healthz, and /events surface, scraped the same way.
	var stopMetrics func()
	if *metrics != "" {
		closing := make(chan struct{})
		mux := serve.ObsMux(serve.MuxConfig{
			Registry: reg,
			Events:   events,
			Health: func() any {
				return map[string]any{
					"status": "ok", "as": *asn, "color": *color,
					"sessions_up":   wireMetrics.SessionsUp.Value(),
					"route_changes": routeChanges.Value(),
				}
			},
			Closing: closing,
			Pprof:   *pprofOn,
		})
		srv, addr, err := serveMux(mux, *metrics)
		if err != nil {
			return e.fail(err)
		}
		logger.Printf("metrics on http://%s/metrics", addr)
		stopMetrics = func() {
			close(closing)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}
	}

	// Run until the process context (Ctrl-C / SIGTERM in cmd/stamp) is
	// canceled, then close every session cleanly.
	<-e.ctx.Done()
	if stopMetrics != nil {
		stopMetrics()
	}
	sp.Close()
	return ExitOK
}

// serveMux binds addr and serves the mux in the background, returning
// the server handle and the bound address.
func serveMux(mux http.Handler, addr string) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("metrics listener: %w", err)
	}
	// The same limits as stamp serve's listener; /events streams outlive
	// them.
	srv := &http.Server{
		Handler:      mux,
		ReadTimeout:  10 * time.Second,
		WriteTimeout: time.Minute,
	}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// daemonRouteChange is the structured payload of a route-change event.
type daemonRouteChange struct {
	Prefix string `json:"prefix"`
	Lost   bool   `json:"lost,omitempty"`
	Path   []int  `json:"path,omitempty"`
	Lock   bool   `json:"lock,omitempty"`
}

type peerFlag struct {
	addr string
	as   uint16
	rel  topology.Rel
}

func parsePeer(v string) (peerFlag, error) {
	parts := strings.Split(v, ",")
	if len(parts) != 3 {
		return peerFlag{}, fmt.Errorf("want addr,AS,rel, got %q", v)
	}
	as, err := strconv.ParseUint(parts[1], 10, 16)
	if err != nil {
		return peerFlag{}, fmt.Errorf("bad AS %q", parts[1])
	}
	rel, err := parseRel(parts[2])
	if err != nil {
		return peerFlag{}, err
	}
	return peerFlag{addr: parts[0], as: uint16(as), rel: rel}, nil
}

func parseAccept(v string) (map[uint16]topology.Rel, error) {
	out := make(map[uint16]topology.Rel)
	if v == "" {
		return out, nil
	}
	for _, item := range strings.Split(v, ";") {
		parts := strings.Split(item, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("accept: want AS,rel, got %q", item)
		}
		as, err := strconv.ParseUint(parts[0], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("accept: bad AS %q", parts[0])
		}
		rel, err := parseRel(parts[1])
		if err != nil {
			return nil, err
		}
		out[uint16(as)] = rel
	}
	return out, nil
}

func parseRel(s string) (topology.Rel, error) {
	switch s {
	case "customer":
		return topology.RelCustomer, nil
	case "peer":
		return topology.RelPeer, nil
	case "provider":
		return topology.RelProvider, nil
	}
	return topology.RelNone, fmt.Errorf("bad relationship %q (customer|peer|provider)", s)
}

// daemonRouteChanges registers the daemon's own metric family; the rest
// of its /metrics surface is the runtime and netd families.
func daemonRouteChanges(reg *obs.Registry) *obs.Counter {
	return reg.Counter("stamp_daemon_route_changes_total",
		"Best-route changes (including losses) observed by this daemon.")
}
