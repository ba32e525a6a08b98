package atlas

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"stamp/internal/prov"
	"stamp/internal/topology"
)

// The query side of route provenance: WhySpec selects a (dest, AS)
// pair, BuildWhy renders the journal's causal chains with original
// (snapshot) ASNs, State.Why walks a settled state's current routes and
// annotates each hop from the journal, and WhyReport is the
// JSON/printed shape both `stamp atlas -replay -why` and serve's GET
// /state/{dest}/{as}/why emit, from State.Why.

// WhySpec selects the (dest, AS) pair whose provenance chain a replay
// records and reports. ASNs are original (snapshot) numbers, like
// every other external surface.
type WhySpec struct {
	Dest int64
	AS   int64
	// Auto picks the first sampled destination and its first CSR
	// neighbor — a deterministic pair that always exists, for smoke
	// tests and schema fixtures that cannot know the sampled ASNs.
	Auto bool
}

// ParseWhy parses the CLI/lab spelling: "DEST:AS" or "auto".
func ParseWhy(s string) (WhySpec, error) {
	if s == "auto" {
		return WhySpec{Auto: true}, nil
	}
	ds, as, ok := strings.Cut(s, ":")
	if !ok {
		return WhySpec{}, fmt.Errorf("atlas: -why wants DEST:AS (original ASNs) or 'auto', got %q", s)
	}
	d, err := strconv.ParseInt(ds, 10, 64)
	if err != nil {
		return WhySpec{}, fmt.Errorf("atlas: bad -why destination %q: %w", ds, err)
	}
	a, err := strconv.ParseInt(as, 10, 64)
	if err != nil {
		return WhySpec{}, fmt.Errorf("atlas: bad -why AS %q: %w", as, err)
	}
	return WhySpec{Dest: d, AS: a}, nil
}

// WhyHop is one hop of a causal chain, rendered with original ASNs and
// symbolic kinds/causes: a journal entry, or, in a chain State.Why
// completes from the state, a held hop (Cause CauseHeld).
type WhyHop struct {
	Seq   uint64 `json:"seq"`
	Event uint64 `json:"event"`
	Round int32  `json:"round"`
	Cause string `json:"cause"`
	AS    int64  `json:"as"`
	// Kind/Dist/Next describe the hop's CURRENT route (the entry's new
	// side); Next is omitted at the origin and for routeless terminals.
	Kind     string `json:"kind"`
	Dist     int32  `json:"dist"`
	Next     int64  `json:"next,omitempty"`
	Origin   bool   `json:"origin,omitempty"`
	PrevKind string `json:"prev_kind"`
	PrevDist int32  `json:"prev_dist"`
}

// WhyChain is one plane's chain, head (the asking AS) first.
type WhyChain struct {
	Plane string   `json:"plane"`
	Hops  []WhyHop `json:"hops"`
	// Truncated reports that ring eviction cut BuildWhy's walk short:
	// the hops are correct but do not reach the origin. State.Why
	// completes the walk from the state and never truncates.
	Truncated bool `json:"truncated,omitempty"`
}

// WhyReport is the full three-plane answer for one (dest, AS) pair.
type WhyReport struct {
	Dest    int64      `json:"dest"`
	AS      int64      `json:"as"`
	Appends uint64     `json:"journal_appends"`
	Evicted uint64     `json:"journal_evicted"`
	Chains  []WhyChain `json:"chains"`
}

// BuildWhy reconstructs all three planes' causal chains for dense AS
// `as` from a journal recorded over g. The caller owns any locking
// that orders this read against the journal's writer.
func BuildWhy(g *Graph, j *prov.Journal, dest, as topology.ASN) *WhyReport {
	rep := newWhyReport(g, j, dest, as)
	for p := 0; p < planeCount; p++ {
		entries, trunc := j.Chain(p, int32(as))
		c := WhyChain{Plane: PlaneName(p), Truncated: trunc, Hops: make([]WhyHop, len(entries))}
		for i, e := range entries {
			c.Hops[i] = entryHop(g, &e)
		}
		rep.Chains[p] = c
	}
	return rep
}

// CauseHeld is the cause of a hop Why renders from the State because
// the journal retains no entry for it: its route predates every
// retained entry — it has been held since the last from-scratch
// convergence or the journal's attachment, or since before its oldest
// retained entry once the ring evicted.
const CauseHeld = "held"

// Why reconstructs all three planes' chains for dense AS `as` by
// walking the state's current routes from as to the origin. A hop the
// attached journal retains an entry for is rendered from that entry,
// as BuildWhy renders it; any other hop is rendered from the state as
// a held hop (Cause CauseHeld, Seq, Event and Round 0, Prev* the
// current route). By the journal invariant a hop's latest entry is its
// current route, so the two sources agree, and a routed AS's chain
// always reaches the origin: it is never truncated. The state must be
// settled; the caller orders this read against the state's writer and
// the journal's other readers.
func (st *State) Why(as topology.ASN) *WhyReport {
	g, j := st.g, st.j
	rep := newWhyReport(g, j, st.dest, as)
	for p := 0; p < planeCount; p++ {
		c := WhyChain{Plane: PlaneName(p), Hops: []WhyHop{}}
		// Current routes at a fixpoint form a forest rooted at the origin,
		// so the walk ends within N hops; the bound guards a cycle only.
		for cur, steps := int32(as), 0; ; steps++ {
			if steps == g.Len() {
				c.Truncated = true
				break
			}
			kind, dist, next := st.SnapshotRoute(p, cur)
			if e, ok := j.Latest(p, cur); ok {
				c.Hops = append(c.Hops, entryHop(g, &e))
			} else if kind != 0 {
				h := WhyHop{Cause: CauseHeld, AS: g.OriginalASN(topology.ASN(cur)), Kind: KindName(kind), Dist: dist}
				h.Next, h.Origin = hopTarget(g, next)
				h.PrevKind, h.PrevDist = h.Kind, h.Dist
				c.Hops = append(c.Hops, h)
			}
			if kind == 0 || next < 0 {
				break
			}
			cur = next
		}
		rep.Chains[p] = c
	}
	return rep
}

// newWhyReport is a report for (dest, as) with j's counters and no
// chains yet.
func newWhyReport(g *Graph, j *prov.Journal, dest, as topology.ASN) *WhyReport {
	return &WhyReport{
		Dest:    g.OriginalASN(dest),
		AS:      g.OriginalASN(as),
		Appends: j.Appends(),
		Evicted: j.Evicted(),
		Chains:  make([]WhyChain, planeCount),
	}
}

// entryHop renders one journal entry as a chain hop.
func entryHop(g *Graph, e *prov.Entry) WhyHop {
	h := WhyHop{
		Seq:      e.Seq,
		Event:    e.Event,
		Round:    e.Round,
		Cause:    e.Cause.String(),
		AS:       g.OriginalASN(topology.ASN(e.AS)),
		Kind:     KindName(e.NewKind),
		Dist:     e.NewDist,
		PrevKind: KindName(e.PrevKind),
		PrevDist: e.PrevDist,
	}
	h.Next, h.Origin = hopTarget(g, e.NewNext)
	return h
}

// hopTarget renders a dense next hop (-1 none, -2 origin) as a hop's
// Next and Origin fields.
func hopTarget(g *Graph, next int32) (int64, bool) {
	switch {
	case next >= 0:
		return g.OriginalASN(topology.ASN(next)), false
	case next == -2:
		return 0, true
	}
	return 0, false
}

// Print renders the chains for terminal output (`stamp atlas -replay
// -why`), one line per hop.
func (wr *WhyReport) Print(w io.Writer) {
	fmt.Fprintf(w, "why AS %d -> dest %d (journal: %d appends, %d evicted):\n",
		wr.AS, wr.Dest, wr.Appends, wr.Evicted)
	for _, c := range wr.Chains {
		fmt.Fprintf(w, "  %-4s", c.Plane)
		if len(c.Hops) == 0 {
			fmt.Fprintln(w, " (routeless, no recorded change)")
			continue
		}
		fmt.Fprintln(w)
		for _, h := range c.Hops {
			target := "routeless"
			switch {
			case h.Origin:
				target = "origin"
			case h.Kind != "none":
				target = fmt.Sprintf("via %d", h.Next)
			}
			fmt.Fprintf(w, "    seq %-6d ev %-4d round %-3d %-20s AS %-8d %s/%d -> %s/%d (%s)\n",
				h.Seq, h.Event, h.Round, h.Cause, h.AS,
				h.PrevKind, h.PrevDist, h.Kind, h.Dist, target)
		}
		if c.Truncated {
			fmt.Fprintln(w, "    ... truncated: older entries evicted from the ring")
		}
	}
}
