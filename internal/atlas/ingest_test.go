package atlas

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"stamp/internal/topology"
)

// caidaFixture is a small real-format serial-1 snapshot: comment
// header, sparse original ASNs, provider and peer lines, and a
// serial-2-style trailing field that must be ignored.
const caidaFixture = `# inferred AS relationships
# source: serial-1 fixture
174|3356|0
174|64512|-1
3356|64512|-1
3356|65001|-1
64512|65002|-1|bgp
65001|65002|-1
`

// TestIngestFixture: the real-format fixture parses into the expected
// CSR structure with dense renumbering and original-ASN recovery.
func TestIngestFixture(t *testing.T) {
	g, err := Ingest(strings.NewReader(caidaFixture))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 5 {
		t.Fatalf("ASes = %d, want 5", g.Len())
	}
	if g.EdgeCount() != 6 {
		t.Fatalf("links = %d, want 6", g.EdgeCount())
	}
	// First-seen order: 174, 3356, 64512, 65001, 65002.
	wantOrig := []int64{174, 3356, 64512, 65001, 65002}
	for i, want := range wantOrig {
		if got := g.OriginalASN(topology.ASN(i)); got != want {
			t.Fatalf("OriginalASN(%d) = %d, want %d", i, got, want)
		}
	}
	// 174 and 3356 peer; both are providers of 64512.
	if got := g.Rel(0, 1); got != topology.RelPeer {
		t.Fatalf("Rel(174,3356) = %v, want peer", got)
	}
	if got := g.Rel(2, 0); got != topology.RelProvider {
		t.Fatalf("Rel(64512,174) = %v, want provider", got)
	}
	if !g.IsMultihomed(2) {
		t.Fatal("64512 should be multihomed (174 + 3356)")
	}
	if !g.IsTier1(0) || !g.IsTier1(1) {
		t.Fatal("174 and 3356 should be provider-free")
	}
	// 65002 is multihomed under 64512 and 65001.
	if !g.IsMultihomed(4) {
		t.Fatal("65002 should be multihomed")
	}
	mustReverseIndex(t, g)
}

// TestIngestGzip: the same bytes gzip-compressed ingest identically —
// format is sniffed, not extension-guessed.
func TestIngestGzip(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(caidaFixture)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := Ingest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Ingest(strings.NewReader(caidaFixture))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != plain.Len() || g.EdgeCount() != plain.EdgeCount() {
		t.Fatalf("gzip ingest differs: %d/%d vs %d/%d", g.Len(), g.EdgeCount(), plain.Len(), plain.EdgeCount())
	}
}

// TestIngestRoundTripGenerated: WriteASRelMapped → Ingest reproduces a
// generated topology exactly (via the CSR conversion as reference).
func TestIngestRoundTripGenerated(t *testing.T) {
	tg, err := topology.GenerateDefault(300, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := topology.WriteASRelMapped(&buf, tg, func(a topology.ASN) int64 { return int64(a) }); err != nil {
		t.Fatal(err)
	}
	got, err := Ingest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want, err := FromTopology(tg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() || got.EdgeCount() != want.EdgeCount() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d", got.Len(), got.EdgeCount(), want.Len(), want.EdgeCount())
	}
	mustReverseIndex(t, got)
	// The identity map emits graph-internal ASNs, and Ingest renumbers in
	// first-seen order; relationships must agree under that mapping.
	for a := 0; a < want.Len(); a++ {
		v := topology.ASN(a)
		ga := topology.ASN(int32(got.origIndex(int64(a))))
		for _, p := range want.Providers(v) {
			gp := topology.ASN(int32(got.origIndex(int64(p))))
			if got.Rel(ga, gp) != topology.RelProvider {
				t.Fatalf("AS %d provider %d lost in round trip", a, p)
			}
		}
		for _, p := range want.Peers(v) {
			gp := topology.ASN(int32(got.origIndex(int64(p))))
			if got.Rel(ga, gp) != topology.RelPeer {
				t.Fatalf("AS %d peer %d lost in round trip", a, p)
			}
		}
	}
}

// origIndex finds the dense id of an original ASN (test helper, linear).
func (g *Graph) origIndex(orig int64) int32 {
	for i, o := range g.orig {
		if o == orig {
			return int32(i)
		}
	}
	return -1
}

// ingestErrorCases are malformed snapshots and the error each must
// name.
var ingestErrorCases = []struct {
	name, input, wantErr string
}{
	{"sibling code", "1|2|2\n", "sibling"},
	{"p2c spelling", "1|2|1\n", "sibling"},
	{"unknown code", "1|2|7\n", "unknown relationship"},
	{"short line", "1|2\n", "want a|b|rel"},
	{"bad asn", "x|2|-1\n", "bad ASN"},
	{"bad rel", "1|2|zz\n", "bad relationship"},
	{"empty", "# only comments\n", "no links"},
	{"provider cycle", "1|2|-1\n2|3|-1\n3|1|-1\n", "cycle"},
	{"duplicate link", "1|2|-1\n1|2|0\n", "duplicate"},
	{"self link", "1|1|-1\n", "self link"},
}

// TestIngestErrors: malformed snapshots fail loudly with the offending
// line, never silently drop links.
func TestIngestErrors(t *testing.T) {
	for _, tc := range ingestErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Ingest(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("no error for %q", tc.input)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestIngestTruncatedGzip: a corrupt gzip stream is an error, not an
// empty graph.
func TestIngestTruncatedGzip(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(caidaFixture)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Ingest(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated gzip ingested without error")
	}
}

// FuzzIngest feeds arbitrary bytes, plain or gzip, to Ingest. It must
// never panic. A graph it accepts must hold its CSR invariants: rev is
// an involution that leads back to the row owner, every relationship
// group is sorted, the leaf set is exactly the ASes without customers,
// provider/customer and peer entries come in inverse pairs, and the
// same bytes ingest to the same graph. A small accepted
// graph must also converge at a multihomed destination.
//
// Run long with: go test -fuzz=FuzzIngest ./internal/atlas/
func FuzzIngest(f *testing.F) {
	f.Add([]byte(caidaFixture))
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte(caidaFixture))
	zw.Close()
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	for _, tc := range ingestErrorCases {
		f.Add([]byte(tc.input))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Ingest(bytes.NewReader(data))
		if err != nil {
			return
		}
		for a := topology.ASN(0); a < topology.ASN(g.n); a++ {
			for _, grp := range [][]topology.ASN{g.Providers(a), g.Peers(a), g.Customers(a)} {
				if !slices.IsSorted(grp) {
					t.Fatalf("AS %d has an unsorted relationship group %v", a, grp)
				}
			}
			if leaf, none := g.leaf.has(int32(a)), len(g.Customers(a)) == 0; leaf != none {
				t.Fatalf("AS %d: leaf bit %v, but %d customers", a, leaf, len(g.Customers(a)))
			}
			for e := g.off[a]; e < g.off[a+1]; e++ {
				b, r := g.nbr[e], g.rev[e]
				if r < 0 || int(r) >= len(g.nbr) || g.rev[r] != e {
					t.Fatalf("rev is not an involution at entry %d (edge %d->%d)", e, a, b)
				}
				if g.nbr[r] != a {
					t.Fatalf("nbr[rev[%d]] = %d, want the row owner %d", e, g.nbr[r], a)
				}
				if got, want := entryRel(g, b, r), entryRel(g, a, e).Invert(); got != want {
					t.Fatalf("edge %d->%d is %v but its reverse sits in %d's %v group", a, b, entryRel(g, a, e), b, got)
				}
			}
		}
		again, err := Ingest(bytes.NewReader(data))
		if err != nil || !reflect.DeepEqual(g, again) {
			t.Fatalf("the same bytes ingested differently (second error %v)", err)
		}
		if g.Len() > 200 {
			return
		}
		for a := topology.ASN(0); a < topology.ASN(g.n); a++ {
			if g.IsMultihomed(a) {
				eng := NewEngine(g, DefaultParams())
				if err := eng.InitDest(eng.NewState(), a); err != nil {
					t.Fatalf("InitDest at multihomed AS %d: %v", a, err)
				}
				return
			}
		}
	})
}

// TestDenseASNInvertsOriginalASN: on an ingested snapshot whose ASNs are
// sparse and first seen out of order, DenseASN inverts OriginalASN for
// every AS and misses on ASNs the snapshot does not hold; on a generated
// graph it is the identity on [0, N).
func TestDenseASNInvertsOriginalASN(t *testing.T) {
	const n = 300
	asn := func(k int) int64 { return int64(k) * 2654435761 % (1 << 31) } // a bijection: the factor is odd
	var b strings.Builder
	for k := 2; k <= n; k++ {
		fmt.Fprintf(&b, "%d|%d|-1\n", asn(k/2), asn(k)) // k/2 provides for k
		if k%7 == 0 {
			fmt.Fprintf(&b, "%d|%d|0\n", asn(k), asn(k-1))
		}
	}
	g, err := Ingest(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != n {
		t.Fatalf("ASes = %d, want %d", g.Len(), n)
	}
	held := make(map[int64]bool, n)
	for a := 0; a < g.Len(); a++ {
		orig := g.OriginalASN(topology.ASN(a))
		held[orig] = true
		if d, ok := g.DenseASN(orig); !ok || d != topology.ASN(a) {
			t.Fatalf("DenseASN(OriginalASN(%d) = %d) = %d, %v", a, orig, d, ok)
		}
	}
	for _, orig := range []int64{-1, 0, asn(n + 1), asn(2) + 1, asn(n) - 1, 1 << 40} {
		if held[orig] {
			continue
		}
		if d, ok := g.DenseASN(orig); ok {
			t.Errorf("DenseASN(%d) = %d, want a miss", orig, d)
		}
	}

	_, gen := testGraph(t, 50, 1)
	for a := 0; a < gen.Len(); a++ {
		if d, ok := gen.DenseASN(int64(a)); !ok || d != topology.ASN(a) {
			t.Fatalf("generated DenseASN(%d) = %d, %v", a, d, ok)
		}
	}
	for _, orig := range []int64{-1, int64(gen.Len())} {
		if _, ok := gen.DenseASN(orig); ok {
			t.Errorf("generated DenseASN(%d) hit", orig)
		}
	}
}
