package topology

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestASRelRoundTrip(t *testing.T) {
	g, err := GenerateDefault(300, 17)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteASRel(&buf, g); err != nil {
		t.Fatalf("WriteASRel: %v", err)
	}
	g2, ids, err := ReadASRel(&buf)
	if err != nil {
		t.Fatalf("ReadASRel: %v", err)
	}
	if g2.Len() != g.Len() {
		t.Fatalf("round trip changed AS count: %d -> %d", g.Len(), g2.Len())
	}
	// Relationships must survive modulo renumbering.
	for _, l := range g.Links() {
		a, b := ids[int64(l.A)], ids[int64(l.B)]
		want := g.Rel(l.A, l.B)
		if got := g2.Rel(a, b); got != want {
			t.Fatalf("link %v: rel %v -> %v after round trip", l, want, got)
		}
	}
}

func TestReadASRelFormat(t *testing.T) {
	in := `# comment line
174|3356|0
3356|65001|-1
174|65002|-1
`
	g, ids, err := ReadASRel(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadASRel: %v", err)
	}
	if g.Len() != 4 {
		t.Fatalf("Len = %d, want 4", g.Len())
	}
	// 174 and 3356 peer; 3356 provider of 65001.
	if g.Rel(ids[174], ids[3356]) != RelPeer {
		t.Error("peer relationship lost")
	}
	if g.Rel(ids[65001], ids[3356]) != RelProvider {
		t.Error("provider relationship lost")
	}
}

func TestReadASRelErrors(t *testing.T) {
	cases := []struct{ in, wantErr string }{
		{"1|2", "want a|b|rel"},             // too few fields
		{"x|2|-1", "bad ASN"},               // bad ASN
		{"1|y|0", "bad ASN"},                // bad ASN
		{"1|2|7", "unknown relationship"},   // unrecognized code
		{"1|2|zz", "bad relationship"},      // non-numeric code
		{"1|2|2", "sibling"},                // CAIDA sibling code
		{"1|2|1", "sibling"},                // inverse p2c spelling
		{"1|2|-1\n2|3|-1\n3|1|-1", "cycle"}, // provider cycle
		{"1|2|-1\n1|2|0", "duplicate"},      // conflicting claims
		{"5|5|0", "self"},                   // self peering
	}
	for _, tc := range cases {
		_, _, err := ReadASRel(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("input %q accepted", tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("input %q: error %q does not mention %q", tc.in, err, tc.wantErr)
		}
	}
}

// caidaSerial1Fixture mimics a real serial-1 snapshot: comment header,
// sparse original ASNs, and a serial-2-style trailing source field
// that readers must ignore.
const caidaSerial1Fixture = `# inferred AS relationships (serial-1)
# provider|customer|-1, peer|peer|0
174|3356|0
174|64512|-1
3356|64512|-1
3356|65001|-1
64512|65002|-1|bgp
65001|65002|-1
`

// TestReadASRelAutoGzip: the gzip-compressed fixture reads identically
// to the plain one — the format is sniffed from the bytes, so renamed
// CAIDA .txt.gz snapshots load without ceremony.
func TestReadASRelAutoGzip(t *testing.T) {
	plain, plainIDs, err := ReadASRelAuto(strings.NewReader(caidaSerial1Fixture))
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(caidaSerial1Fixture)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	zg, ids, err := ReadASRelAuto(&buf)
	if err != nil {
		t.Fatalf("gzip: %v", err)
	}
	if zg.Len() != plain.Len() || zg.EdgeCount() != plain.EdgeCount() {
		t.Fatalf("gzip read %d/%d, plain %d/%d", zg.Len(), zg.EdgeCount(), plain.Len(), plain.EdgeCount())
	}
	if zg.Rel(ids[174], ids[3356]) != RelPeer || zg.Rel(ids[64512], ids[174]) != RelProvider {
		t.Error("relationships lost in gzip round trip")
	}
	if !zg.IsMultihomed(ids[64512]) || !zg.IsMultihomed(ids[65002]) {
		t.Error("multihoming lost in gzip round trip")
	}
	_ = plainIDs
}

// TestOpenASRel: the disk loader handles plain and gzip files and
// reports the path on failure.
func TestOpenASRel(t *testing.T) {
	dir := t.TempDir()
	plainPath := filepath.Join(dir, "snapshot.txt")
	if err := os.WriteFile(plainPath, []byte(caidaSerial1Fixture), 0o644); err != nil {
		t.Fatal(err)
	}
	gzPath := filepath.Join(dir, "snapshot.txt.gz")
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(caidaSerial1Fixture)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gzPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{plainPath, gzPath} {
		g, _, err := OpenASRel(path)
		if err != nil {
			t.Fatalf("OpenASRel(%s): %v", path, err)
		}
		if g.Len() != 5 {
			t.Fatalf("%s: Len = %d, want 5", path, g.Len())
		}
	}
	if _, _, err := OpenASRel(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file opened without error")
	}
	// A corrupt gzip body fails with a diagnostic naming the file.
	badPath := filepath.Join(dir, "corrupt.gz")
	if err := os.WriteFile(badPath, buf.Bytes()[:20], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenASRel(badPath); err == nil {
		t.Error("corrupt gzip opened without error")
	} else if !strings.Contains(err.Error(), "corrupt.gz") {
		t.Errorf("error %q does not name the file", err)
	}
}

// TestWriteReadGzipRoundTrip: a generated graph written, compressed,
// and re-read survives structurally — the full ingestion path an
// operator exercises with `stamp topo | gzip`.
func TestWriteReadGzipRoundTrip(t *testing.T) {
	g, err := GenerateDefault(200, 11)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := WriteASRel(&text, g); err != nil {
		t.Fatal(err)
	}
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(text.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	g2, ids, err := ReadASRelAuto(&zbuf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Len() != g.Len() || g2.EdgeCount() != g.EdgeCount() {
		t.Fatalf("gzip round trip changed shape: %d/%d -> %d/%d",
			g.Len(), g.EdgeCount(), g2.Len(), g2.EdgeCount())
	}
	for _, l := range g.Links() {
		if got, want := g2.Rel(ids[int64(l.A)], ids[int64(l.B)]), g.Rel(l.A, l.B); got != want {
			t.Fatalf("link %v: rel %v -> %v after gzip round trip", l, want, got)
		}
	}
}

func TestReadASRelEmpty(t *testing.T) {
	g, _, err := ReadASRel(strings.NewReader("# nothing\n"))
	if err != nil {
		t.Fatalf("empty file rejected: %v", err)
	}
	if g.Len() != 0 {
		t.Errorf("Len = %d, want 0", g.Len())
	}
}

// WriteASRel writes g in CAIDA AS-relationship format, emitting the
// graph-internal ASNs directly.
func WriteASRel(w io.Writer, g *Graph) error {
	return WriteASRelMapped(w, g, func(a ASN) int64 { return int64(a) })
}
