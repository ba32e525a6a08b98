package topology

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// The text serialization follows the CAIDA AS-relationship "serial-1"
// format, so real inferred topologies can be dropped in as a substitute
// for the generator:
//
//	# comment
//	<provider>|<customer>|-1
//	<peer>|<peer>|0
//
// ASNs are renumbered densely on load; WriteASRelMapped maps them back
// to the originals on output.

// WriteASRelMapped writes g with every ASN translated through orig.
// Re-emitting a loaded snapshot should pass the inverse of ReadASRel's
// renumbering map so the output keeps the snapshot's original ASNs —
// otherwise the file can no longer be correlated with any external
// dataset.
func WriteASRelMapped(w io.Writer, g *Graph, orig func(ASN) int64) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# %d ASes, %d links\n", g.Len(), g.EdgeCount()); err != nil {
		return err
	}
	for _, l := range g.Links() {
		var err error
		switch l.Rel {
		case RelProvider: // l.B is provider of l.A
			_, err = fmt.Fprintf(bw, "%d|%d|-1\n", orig(l.B), orig(l.A))
		case RelPeer:
			_, err = fmt.Fprintf(bw, "%d|%d|0\n", orig(l.A), orig(l.B))
		default:
			err = fmt.Errorf("topology: unexpected link relation %v", l.Rel)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseASRel is the one serial-1 line parser every loader shares
// (ReadASRel here, the CSR ingestion in internal/atlas): it scans r,
// skips comments and blank lines, tokenizes `a|b|rel` (ignoring any
// serial-2-style trailing fields), validates the relationship code —
// -1 provider-customer, 0 peer; sibling and unknown codes fail loudly,
// since the model has no class for them and loading such a file
// silently would misclassify links — and calls emit for every link.
// For rel == -1, a is the provider of b.
func ParseASRel(r io.Reader, emit func(a, b int64, rel int) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "|")
		if len(parts) < 3 {
			return fmt.Errorf("topology: line %d: want a|b|rel, got %q", lineNo, line)
		}
		a, err := strconv.ParseInt(parts[0], 10, 64)
		if err != nil {
			return fmt.Errorf("topology: line %d: bad ASN %q: %w", lineNo, parts[0], err)
		}
		b, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return fmt.Errorf("topology: line %d: bad ASN %q: %w", lineNo, parts[1], err)
		}
		rel, err := strconv.Atoi(parts[2])
		switch {
		case err != nil:
			return fmt.Errorf("topology: line %d: bad relationship %q", lineNo, parts[2])
		case rel == 2 || rel == 1:
			// CAIDA's sibling-to-sibling code (and the inverse p2c spelling
			// some derived datasets use).
			return fmt.Errorf("topology: line %d: relationship code %d (sibling/p2c variants are not modeled; serial-1 uses -1 for provider-customer and 0 for peer)", lineNo, rel)
		case rel != -1 && rel != 0:
			return fmt.Errorf("topology: line %d: unknown relationship code %q (want -1 or 0)", lineNo, parts[2])
		}
		if err := emit(a, b, rel); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("topology: reading AS-rel file: %w", err)
	}
	return nil
}

// ReadASRel parses a CAIDA AS-relationship file into a Graph. Original
// ASNs are mapped to dense internal ASNs; the returned map translates
// original -> internal.
func ReadASRel(r io.Reader) (*Graph, map[int64]ASN, error) {
	type rawLink struct {
		a, b int64
		rel  int
	}
	var links []rawLink
	ids := make(map[int64]ASN)
	nextID := ASN(0)
	intern := func(x int64) ASN {
		if id, ok := ids[x]; ok {
			return id
		}
		ids[x] = nextID
		nextID++
		return nextID - 1
	}
	err := ParseASRel(r, func(a, b int64, rel int) error {
		links = append(links, rawLink{a: a, b: b, rel: rel})
		intern(a)
		intern(b)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	g := NewGraph(int(nextID))
	for _, l := range links {
		ia, ib := ids[l.a], ids[l.b]
		var err error
		if l.rel == -1 {
			err = g.AddProviderLink(ib, ia) // a provider, b customer
		} else {
			err = g.AddPeerLink(ia, ib)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	return g, ids, nil
}

// AutoDecompress sniffs r for the gzip magic and returns a transparently
// decompressing reader when present, r itself (buffered) otherwise.
// CAIDA publishes AS-relationship snapshots as .txt.gz; sniffing the
// bytes instead of trusting the file extension means renamed or piped
// snapshots load the same way.
func AutoDecompress(r io.Reader) (io.Reader, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(2)
	if err != nil {
		// Too short to be gzip (including empty input): hand the bytes to
		// the text parser, which produces the real diagnostic.
		return br, nil
	}
	if magic[0] != 0x1f || magic[1] != 0x8b {
		return br, nil
	}
	zr, err := gzip.NewReader(br)
	if err != nil {
		return nil, fmt.Errorf("topology: gzip-compressed input: %w", err)
	}
	return zr, nil
}

// ReadASRelAuto parses a CAIDA AS-relationship file that may be gzip
// compressed, sniffing the format from the bytes.
func ReadASRelAuto(r io.Reader) (*Graph, map[int64]ASN, error) {
	dr, err := AutoDecompress(r)
	if err != nil {
		return nil, nil, err
	}
	return ReadASRel(dr)
}

// OpenASRel loads an AS-relationship snapshot from disk, plain or gzip.
func OpenASRel(path string) (*Graph, map[int64]ASN, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	g, ids, err := ReadASRelAuto(f)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, ids, nil
}
