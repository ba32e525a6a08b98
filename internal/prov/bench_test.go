package prov

import "testing"

// BenchmarkProvWhy measures causal-chain reconstruction (the query
// behind `stamp why` and GET /state/{dest}/{as}/why) against a journal
// shaped like a settled fixpoint: a deep line of hops plus churn
// entries the backward scan must skip. The benchjson summary archives
// the queries/s metric under why_queries_per_s.
func BenchmarkProvWhy(b *testing.B) {
	const (
		hops  = 32
		churn = 4096
	)
	j := NewJournal(1 << 14)
	j.BeginWindow(0, false)
	// Line topology: AS 0 is the origin, AS i routes via i-1.
	j.Note(0, 0, CauseSeedFrontier, 0, 0, -1, 1, 0, -2)
	for i := int32(1); i < hops; i++ {
		j.Note(i, i, CauseNeighborAdvert, 0, 0, -1, 1, i, i-1)
	}
	// Churn on unrelated ASes buries the chain's entries in the ring.
	j.BeginEvent()
	j.BeginWindow(1, false)
	for i := int32(0); i < churn; i++ {
		as := hops + i%512
		j.Note(as, 1, CauseSeedFrontier, 0, 0, -1, 2, 4, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chain, trunc := j.Chain(0, hops-1)
		if trunc || len(chain) != hops {
			b.Fatalf("chain len %d trunc %v", len(chain), trunc)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkProvWhyAfterNote is the index's rebuild worst case: every
// iteration appends one entry, so every Chain first rebuilds the
// (plane, AS) index over a full ring of the serve default's 4,096
// entries. The appends re-note the chain's own hops round-robin, so
// the chain stays retained however far the ring wraps. The benchjson
// summary archives the queries/s metric under
// why_after_note_queries_per_s.
func BenchmarkProvWhyAfterNote(b *testing.B) {
	const (
		hops     = 32
		capacity = 4096
	)
	j := NewJournal(capacity)
	j.BeginWindow(0, false)
	line := func(i int32) {
		if i == 0 {
			j.Note(0, 0, CauseSeedFrontier, 0, 0, -1, 1, 0, -2)
			return
		}
		j.Note(i, i, CauseNeighborAdvert, 0, 0, -1, 1, i, i-1)
	}
	for i := int32(0); i < hops; i++ {
		line(i)
	}
	// Fill the ring with churn on unrelated ASes.
	for i := int32(0); j.Len() < capacity; i++ {
		j.Note(hops+i%512, 1, CauseSeedFrontier, 0, 0, -1, 2, 4, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line(int32(i % hops))
		chain, trunc := j.Chain(0, hops-1)
		if trunc || len(chain) != hops {
			b.Fatalf("chain len %d trunc %v", len(chain), trunc)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}
