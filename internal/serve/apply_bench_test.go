//go:build unix

package serve

import (
	"runtime"
	"syscall"
	"testing"
	"time"

	"stamp/internal/scenario"
)

// BenchmarkServeApplyTracing prices the tracer serve always runs on its
// write path. Both arms apply the flap storm, cycled, through
// ApplyEvent at 50k ASes, 8 destinations and 2 workers. traced records
// every event (TraceSample 1, the default); untraced samples one event
// in 2^30, which is the first and no other. cpu-ns/op is the process's
// user and system CPU per event, both workers included; ns/op is wall
// time. Each run times the two arms one after the other, so repeat the
// run rather than -count, which times every sample of one arm first:
//
//	go test -run '^$' -bench BenchmarkServeApplyTracing -benchtime 6000x ./internal/serve/
func BenchmarkServeApplyTracing(b *testing.B) {
	g := testGraphSeed(b, 50_000, 7)
	for _, arm := range []struct {
		name   string
		sample int
	}{{"traced", 1}, {"untraced", 1 << 30}} {
		// One server per arm, and one cursor into its script: the storm is
		// restore-balanced, so cycling it is a valid endless stream, but
		// each call of the function below must resume where the last
		// stopped.
		var s *Server
		next := 0
		b.Run(arm.name, func(b *testing.B) {
			if s == nil {
				var err error
				s, err = New(Config{Graph: g, Scenario: scenario.FlapStorm, Dests: 8, Seed: 7, Workers: 2, TraceSample: arm.sample})
				if err != nil {
					b.Fatal(err)
				}
			}
			runtime.GC() // the boot's garbage is not the arm's
			cpu := cpuTime()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.ApplyEvent(s.script[next%len(s.script)]); err != nil {
					b.Fatal(err)
				}
				next++
			}
			b.StopTimer()
			b.ReportMetric(float64(cpuTime()-cpu)/float64(b.N), "cpu-ns/op")
		})
	}
}

// BenchmarkServeBoot prices serve.New at 50k ASes, 8 destinations and
// 2 workers: every shard's from-scratch convergence of three planes and
// its epoch-0 publish. B/op is what one boot allocates:
//
//	go test -run '^$' -bench BenchmarkServeBoot -benchtime 10x ./internal/serve/
func BenchmarkServeBoot(b *testing.B) {
	g := testGraphSeed(b, 50_000, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(Config{Graph: g, Scenario: scenario.FlapStorm, Dests: 8, Seed: 7, Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// cpuTime is the process's user and system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
