// Package stamp reproduces "Reliable Interdomain Routing Through Multiple
// Complementary Routing Processes" (Liao, Gao, Guérin, Zhang — ACM
// ReArch'08): the STAMP protocol, the baselines it is evaluated against
// (BGP, R-BGP with and without root cause information), the event-driven
// simulator and synthetic Internet topologies behind the paper's
// experiments, and a live TCP implementation of the wire protocol.
//
// The root package only anchors the module and the paper-level benchmark
// suite (bench_test.go); the implementation lives under internal/ and the
// one runnable entry point is cmd/stamp. See README.md for the map and
// EXPERIMENTS.md for paper-versus-measured results.
package stamp
