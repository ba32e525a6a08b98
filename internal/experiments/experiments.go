// Package experiments is a set of aliases into internal/lab, kept only
// so that bench/simloss.go, which changes only with the benchmark,
// compiles unchanged. New code imports lab, and internal/traffic for the
// protocol enum; this file goes when the benchmark next moves.
package experiments

import (
	"stamp/internal/lab"
	"stamp/internal/traffic"
)

type (
	// Protocol is traffic.Protocol.
	Protocol = traffic.Protocol
	// LossResult is lab.LossResult.
	LossResult = lab.LossResult
	// TransientOpts is lab.TransientOpts.
	TransientOpts = lab.TransientOpts
)

// The four protocols of the paper's evaluation.
const (
	ProtoBGP       = traffic.BGP
	ProtoRBGPNoRCI = traffic.RBGPNoRCI
	ProtoRBGP      = traffic.RBGP
	ProtoSTAMP     = traffic.STAMP
)

var (
	// AllProtocols is traffic.AllProtocols.
	AllProtocols = traffic.AllProtocols
	// RunTransient is lab.RunTransient.
	RunTransient = lab.RunTransient
)
