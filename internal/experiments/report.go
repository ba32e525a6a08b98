package experiments

import (
	"fmt"
	"io"
	"time"

	"stamp/internal/metrics"
)

// paperAffected holds the paper's reported mean affected-AS counts for
// annotation in the rendered tables (absolute values are topology-bound;
// the ordering and rough ratios are what the reproduction targets).
var paperAffected = map[Scenario]map[Protocol]int{
	ScenarioSingleLink: {
		ProtoBGP: 6604, ProtoRBGPNoRCI: 2097, ProtoRBGP: 0, ProtoSTAMP: 357,
	},
	ScenarioTwoLinksApart: {
		ProtoBGP: 10314, ProtoRBGPNoRCI: 4242, ProtoRBGP: 861, ProtoSTAMP: 845,
	},
	ScenarioTwoLinksShared: {
		ProtoBGP: 12071, ProtoRBGPNoRCI: 3803, ProtoRBGP: 761, ProtoSTAMP: 366,
	},
}

// Print renders the transient-problem table in the paper's presentation
// order, annotated with the paper's own numbers when available.
func (r *TransientResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Transient problems under %v (%d trials)\n", r.Scenario, r.Trials)
	t := metrics.NewTable("protocol", "mean affected ASes", "paper", "mean convergence", "updates", "withdrawals", "stretch")
	paper := paperAffected[r.Scenario]
	for _, p := range AllProtocols() {
		st, ok := r.Stats[p]
		if !ok {
			continue
		}
		paperCell := "-"
		if paper != nil {
			if v, ok := paper[p]; ok {
				paperCell = fmt.Sprintf("%d", v)
			}
		}
		t.AddRow(
			p.String(),
			fmt.Sprintf("%.1f", st.MeanAffected),
			paperCell,
			st.MeanConvergence.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", st.MeanUpdates),
			fmt.Sprintf("%.0f", st.MeanWithdrawals),
			stretchCell(st.MeanStretch),
		)
	}
	// Render errors are impossible on the writers used here; surface them
	// anyway rather than swallow.
	if err := t.Render(w); err != nil {
		fmt.Fprintf(w, "render error: %v\n", err)
	}
}

// stretchCell renders a mean path-stretch value ("-" when no trial
// produced a qualifying source).
func stretchCell(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}

// OverheadResult captures the §6.3 message overhead comparison.
type OverheadResult struct {
	// BGPUpdates and STAMPUpdates are mean update counts for initial
	// route propagation.
	BGPUpdates, STAMPUpdates float64
	// Ratio is STAMP/BGP (paper: < 2).
	Ratio float64
	// FailureBGP and FailureSTAMP are mean update counts during failure
	// convergence.
	FailureBGP, FailureSTAMP float64
	// FailureRatio is the failure-phase ratio.
	FailureRatio float64
}

// Overhead derives the overhead comparison from a transient result that
// includes both BGP and STAMP.
func (r *TransientResult) Overhead() (*OverheadResult, error) {
	b, okB := r.Stats[ProtoBGP]
	s, okS := r.Stats[ProtoSTAMP]
	if !okB || !okS {
		return nil, fmt.Errorf("experiments: overhead needs both BGP and STAMP runs")
	}
	o := &OverheadResult{
		BGPUpdates:   b.InitialUpdates,
		STAMPUpdates: s.InitialUpdates,
		FailureBGP:   b.MeanUpdates,
		FailureSTAMP: s.MeanUpdates,
	}
	if b.InitialUpdates > 0 {
		o.Ratio = s.InitialUpdates / b.InitialUpdates
	}
	if b.MeanUpdates > 0 {
		o.FailureRatio = s.MeanUpdates / b.MeanUpdates
	}
	return o, nil
}

// Print renders the overhead comparison.
func (o *OverheadResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Protocol message overhead — STAMP vs BGP")
	fmt.Fprintf(w, "  initial propagation: BGP %.0f, STAMP %.0f updates (ratio %.2f; paper: < 2)\n",
		o.BGPUpdates, o.STAMPUpdates, o.Ratio)
	fmt.Fprintf(w, "  failure convergence: BGP %.0f, STAMP %.0f updates (ratio %.2f)\n",
		o.FailureBGP, o.FailureSTAMP, o.FailureRatio)
}

// ConvergenceResult captures the §6.3 convergence delay comparison.
type ConvergenceResult struct {
	BGP, STAMP time.Duration
}

// Convergence derives the convergence comparison from a transient result.
func (r *TransientResult) Convergence() (*ConvergenceResult, error) {
	b, okB := r.Stats[ProtoBGP]
	s, okS := r.Stats[ProtoSTAMP]
	if !okB || !okS {
		return nil, fmt.Errorf("experiments: convergence needs both BGP and STAMP runs")
	}
	return &ConvergenceResult{BGP: b.MeanConvergence, STAMP: s.MeanConvergence}, nil
}

// Print renders the convergence comparison.
func (c *ConvergenceResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Convergence delay after a single link failure")
	fmt.Fprintf(w, "  BGP  : %v\n", c.BGP.Round(time.Millisecond))
	fmt.Fprintf(w, "  STAMP: %v (paper: STAMP converges faster than BGP)\n", c.STAMP.Round(time.Millisecond))
}
