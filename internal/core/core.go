// Package core is the paper's primary contribution as a reusable library:
// the error-criticality evaluation methodology. Given the mismatch reports
// of a set of irradiated executions (live from a campaign or re-parsed
// from public logs), it applies the four metrics of §III — incorrect
// element count, relative error, mean relative error, spatial locality —
// under a configurable imprecision threshold and produces the aggregate
// criticality profile the paper's figures are drawn from.
package core

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"radcrit/internal/fault"
	"radcrit/internal/injector"
	"radcrit/internal/logdata"
	"radcrit/internal/metrics"
	"radcrit/internal/stats"
)

// Options configure an analysis.
type Options struct {
	// ThresholdPct is the relative-error filter; mismatches at or below
	// it are tolerated (§III uses a conservative 2%).
	ThresholdPct float64
	// CapPct bounds per-element relative errors when averaging (the
	// paper caps at 100% for DGEMM and 20,000% for LavaMD figures).
	// Zero or negative disables capping.
	CapPct float64
}

// DefaultOptions returns the paper's conservative configuration.
func DefaultOptions() Options {
	return Options{ThresholdPct: metrics.DefaultThresholdPct}
}

// Criticality is the aggregate error-criticality profile of a set of
// irradiated executions.
type Criticality struct {
	Options Options

	// TotalExecutions is the number of SDC reports examined.
	TotalExecutions int
	// CriticalSDCs is how many remain SDCs after the filter.
	CriticalSDCs int
	// FilteredFraction is the share of executions the filter cleared —
	// the paper's "apparent reliability gain" of imprecise computing.
	FilteredFraction float64

	// IncorrectElements summarises metric 1 over critical SDCs.
	IncorrectElements Summary
	// MeanRelErrPct summarises metric 3 over critical SDCs.
	MeanRelErrPct Summary
	// Locality histograms metric 4 over critical SDCs.
	Locality map[metrics.Pattern]int
	// CountVsMRECorrelation is the Pearson correlation between metrics 1
	// and 3: positive values mean wider corruption is also bigger
	// corruption.
	CountVsMRECorrelation float64
}

// Summary holds order statistics of one metric.
type Summary struct {
	Mean, Median, P90, Max float64
}

func summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return Summary{
		Mean:   stats.Mean(xs),
		Median: stats.Median(xs),
		P90:    stats.Percentile(xs, 90),
		Max:    stats.Max(xs),
	}
}

// MaxRelErrPct is the ceiling applied to unrepresentable relative errors
// (expected value zero, NaN/Inf reads) when no explicit cap is configured:
// keeping aggregates finite without disturbing any realistic magnitude.
const MaxRelErrPct = 1e15

// Analyzer accumulates the criticality profile one SDC at a time, so a
// live campaign and a parsed log share one code path. It keeps only the
// (incorrect elements, mean relative error) pair of each critical SDC, in
// arrival order, and never retains a report. Its Consume method makes it
// a campaign sink.
type Analyzer struct {
	opts         Options
	cap          float64
	total        int
	counts, mres []float64
	locality     map[metrics.Pattern]int
}

// NewAnalyzer returns an empty analysis under opts.
func NewAnalyzer(opts Options) *Analyzer {
	cap := opts.CapPct
	if cap <= 0 || cap > MaxRelErrPct {
		cap = MaxRelErrPct
	}
	return &Analyzer{opts: opts, cap: cap, locality: make(map[metrics.Pattern]int)}
}

// Add examines one SDC execution's report.
func (a *Analyzer) Add(rep *metrics.Report) {
	a.total++
	eff := rep
	if a.opts.ThresholdPct > 0 {
		eff = rep.Filter(a.opts.ThresholdPct)
	}
	if !eff.IsSDC() {
		return
	}
	a.counts = append(a.counts, float64(eff.Count()))
	a.mres = append(a.mres, eff.MeanRelErrPct(a.cap))
	a.locality[eff.Locality()]++
}

// Consume adds the report of every SDC outcome; other outcomes carry no
// mismatches and are skipped.
func (a *Analyzer) Consume(_ int, out injector.Outcome) {
	if out.Class == fault.SDC {
		a.Add(out.Report)
	}
}

// Criticality summarises the SDCs added so far.
func (a *Analyzer) Criticality() *Criticality {
	c := &Criticality{
		Options:         a.opts,
		TotalExecutions: a.total,
		CriticalSDCs:    len(a.counts),
		Locality:        maps.Clone(a.locality),
	}
	if c.TotalExecutions > 0 {
		c.FilteredFraction = 1 - float64(c.CriticalSDCs)/float64(c.TotalExecutions)
	}
	c.IncorrectElements = summarize(a.counts)
	c.MeanRelErrPct = summarize(a.mres)
	c.CountVsMRECorrelation = stats.Pearson(a.counts, a.mres)
	return c
}

// Analyze applies the methodology to a set of per-execution reports.
func Analyze(reports []*metrics.Report, opts Options) *Criticality {
	a := NewAnalyzer(opts)
	for _, rep := range reports {
		a.Add(rep)
	}
	return a.Criticality()
}

// AnalyzeLog applies the methodology to a parsed campaign log — the
// third-party re-analysis path the paper enables by publishing raw logs.
func AnalyzeLog(l *logdata.Log, opts Options) *Criticality {
	return Analyze(l.Reports(), opts)
}

// LocalityShare returns the fraction of critical SDCs with pattern p.
func (c *Criticality) LocalityShare(p metrics.Pattern) float64 {
	if c.CriticalSDCs == 0 {
		return 0
	}
	return float64(c.Locality[p]) / float64(c.CriticalSDCs)
}

// String renders a compact human-readable profile.
func (c *Criticality) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "criticality over %d SDC executions (filter >%.2g%%):\n",
		c.TotalExecutions, c.Options.ThresholdPct)
	fmt.Fprintf(&sb, "  critical SDCs: %d (%.0f%% cleared by filter)\n",
		c.CriticalSDCs, 100*c.FilteredFraction)
	fmt.Fprintf(&sb, "  incorrect elements: mean %.1f, median %.1f, p90 %.1f, max %.0f\n",
		c.IncorrectElements.Mean, c.IncorrectElements.Median,
		c.IncorrectElements.P90, c.IncorrectElements.Max)
	fmt.Fprintf(&sb, "  mean relative error: mean %.4g%%, median %.4g%%, p90 %.4g%%, max %.4g%%\n",
		c.MeanRelErrPct.Mean, c.MeanRelErrPct.Median,
		c.MeanRelErrPct.P90, c.MeanRelErrPct.Max)
	fmt.Fprintf(&sb, "  locality:")
	keys := make([]metrics.Pattern, 0, len(c.Locality))
	for p := range c.Locality {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, p := range keys {
		fmt.Fprintf(&sb, " %s=%d", p, c.Locality[p])
	}
	fmt.Fprintf(&sb, "\n  count-vs-magnitude correlation: %.2f\n", c.CountVsMRECorrelation)
	return sb.String()
}

// Verdict compares two criticality profiles and phrases which is more
// critical, mirroring the paper's cross-architecture discussion (§V-E).
func Verdict(nameA string, a *Criticality, nameB string, b *Criticality) string {
	var sb strings.Builder
	moreElems := nameA
	if b.IncorrectElements.Median > a.IncorrectElements.Median {
		moreElems = nameB
	}
	bigger := nameA
	if b.MeanRelErrPct.Median > a.MeanRelErrPct.Median {
		bigger = nameB
	}
	fmt.Fprintf(&sb, "%s corrupts more elements per SDC; %s produces larger per-element errors.\n",
		moreElems, bigger)
	if moreElems != bigger {
		fmt.Fprintf(&sb, "Choosing a platform is the paper's trade-off: many small errors (%s) vs few large ones (%s).",
			moreElems, bigger)
	} else {
		fmt.Fprintf(&sb, "%s dominates both axes: it is strictly more error-critical here.", moreElems)
	}
	return sb.String()
}
