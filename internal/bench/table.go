// Package bench implements the experiment suite of DESIGN.md: one runner
// per experiment id (E1–E10, F1), each regenerating the quantitative claim
// of the paper it reproduces as a printable table. cmd/lecbench runs the
// suite; the root bench_test.go wraps each runner in a testing.B benchmark.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's output.
type Table struct {
	// ID is the experiment id (e.g. "E1").
	ID string
	// Title describes the experiment.
	Title string
	// Claim is the paper statement being reproduced.
	Claim string
	// Header names the columns.
	Header []string
	// Rows hold the measurements, already formatted.
	Rows [][]string
	// Finding summarizes the outcome in one sentence.
	Finding string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "*Paper claim:* %s\n\n", t.Claim)
	}
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if t.Finding != "" {
		fmt.Fprintf(&b, "\n*Measured:* %s\n", t.Finding)
	}
	return b.String()
}

// Fprint renders the table as aligned plain text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(w, "paper claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(w, "  %-*s", widths[i], c)
			} else {
				fmt.Fprintf(w, "  %s", c)
			}
		}
		fmt.Fprintln(w)
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
	if t.Finding != "" {
		fmt.Fprintf(w, "measured: %s\n", t.Finding)
	}
	fmt.Fprintln(w)
}

// Runner is one experiment.
type Runner struct {
	ID   string
	Name string
	Run  func() (*Table, error)
}

// All returns the experiment registry in order.
func All() []Runner {
	return []Runner{
		{"E1", "Example 1.1 — LSC vs LEC plan choice", E1Example11},
		{"E2", "Theorem 3.3 — Algorithm C exactness", E2AlgorithmCExact},
		{"E3", "Proposition 3.1 — top-c merge bound", E3TopCMergeBound},
		{"E4", "Theorem 3.2/§3.2 — optimization cost scaling", E4OptimizationCost},
		{"E5", "§3.5 — dynamic memory", E5DynamicMemory},
		{"E6", "§3.6.1–2 — linear-time expected cost", E6FastExpectedCost},
		{"E7", "§3.6.3 — result-size rebucketing accuracy", E7RebucketAccuracy},
		{"E8", "§3.7 — bucketing strategies", E8BucketingStrategies},
		{"E9", "2002 ext. — expected utility and risk", E9UtilityRisk},
		{"E10", "variance sweep — LEC advantage vs variability", E10VarianceSweep},
		{"E11", "ablation — left-deep vs bushy", E11LeftDeepVsBushy},
		{"E12", "§2.3 — start-up/run-time strategy comparison", E12StrategyComparison},
		{"E13", "randomized search vs exact DP", E13RandomizedSearch},
		{"E14", "§4 future work — dependent parameters", E14DependentParameters},
		{"E15", "§3.7 — coarse-to-fine pruning", E15CoarseToFine},
		{"E16", "cost formulas vs page-level LRU replay", E16PageLevelValidation},
		{"E17", "GROUP BY — distribution-aware aggregate choice", E17Aggregation},
		{"E18", "unified engine — Space × Objective grid instrumentation", E18EngineGrid},
		{"E19", "fail-soft — anytime plan quality vs work budget", E19AnytimeCurve},
		{"E20", "graph-aware enumeration — connected-subgraph DP vs 2^n", E20GraphAwareEnumeration},
		{"E22", "tiered planning — greedy fast path, certified serving, escalation", E22TieredPlanning},
		{"F1", "Figure 1 — per-node distributions", F1NodeDistributions},
	}
}

func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string {
	return fmt.Sprintf("%.1f%%", 100*v)
}
