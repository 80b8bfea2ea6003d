// Command lecopt optimizes an SPJ SQL query under an uncertain execution
// environment and explains the chosen plan, side by side across the paper's
// strategies.
//
// Usage:
//
//	lecopt -demo
//	lecopt -demo -sql "SELECT * FROM A, B WHERE A.k = B.k ORDER BY A.k" -mem "700:0.2,2000:0.8"
//	lecopt -catalog schema.txt -sql "..." -mem "100:0.5,4000:0.5" -strategy c
//	lecopt -demo -volatility 0.3            # dynamic memory via a Markov walk
//	lecopt -demo -strategy c -explain       # engine instrumentation counters
//	lecopt -demo -strategy c -trace         # per-subset DP decision trace
//	lecopt -demo -timeout 50ms -budget 1000 # fail-soft: bounded optimization
//	lecopt -demo -strategy c -enum connected # graph-aware enumeration (csg only)
//
// The -mem spec is "value:probability, ..." (weights are normalized). The
// catalog file format is documented in internal/catalog.Load.
//
// Exit codes: 0 success (including a degraded plan under -timeout/-budget,
// reported with a warning on stderr), 1 internal error, 2 usage error,
// 3 invalid input (bad SQL, unknown relation, bad distribution), 4 budget or
// deadline exhausted with no plan to return.
//
// lecopt optimizes one query per process. To serve many clients from one
// long-running process — with a shared single-flight plan cache, admission
// control, and graceful degradation under overload — run the lecd daemon
// (cmd/lecd) instead.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"

	"repro/internal/catalog"
	"repro/internal/query"
	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/lec"
)

// Exit codes.
const (
	exitInternal = 1
	exitUsage    = 2
	exitInput    = 3
	exitBudget   = 4
)

// CLI-layer sentinels: errUsage marks bad invocations, errInput marks
// well-formed invocations with unusable inputs.
var (
	errUsage = errors.New("usage")
	errInput = errors.New("invalid input")
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "lecopt:", err)
	os.Exit(exitCode(err))
}

// exitCode maps an error onto the documented exit codes via the lec error
// taxonomy.
func exitCode(err error) int {
	switch {
	case errors.Is(err, errUsage) || errors.Is(err, flag.ErrHelp):
		return exitUsage
	case errors.Is(err, errInput),
		errors.Is(err, lec.ErrInvalidDistribution),
		errors.Is(err, lec.ErrInvalidQuery),
		errors.Is(err, lec.ErrUnknownRelation):
		return exitInput
	case errors.Is(err, lec.ErrBudgetExhausted):
		return exitBudget
	default:
		return exitInternal
	}
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("lecopt", flag.ContinueOnError)
	fs.SetOutput(errOut)
	demo := fs.Bool("demo", false, "use the paper's Example 1.1 catalog and query")
	catalogPath := fs.String("catalog", "", "catalog description file")
	sql := fs.String("sql", "", "SPJ query to optimize")
	memSpec := fs.String("mem", "700:0.2,2000:0.8", "memory distribution, value:prob pairs")
	strategy := fs.String("strategy", "all", "lsc-mean|lsc-mode|a|b|c|d|all")
	volatility := fs.Float64("volatility", 0, "per-phase probability of a memory step (dynamic §3.5 model)")
	voi := fs.Bool("voi", false, "report the value of observing the true memory before planning")
	choice := fs.Bool("choice", false, "compile and print a [GC94] choice plan instead of optimizing")
	simulate := fs.Int("simulate", 0, "simulate the chosen plan N times and report realized cost")
	explain := fs.Bool("explain", false, "print the search engine's instrumentation counters")
	trace := fs.Bool("trace", false, "record and print the per-subset DP decision trace (single -strategy runs)")
	timeout := fs.Duration("timeout", 0, "optimization deadline; on expiry a degraded fallback plan is returned (0 = none)")
	budget := fs.Int("budget", 0, "max cost-formula evaluations per optimization; on exhaustion a degraded fallback plan is returned (0 = unlimited)")
	enum := fs.String("enum", "exhaustive", "subset-lattice enumerator: exhaustive|connected (connected skips cross-join subsets; falls back to exhaustive on disconnected join graphs)")
	tier := fs.String("tier", "dp", "planning tier: dp (always full search), auto (greedy fast path served within a 2% expected-cost bound of the optimum, DP otherwise), greedy (serve the fast path unconditionally)")
	fs.Usage = func() {
		fmt.Fprintf(errOut, "usage: lecopt (-demo | -catalog <file>) [flags]\n\nflags:\n")
		fs.PrintDefaults()
		fmt.Fprint(errOut, `
exit codes:
  0  success (including a degraded plan under -timeout/-budget, with a warning on stderr)
  1  internal error
  2  usage error
  3  invalid input (bad SQL, unknown relation, bad distribution)
  4  budget or deadline exhausted with no plan to return

serving:
  lecopt optimizes one query per process; to serve many clients from one
  long-running process (shared plan cache, admission control, graceful
  degradation under overload) run the lecd daemon: go run ./cmd/lecd -demo
`)
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %w", errUsage, err)
	}

	var cat *catalog.Catalog
	var q *query.SPJ
	queryText := *sql
	switch {
	case *demo:
		var demoDM *stats.Dist
		var demoQ *query.SPJ
		cat, demoQ, demoDM = workload.Example11()
		if queryText == "" {
			// Use the fixture's SPJ block directly: its join selectivity is
			// calibrated so the result is 3000 pages, the paper's numbers.
			q = demoQ
			queryText = demoQ.String()
		}
		if !flagWasSet(fs, "mem") {
			*memSpec = distToSpec(demoDM)
		}
	case *catalogPath != "":
		f, err := os.Open(*catalogPath)
		if err != nil {
			return fmt.Errorf("%w: %w", errInput, err)
		}
		defer f.Close()
		cat, err = catalog.Load(f)
		if err != nil {
			return fmt.Errorf("%w: %w", errInput, err)
		}
	default:
		return fmt.Errorf("%w: need -demo or -catalog <file>", errUsage)
	}
	if queryText == "" && q == nil {
		return fmt.Errorf("%w: need -sql (or -demo for the default query)", errUsage)
	}
	dm, err := stats.ParseDist(*memSpec)
	if err != nil {
		return fmt.Errorf("%w: %w", errInput, err)
	}
	if q == nil {
		q, err = sqlparse.ParseAndBind(queryText, cat)
		if err != nil {
			return fmt.Errorf("%w: %w", errInput, err)
		}
	}
	env := lec.Environment{Memory: dm}
	if *volatility > 0 {
		chain, err := stats.RandomWalkChain(dm.Support(), *volatility, *volatility)
		if err != nil {
			return fmt.Errorf("%w: %w", errInput, err)
		}
		env.Chain = chain
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	enumMode, err := lec.ParseEnumeration(*enum)
	if err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	tierMode, err := lec.ParseTier(*tier)
	if err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	o := lec.NewWithOptions(cat, lec.Options{Budget: lec.Budget{MaxCostEvals: *budget}, Trace: *trace, Enumeration: enumMode, Tier: tierMode})
	fmt.Fprintf(out, "query:  %s\nmemory: %s\n\n", queryText, dm)

	if *choice {
		cp, err := o.CompileChoicePlan(q)
		if err != nil {
			return err
		}
		fmt.Fprint(out, cp.Explain())
		ec, err := cp.ExpCost(dm)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "expected cost with start-up resolution: %.0f\n", ec)
		return nil
	}
	if *voi {
		v, err := o.ValueOfInformation(q, env)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "E[cost] committing now (LEC):        %.0f\n", v.LECCost)
		fmt.Fprintf(out, "E[cost] if memory observed first:    %.0f\n", v.InformedCost)
		fmt.Fprintf(out, "value of perfect information (EVPI): %.0f page I/Os\n", v.EVPI)
		return nil
	}

	if *strategy != "all" {
		s, err := lec.ParseStrategy(*strategy)
		if err != nil {
			return fmt.Errorf("%w: %w", errUsage, err)
		}
		d, err := o.OptimizeContext(ctx, q, env, s)
		if err != nil {
			return err
		}
		warnDegraded(errOut, d)
		fmt.Fprintln(out, d.Explain())
		if *trace {
			if d.Trace != nil {
				fmt.Fprint(out, d.Trace.Render())
			} else {
				fmt.Fprintln(errOut, "lecopt: warning: no decision trace recorded for this strategy")
			}
		}
		if *explain {
			printStats(out, d, *budget)
		}
		if *simulate > 0 {
			rep, err := d.Simulate(*simulate, 1)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "simulated over %d runs: mean %.0f, std %.0f, worst %.0f\n",
				rep.Trials, rep.Mean, rep.StdDev, rep.Max)
		}
		return nil
	}

	// Side-by-side comparison across every strategy.
	ds, err := o.CompareContext(ctx, q, env)
	if err != nil {
		return err
	}
	for _, d := range ds {
		warnDegraded(errOut, d)
	}
	sort.SliceStable(ds, func(i, j int) bool { return ds[i].ExpectedCost < ds[j].ExpectedCost })
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "strategy\tE[cost]\tstd\tp95\tvs best")
	best := ds[0].ExpectedCost
	for _, d := range ds {
		fmt.Fprintf(tw, "%v\t%.0f\t%.0f\t%.0f\t%+.1f%%\n",
			d.Strategy, d.ExpectedCost, d.Risk.StdDev, d.Risk.P95, 100*(d.ExpectedCost/best-1))
	}
	tw.Flush()
	fmt.Fprintf(out, "\nbest plan (%v):\n%s", ds[0].Strategy, ds[0].Explain())
	if *explain {
		printStats(out, ds[0], *budget)
	}
	return nil
}

// warnDegraded reports a degraded (but valid) plan on stderr; the exit code
// stays 0 because the plan is usable.
func warnDegraded(errOut io.Writer, d *lec.Decision) {
	if d.Degraded {
		rung := d.DegradeRung
		if rung == "" {
			rung = "full-search"
		}
		fmt.Fprintf(errOut, "lecopt: warning: %v optimization degraded (%v); returning %s plan\n",
			d.Strategy, d.DegradeReason, rung)
	}
}

// printStats renders the unified engine's instrumentation counters, headed
// by the provenance block: which path produced the plan (tier or degradation
// rung), why, and the budget state. The block prints for every plan — full
// DP searches, degraded anytime fallbacks, and tier-zero greedy serves alike
// — so the explain output never loses its planning context when the engine
// took a shortcut.
func printStats(out io.Writer, d *lec.Decision, budget int) {
	s := d.Stats
	fmt.Fprint(out, "origin: ", provenance(d, budget), "\n")
	fmt.Fprintf(out, "search: %d subsets, %d join steps, %d cost evals, %d prunes\n",
		s.Subsets, s.JoinSteps, s.CostEvals, s.Prunes)
	fmt.Fprintf(out, "enum:   %v; %d lattice subsets emitted, %d skipped as disconnected\n",
		d.Enumeration, s.SubsetsEnumerated, s.SubsetsSkipped)
	fmt.Fprintf(out, "memo:   %d hits; arena: %d nodes, %d hits, %d built\n",
		s.MemoHits, s.ArenaSize, s.ArenaHits, s.PlansBuilt)
	if s.MergeCombos > 0 {
		fmt.Fprintf(out, "top-c:  %d merge combinations (max %d per merge)\n",
			s.MergeCombos, s.MaxMergeCombos)
	}
	if s.NonFiniteCosts > 0 || s.PanicsRecovered > 0 || s.Degradations > 0 {
		fmt.Fprintf(out, "faults: %d non-finite costs, %d recovered panics, %d degradations\n",
			s.NonFiniteCosts, s.PanicsRecovered, s.Degradations)
	}
}

// provenance renders the one-line plan origin: tier taken (with escalation
// or serve reason and the expected-cost gap vs the lower bound when known),
// the degradation rung, and how much of the configured budget the run spent.
func provenance(d *lec.Decision, budget int) string {
	tier, reason := d.Tier, d.TierReason
	if tier == "" {
		tier = "dp"
	}
	if reason == "" {
		reason = "configured"
	}
	line := fmt.Sprintf("tier %s (%s", tier, reason)
	if !math.IsNaN(d.TierGap) && !math.IsInf(d.TierGap, 0) && d.TierGap > 0 {
		line += fmt.Sprintf("; greedy %.1f%% above the expected-cost lower bound", 100*d.TierGap)
	}
	line += ")"
	rung := d.DegradeRung
	if rung == "" {
		rung = "full-search"
	}
	line += "; rung " + rung
	if d.Degraded {
		line += fmt.Sprintf(" (%v)", d.DegradeReason)
	}
	if budget > 0 {
		line += fmt.Sprintf("; budget %d/%d cost evals", d.Stats.CostEvals, budget)
	} else {
		line += fmt.Sprintf("; budget %d cost evals (unlimited)", d.Stats.CostEvals)
	}
	return line
}

func flagWasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func distToSpec(d *stats.Dist) string {
	spec := ""
	for i := 0; i < d.Len(); i++ {
		if i > 0 {
			spec += ","
		}
		spec += fmt.Sprintf("%g:%g", d.Value(i), d.Prob(i))
	}
	return spec
}
