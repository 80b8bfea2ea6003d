// Command perfbench is the repository's benchmark: a seeded closed-loop
// load generator that drives the optimizer through serve.Service and
// fleet.Node, checks every served plan, and prints end-to-end metrics
// (--trace 0) or per-layer metrics (--trace 1) as one JSON line.
//
//	bash perfbench/run.sh --workload cold-dp --seed 1 --seconds 12 --trace 0
//
// run from the repository root. See README.md for the workloads and
// metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// trials is how many times an end-to-end run sets the workload up and
// measures it, each time for 1/trials of --seconds and with its own seed
// derived from --seed. The run reports the median trial, so neither one
// data set nor one stretch of host time decides a figure.
const trials = 6

// trialSeed derives trial k's seed; different runs' trials never share one.
func trialSeed(seed int64, k int) int64 { return seed*trials + int64(k) }

// outDir receives span files.
var outDir = "."

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: cold-dp, tiered-large or fleet-hot")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "timed seconds per run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&outDir, "out", ".", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := specByName(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	dur := time.Duration(*seconds * float64(time.Second))
	ctx := context.Background()

	fp, err := json.Marshal(fingerprint(*seed))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "fingerprint %s\n", fp)

	var res result
	if *trace == 1 {
		m, pr, err := perLayer(ctx, sp, *seed, dur)
		if err != nil {
			return err
		}
		res = result{Correct: pr.failed == 0, Attempted: pr.reads, Failed: pr.failed, Metrics: m}
	} else {
		res, err = endToEnd(ctx, sp, *seed, dur, stdout)
		if err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// endToEnd runs the workload's trials: each sets the workload up and runs
// a timed phase of dur/trials. The time-based metrics are each trial's
// figure, then their median.
func endToEnd(ctx context.Context, sp *spec, seed int64, dur time.Duration, stdout io.Writer) (result, error) {
	var setups, tput, p50s, p99s, cpus []float64
	var pr phaseResult
	minSamples := math.MaxInt
	for i := 0; i < trials; i++ {
		settle()
		h, d, err := setUp(ctx, sp, trialSeed(seed, i))
		if err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
		p, err := h.phase(ctx, dur/trials, 0, nil)
		h.close()
		if err != nil {
			return result{}, err
		}
		if p.reads == 0 {
			return result{}, fmt.Errorf("trial %d served no reads", i)
		}
		lats := millis(p.lats)
		tput = append(tput, rate(p))
		p50s = append(p50s, quantile(lats, 0.50))
		p99s = append(p99s, quantile(lats, 0.99))
		cpus = append(cpus, float64(p.cpu)/1e6/float64(p.reads))
		minSamples = min(minSamples, len(lats))
		pr.merge(p)
	}
	if beyond := minSamples - int(math.Ceil(0.99*float64(minSamples))); beyond < 10 {
		return result{}, fmt.Errorf("a trial has %d latency samples, %d beyond its p99; raise --seconds", minSamples, beyond)
	}
	all := millis(pr.lats)
	fmt.Fprintf(stdout, "summary workload=%s reads=%d writes=%d timed_s=%.3f failed=%d drifted_peer_plans=%d\n",
		sp.name, pr.reads, pr.writes, pr.elapsed.Seconds(), pr.failed, pr.drifted)
	fmt.Fprintf(stdout, "latency trials=%d min_samples_per_trial=%d beyond_p99>=%d; whole run: samples=%d p50_ms=%.4f p99_ms=%.4f throughput_rps=%.1f\n",
		trials, minSamples, minSamples-int(math.Ceil(0.99*float64(minSamples))), len(all), quantile(all, 0.5), quantile(all, 0.99), rate(pr))
	if pr.firstErr != nil {
		fmt.Fprintf(stdout, "first failed check: %v\n", pr.firstErr)
	}
	m := map[string]metric{
		"throughput_rps":  {median(tput), "1/s"},
		"latency_p50_ms":  {median(p50s), "ms"},
		"latency_p99_ms":  {median(p99s), "ms"},
		"cpu_ms_per_req":  {median(cpus), "ms"},
		"success_rate":    {float64(pr.reads-pr.failed) / float64(pr.reads), "ratio"},
		"plan_cost_ratio": {math.Exp(pr.logRatio / float64(pr.ratioN)), "ratio"},
		"peak_rss_mb":     {peakRSSMB(), "MiB"},
		"setup_s":         {median(setups), "s"},
	}
	return result{Correct: pr.failed == 0, Attempted: pr.reads, Failed: pr.failed, Metrics: m}, nil
}

// millis converts durations to sorted milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
