package main

import (
	"context"
	"math"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/serve"
)

// batch is how many operations the client generates before timing them.
// Generation and checking run between batches, outside the clock.
const batch = 64

// windowBatches is how many batches make one window of a traced run,
// which alternates traced and untraced windows.
const windowBatches = 8

// harness is one set-up workload: its generator, the system under test
// and the reference optimizer.
type harness struct {
	sp     *spec
	seed   int64
	stream *stream
	sys    system
	refs   *refs
	rec    *recorder // nil outside the traced phase

	// Cumulative client-side counts over every read since set-up.
	tally tally
	// Distinct (key, epoch) pairs read, for fleet.engine_runs_per_key.
	keysRead map[[2]int]bool
	epoch    int
}

// tally counts what the client saw.
type tally struct {
	reads, writes int
	greedy        int
	escalations   map[string]int
	greedyGap     float64 // summed gap vs the lower bound of greedy serves
}

func (t *tally) addServed(s served) {
	var tier, reason string
	var gap float64
	switch {
	case s.dec != nil:
		tier, reason, gap = s.dec.Tier, s.dec.TierReason, s.dec.TierGap
	case s.wire != nil:
		tier, reason, gap = s.wire.Tier, s.wire.TierReason, s.wire.TierGap
	}
	switch tier {
	case "greedy":
		t.greedy++
		t.greedyGap += gap
	case "dp":
		t.escalations[reason]++
	}
}

// setUp builds the workload from its seed and runs the warm pass. The
// returned duration is the set-up time: generating requests, building the
// services (and fleet) and the warm pass.
func setUp(ctx context.Context, sp *spec, seed int64) (*harness, time.Duration, error) {
	t0 := time.Now()
	h := &harness{sp: sp, seed: seed, keysRead: make(map[[2]int]bool)}
	h.tally.escalations = make(map[string]int)
	var err error
	if h.stream, err = newStream(sp, seed); err != nil {
		return nil, 0, err
	}
	h.refs = newRefs(sp, seed)
	if sp.fleet {
		c, err := newCluster(sp, seed)
		if err != nil {
			return nil, 0, err
		}
		h.sys = c
	} else {
		h.sys = newSingle(sp, seed)
	}
	warm, err := h.stream.warmOps()
	if err != nil {
		h.sys.close()
		return nil, 0, err
	}
	for i := range warm {
		h.note(&warm[i])
		h.sys.read(ctx, &warm[i])
	}
	return h, time.Since(t0), nil
}

// trace switches span recording on or off for the rest of the run.
func (h *harness) trace(rec *recorder) {
	h.rec = rec
	if c, ok := h.sys.(*cluster); ok {
		c.rec.Store(rec)
	}
}

func (h *harness) close() { h.sys.close() }

// note records which key a read touches in the current write epoch.
func (h *harness) note(o *op) {
	if o.write {
		h.epoch++
		return
	}
	if o.key >= 0 {
		h.keysRead[[2]int{o.key, h.epoch}] = true
	}
}

// phaseResult is one timed phase.
type phaseResult struct {
	reads, writes, failed int
	lats                  []time.Duration // per read
	elapsed, cpu          time.Duration
	windows               []window
	writeTime             time.Duration
	drifted               int // peer plans explained only by the distribution drift
	logRatio              float64
	ratioN                int
	firstErr              error
}

// merge adds another trial's phase to p, windows aside.
func (p *phaseResult) merge(o phaseResult) {
	p.reads += o.reads
	p.writes += o.writes
	p.failed += o.failed
	p.drifted += o.drifted
	p.lats = append(p.lats, o.lats...)
	p.elapsed += o.elapsed
	p.cpu += o.cpu
	p.writeTime += o.writeTime
	p.logRatio += o.logRatio
	p.ratioN += o.ratioN
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
}

// window is one run of windowBatches batches.
type window struct {
	reads   int
	elapsed time.Duration
	alloc   uint64 // heap bytes allocated in the timed calls
	traced  bool
	// Fleet-hot: bytes on the dialed connections and transport lookups.
	wire, lookups int64
}

// phase runs timed operations until the timed wall clock reaches dur or
// maxOps operations ran (0: no limit). Only the client calls are timed;
// generating a batch and checking its outputs happen between timed
// windows, and CPU time and allocation are sampled at the same points.
// With a recorder, every second window records spans, so traced and
// untraced windows interleave under the same conditions.
func (h *harness) phase(ctx context.Context, dur time.Duration, maxOps int, rec *recorder) (phaseResult, error) {
	var pr phaseResult
	ops := make([]op, batch)
	out := make([]served, batch)
	name := "serve.Service.Optimize"
	if h.sp.fleet {
		name = "fleet.Node.Optimize"
	}
	done := 0
	var win window
	defer h.trace(nil)
	for nb := 0; (dur <= 0 || pr.elapsed < dur) && (maxOps <= 0 || done < maxOps); nb++ {
		if nb%windowBatches == 0 {
			win = window{traced: rec != nil && len(pr.windows)%2 == 1}
			win.wire, win.lookups = h.sys.wire()
			if win.traced {
				h.trace(rec)
			} else {
				h.trace(nil)
			}
		}
		k := batch
		if maxOps > 0 && maxOps-done < k {
			k = maxOps - done
		}
		for i := 0; i < k; i++ {
			o, err := h.stream.next()
			if err != nil {
				return pr, err
			}
			ops[i] = o
		}
		cpu0, alloc0 := cpuTime(), allocBytes()
		t0 := time.Now()
		for i := 0; i < k; i++ {
			o := &ops[i]
			h.note(o)
			if o.write {
				w0 := time.Now()
				wctx, end := h.rec.request(ctx, "fleet.Node.UpdateCatalog x3")
				if err := h.sys.write(wctx, o.state); err != nil {
					return pr, err
				}
				end()
				pr.writeTime += time.Since(w0)
				pr.writes++
				continue
			}
			r0 := time.Now()
			rctx, end := h.rec.request(ctx, name)
			out[i] = h.sys.read(rctx, o)
			end()
			pr.lats = append(pr.lats, time.Since(r0))
			win.reads++
		}
		elapsed, cpu, alloc := time.Since(t0), cpuTime()-cpu0, allocBytes()-alloc0
		pr.elapsed += elapsed
		pr.cpu += cpu
		win.elapsed += elapsed
		win.alloc += alloc
		if (nb+1)%windowBatches == 0 {
			wire, lookups := h.sys.wire()
			win.wire, win.lookups = wire-win.wire, lookups-win.lookups
			pr.windows = append(pr.windows, win)
		}
		done += k
		for i := 0; i < k; i++ {
			o := &ops[i]
			if o.write {
				continue
			}
			pr.reads++
			h.tally.addServed(out[i])
			ratio, drifted, err := h.refs.check(ctx, o, out[i])
			if drifted {
				pr.drifted++
			}
			if ratio > 0 && !math.IsInf(ratio, 0) {
				pr.logRatio += math.Log(ratio)
				pr.ratioN++
			}
			if err != nil {
				pr.failed++
				if pr.firstErr == nil {
					pr.firstErr = err
				}
			}
			out[i] = served{}
		}
	}
	h.tally.reads += pr.reads
	h.tally.writes += pr.writes
	return pr, nil
}

// serviceStats sums the services' counters.
func serviceStats(svcs []*serve.Service) serve.Stats {
	var sum serve.Stats
	for _, svc := range svcs {
		st := svc.Stats()
		sum.Optimizations += st.Optimizations
		sum.CacheHits += st.CacheHits
		sum.CacheMisses += st.CacheMisses
		sum.Evictions += st.Evictions
	}
	return sum
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (VmHWM), in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

// allocBytes is the cumulative heap allocation of the process, in bytes.
func allocBytes() uint64 {
	b, _ := allocs()
	return b
}

// allocs is the cumulative heap allocation in bytes and objects.
func allocs() (bytes, objects uint64) {
	s := make([]metrics.Sample, len(allocSamples))
	copy(s, allocSamples)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// settle collects garbage and returns freed memory to the OS, so each
// trial starts from the same heap.
func settle() { debug.FreeOSMemory() }
