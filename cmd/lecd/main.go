// Command lecd is the LEC optimization daemon: internal/serve.Service over
// HTTP+JSON. It is the long-running form of lecopt — many clients, one
// catalog, a shared plan cache — and it degrades gracefully under overload:
// queued requests get tightened budgets (valid but deliberately degraded
// plans) before anything is shed with 429.
//
// Usage:
//
//	lecd -demo                              # paper's Example 1.1 catalog
//	lecd -catalog schema.txt -addr :7077
//	lecd -demo -workers 4 -queue 32 -timeout 2s
//	lecd -demo -workers 4 -parallelism 4     # multi-core plan search per request
//	lecd -demo -addr 127.0.0.1:7081 \
//	     -peers 127.0.0.1:7081,127.0.0.1:7082 \
//	     -snapshot /var/lib/lecd/plans.snap   # fleet member with warm start
//
// With -peers, the daemon boots as a fleet member: plan-cache keys are
// partitioned across the peers by consistent hashing, a request for a key
// another peer owns is answered from that peer's cache (single-flight
// preserved fleet-wide), catalog-generation bumps propagate to every peer,
// and slow or loaded peer lookups are hedged to the next replica. Every
// fleet failure — partition, stale peer, slow peer, peer crash — falls
// back to the local single-node path. -snapshot (with or without -peers)
// persists the plan cache on drain and warm-starts it on boot.
//
// Membership is dynamic: -join lists seed peers of a *running* fleet and
// makes this node enter it live — the seeds hand over the warm request
// specs for every key the new node now owns, so its first requests for
// inherited keys are cache hits. -leave-on-drain announces departure on
// shutdown so the ring rebalances (and hands warmth off) before the
// process exits. -replicas R>1 gives every key R owners: the primary
// serves, the others receive asynchronous warm pushes and take over warm
// when the primary dies. A per-peer failure detector (-health-* flags)
// skips suspected peers instead of paying the lookup timeout; /clusterz
// shows each peer's detector state, windowed error rate, and reported
// queue depth.
//
// Endpoints:
//
//	POST /optimize  {"sql": "...", "mem": "700:0.2,2000:0.8", "strategy": "c", "timeout_ms": 500}
//	POST /compare   {"sql": "...", "mem": "..."}
//	POST /trace     like /optimize, but bypasses the cache and returns the
//	                decision trace (per-subset DP winners/runners-up) as JSON
//	GET  /metrics   Prometheus text exposition of the lec_* metric family
//	GET  /healthz   process liveness (200 while the process runs)
//	GET  /readyz    load-balancer readiness (503 once draining)
//	GET  /statsz    service counters as JSON
//	GET  /clusterz  fleet status as JSON ({"fleet": false} when standalone)
//	POST /fleet/v2/lookup, /fleet/v2/propagate,
//	     /fleet/v2/membership, /fleet/v2/handoff
//	                the peer-to-peer protocol, binary-encoded (mounted with
//	                -peers or -join)
//
// With -pprof, the standard net/http/pprof profiling endpoints are mounted
// under /debug/pprof/ on the same listener.
//
// In -demo mode a request may omit sql and mem; the Example 1.1 query and
// memory distribution are used. Every field of the request is optional
// except sql (outside -demo); strategy defaults to "c".
//
// HTTP status mapping: 400 invalid input (bad SQL, unknown relation, bad
// distribution), 429 overloaded (with a Retry-After header), 503 draining,
// circuit open, or budget exhausted with no plan, 500 internal error.
//
// On SIGTERM or SIGINT the daemon flips /readyz to 503, stops admitting new
// optimizations, lets in-flight requests finish (bounded by -drain), and
// exits 0.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/lec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "lecd:", err)
		os.Exit(1)
	}
}

// daemon binds one serve.Service to the HTTP surface.
type daemon struct {
	svc *serve.Service
	reg *obs.Registry
	// fleet, when non-nil, routes /optimize through the peer layer
	// (-peers and/or -snapshot).
	fleet *fleet.Node
	// pprof mounts the net/http/pprof endpoints when set.
	pprof bool
	// defaultQuery and defaultMem fill omitted request fields in -demo
	// mode. The query is the fixture's bound block, not re-parsed SQL, so
	// demo responses carry the paper's calibrated Example 1.1 numbers.
	defaultQuery *query.SPJ
	defaultMem   *stats.Dist
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("lecd", flag.ContinueOnError)
	fs.SetOutput(errOut)
	addr := fs.String("addr", "127.0.0.1:7077", "listen address")
	demo := fs.Bool("demo", false, "serve the paper's Example 1.1 catalog (and default query)")
	catalogPath := fs.String("catalog", "", "catalog description file")
	workers := fs.Int("workers", 0, "concurrent optimizations (0 = GOMAXPROCS)")
	parallelism := fs.Int("parallelism", 1, "per-request engine parallelism ceiling, degraded toward 1 as worker slots fill")
	enum := fs.String("enum", "exhaustive", "subset-lattice enumerator for every request: exhaustive|connected")
	tier := fs.String("tier", "dp", "planning tier: dp (always full search), auto (greedy fast path with risk-triggered escalation), greedy (never escalate)")
	queue := fs.Int("queue", 0, "queued requests beyond workers before shedding (0 = default 64)")
	cache := fs.Int("cache", 0, "plan cache capacity (0 = default 512, negative disables)")
	timeout := fs.Duration("timeout", 5*time.Second, "default per-request optimization deadline")
	drain := fs.Duration("drain", 10*time.Second, "shutdown grace period for in-flight requests")
	pprofFlag := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	peersFlag := fs.String("peers", "", "comma-separated fleet peer addresses (host:port), including this node; enables the fleet layer")
	joinFlag := fs.String("join", "", "comma-separated seed addresses of a running fleet to join live (this node need not be listed)")
	selfFlag := fs.String("self", "", "this node's address exactly as listed in -peers (default: -addr)")
	snapshotFlag := fs.String("snapshot", "", "plan-cache snapshot file: warm-started at boot, saved on drain")
	hedge := fs.Duration("hedge", 25*time.Millisecond, "peer hedge delay (slow-owner and pressured-queue hedging); negative disables")
	hedgeQueue := fs.Int("hedge-queue", 0, "hedge immediately when the owner's reported queue depth reaches this (0 disables the load trigger)")
	replicas := fs.Int("replicas", 1, "owners per plan-cache key; >1 warms standby replicas so one node's death degrades the hit rate by ~1/R")
	healthWindow := fs.Int("health-window", 0, "failure-detector sliding window per peer (0 = default 16)")
	healthRate := fs.Float64("health-error-rate", 0, "windowed error rate that suspects a peer (0 = default 0.5)")
	healthConsecutive := fs.Int("health-consecutive", 0, "consecutive failures that suspect a peer (0 = default 3)")
	healthProbe := fs.Duration("health-probe-after", 0, "cooldown before a suspected peer gets a half-open probe (0 = default 500ms)")
	leaveOnDrain := fs.Bool("leave-on-drain", false, "announce departure from the fleet on shutdown so the ring rebalances before exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	d := &daemon{reg: obs.NewRegistry(), pprof: *pprofFlag}
	var cat *catalog.Catalog
	switch {
	case *demo:
		cat, d.defaultQuery, d.defaultMem = workload.Example11()
	case *catalogPath != "":
		f, err := os.Open(*catalogPath)
		if err != nil {
			return err
		}
		cat, err = catalog.Load(f)
		f.Close()
		if err != nil {
			return err
		}
	default:
		return errors.New("need -demo or -catalog <file>")
	}
	enumMode, err := lec.ParseEnumeration(*enum)
	if err != nil {
		return err
	}
	tierMode, err := lec.ParseTier(*tier)
	if err != nil {
		return err
	}
	d.svc = serve.New(cat, serve.Config{
		Workers:        *workers,
		Parallelism:    *parallelism,
		QueueDepth:     *queue,
		CacheCapacity:  *cache,
		DefaultTimeout: *timeout,
		Options:        lec.Options{Enumeration: enumMode, Tier: tierMode},
		Metrics:        d.reg,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	joining := *joinFlag != ""
	if *peersFlag != "" && joining {
		return errors.New("-peers and -join are mutually exclusive: -peers boots a static member, -join enters a running fleet")
	}
	if *peersFlag != "" || *snapshotFlag != "" || joining {
		self := *selfFlag
		if self == "" {
			self = *addr
		}
		seedList := *peersFlag
		if joining {
			seedList = *joinFlag
		}
		var peers []string
		for _, p := range strings.Split(seedList, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
		if len(peers) == 0 {
			peers = []string{self} // fleet of one: snapshots without peers
		}
		node, err := fleet.New(d.svc, fleet.Config{
			Self:            self,
			Peers:           peers,
			Transport:       &fleet.HTTPTransport{},
			Replicas:        *replicas,
			HedgeDelay:      *hedge,
			HedgeQueueDepth: *hedgeQueue,
			Health: fleet.HealthConfig{
				Window:          *healthWindow,
				TripErrorRate:   *healthRate,
				TripConsecutive: *healthConsecutive,
				ProbeAfter:      *healthProbe,
			},
			SnapshotPath: *snapshotFlag,
			Metrics:      d.reg,
			Logf: func(format string, a ...any) {
				fmt.Fprintf(errOut, "lecd: "+format+"\n", a...)
			},
		})
		if err != nil {
			return err
		}
		d.fleet = node
		// Warm start before the listener opens: the first request a load
		// balancer sends must already see the replayed cache.
		if *snapshotFlag != "" {
			if replayed, err := node.LoadSnapshot(ctx); err == nil && replayed > 0 {
				fmt.Fprintf(out, "lecd: warm start: replayed %d cached plans\n", replayed)
			}
		}
	}

	// Listen before joining: the seeds start handing warm specs to this
	// node the moment the join is announced, so the endpoints must already
	// accept.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: d.handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(out, "lecd: serving on %s\n", *addr)
	if joining {
		if err := d.fleet.JoinFleet(ctx); err != nil {
			srv.Close()
			return fmt.Errorf("join: %w", err)
		}
		fmt.Fprintf(out, "lecd: joined fleet at epoch %d: %s\n",
			d.fleet.Epoch(), strings.Join(d.fleet.Peers(), ","))
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Drain: readiness flips, new optimizations fail fast, in-flight ones
	// get the grace period.
	fmt.Fprintln(out, "lecd: draining")
	if d.fleet != nil && *leaveOnDrain {
		// Announce departure while the endpoints still accept: the ring
		// rebalances and this node's warm keys are handed to their new
		// owners before anything stops serving.
		leaveCtx, leaveCancel := context.WithTimeout(context.Background(), *drain)
		d.fleet.LeaveFleet(leaveCtx)
		leaveCancel()
		fmt.Fprintln(out, "lecd: left the fleet")
	}
	d.svc.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	shutdownErr := srv.Shutdown(shutdownCtx)
	// Snapshot after drain (the cache is flushed and sealed) and after the
	// listener closed (no new warm-set entries); a failed save is logged by
	// the node and must never block the exit.
	if d.fleet != nil {
		if err := d.fleet.SaveSnapshot(); err == nil && *snapshotFlag != "" {
			fmt.Fprintln(out, "lecd: plan-cache snapshot saved")
		}
	}
	if shutdownErr != nil {
		return shutdownErr
	}
	fmt.Fprintln(out, "lecd: drained, exiting")
	return nil
}

func (d *daemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/optimize", d.handleOptimize)
	mux.HandleFunc("/compare", d.handleCompare)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if d.svc.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.svc.Stats())
	})
	mux.HandleFunc("/clusterz", func(w http.ResponseWriter, r *http.Request) {
		if d.fleet == nil {
			writeJSON(w, http.StatusOK, map[string]any{"fleet": false})
			return
		}
		writeJSON(w, http.StatusOK, d.fleet.Status())
	})
	if d.fleet != nil {
		mux.Handle("/fleet/", fleet.Handler(d.fleet))
	}
	mux.HandleFunc("/trace", d.handleTrace)
	mux.HandleFunc("/metrics", d.handleMetrics)
	if d.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (d *daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	if d.reg == nil {
		return
	}
	d.reg.WritePrometheus(w)
}

// optimizeRequest is the /optimize and /compare body. Every field is
// optional in -demo mode; sql is required otherwise.
type optimizeRequest struct {
	SQL        string  `json:"sql"`
	Mem        string  `json:"mem"`      // "value:prob,..." spec
	Strategy   string  `json:"strategy"` // lsc-mean|lsc-mode|a|b|c|d; default c
	TimeoutMS  int     `json:"timeout_ms"`
	Volatility float64 `json:"volatility"` // >0 adds a Markov memory walk
}

// decisionJSON is one served plan on the wire.
type decisionJSON struct {
	Strategy      string  `json:"strategy"`
	ExpectedCost  float64 `json:"expected_cost"`
	StdDev        float64 `json:"std_dev"`
	P95           float64 `json:"p95"`
	Degraded      bool    `json:"degraded,omitempty"`
	DegradeReason string  `json:"degrade_reason,omitempty"`
	DegradeRung   string  `json:"degrade_rung,omitempty"`
	Tier          string  `json:"tier,omitempty"`
	TierReason    string  `json:"tier_reason,omitempty"`
	TierGap       float64 `json:"tier_gap,omitempty"`
	Plan          string  `json:"plan"`
}

type optimizeResponse struct {
	decisionJSON
	Cached    bool   `json:"cached,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
	Pinned    bool   `json:"pinned,omitempty"`
	Pressure  string `json:"pressure,omitempty"`
	// Fleet routing diagnostics (set only when the daemon runs with -peers).
	PeerHit  bool   `json:"peer_hit,omitempty"`
	PeerNode string `json:"peer_node,omitempty"`
	Hedged   bool   `json:"hedged,omitempty"`
	HedgeWon bool   `json:"hedge_won,omitempty"`
	FellBack bool   `json:"fell_back,omitempty"`
}

func (d *daemon) parseRequest(w http.ResponseWriter, r *http.Request) (serve.Request, context.Context, context.CancelFunc, bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return serve.Request{}, nil, nil, false
	}
	var in optimizeRequest
	if err := json.NewDecoder(r.Body).Decode(&in); err != nil && !errors.Is(err, io.EOF) {
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
		return serve.Request{}, nil, nil, false
	}
	req := serve.Request{SQL: in.SQL}
	if req.SQL == "" {
		if d.defaultQuery == nil {
			http.Error(w, `"sql" is required (the daemon was not started with -demo)`, http.StatusBadRequest)
			return serve.Request{}, nil, nil, false
		}
		req.Query = d.defaultQuery
	}
	env := lec.Environment{Memory: d.defaultMem}
	if in.Mem != "" {
		dm, err := stats.ParseDist(in.Mem)
		if err != nil {
			http.Error(w, "bad mem spec: "+err.Error(), http.StatusBadRequest)
			return serve.Request{}, nil, nil, false
		}
		env.Memory = dm
	}
	if env.Memory == nil {
		http.Error(w, `"mem" is required (the daemon was not started with -demo)`, http.StatusBadRequest)
		return serve.Request{}, nil, nil, false
	}
	if in.Volatility > 0 {
		chain, err := stats.RandomWalkChain(env.Memory.Support(), in.Volatility, in.Volatility)
		if err != nil {
			http.Error(w, "bad volatility: "+err.Error(), http.StatusBadRequest)
			return serve.Request{}, nil, nil, false
		}
		env.Chain = chain
	}
	strategy := lec.AlgorithmC
	if in.Strategy != "" {
		s, err := parseStrategy(in.Strategy)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return serve.Request{}, nil, nil, false
		}
		strategy = s
	}
	ctx, cancel := r.Context(), context.CancelFunc(func() {})
	if in.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(in.TimeoutMS)*time.Millisecond)
	}
	req.Env = env
	req.Strategy = strategy
	return req, ctx, cancel, true
}

func (d *daemon) handleOptimize(w http.ResponseWriter, r *http.Request) {
	req, ctx, cancel, ok := d.parseRequest(w, r)
	if !ok {
		return
	}
	defer cancel()
	if d.fleet != nil {
		rep, err := d.fleet.Optimize(ctx, req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, fleetResponse(rep))
		return
	}
	resp, err := d.svc.Optimize(ctx, req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, optimizeResponse{
		decisionJSON: toDecisionJSON(resp.Decision),
		Cached:       resp.Cached,
		Coalesced:    resp.Coalesced,
		Pinned:       resp.Pinned,
		Pressure:     resp.Pressure,
	})
}

// fleetResponse flattens a fleet Reply for the client, whichever side of
// the ring produced it.
func fleetResponse(rep *fleet.Reply) optimizeResponse {
	out := optimizeResponse{
		PeerHit:  rep.PeerHit,
		PeerNode: rep.PeerNode,
		Hedged:   rep.Hedged,
		HedgeWon: rep.HedgeWon,
		FellBack: rep.FellBack,
	}
	if rep.Peer != nil {
		pd := rep.Peer.Decision
		out.decisionJSON = decisionJSON{
			Strategy:      pd.Strategy,
			ExpectedCost:  pd.ExpectedCost,
			StdDev:        pd.StdDev,
			P95:           pd.P95,
			Degraded:      pd.Degraded,
			DegradeReason: pd.DegradeReason,
			DegradeRung:   pd.DegradeRung,
			Tier:          pd.Tier,
			TierReason:    pd.TierReason,
			TierGap:       pd.TierGap,
			Plan:          pd.Plan,
		}
		out.Cached = rep.Peer.Cached
		out.Coalesced = rep.Peer.Coalesced || rep.Coalesced
		out.Pinned = rep.Peer.Pinned
		out.Pressure = rep.Peer.Pressure
		return out
	}
	out.decisionJSON = toDecisionJSON(rep.Local.Decision)
	out.Cached = rep.Local.Cached
	out.Coalesced = rep.Local.Coalesced || rep.Coalesced
	out.Pinned = rep.Local.Pinned
	out.Pressure = rep.Local.Pressure
	return out
}

func (d *daemon) handleCompare(w http.ResponseWriter, r *http.Request) {
	req, ctx, cancel, ok := d.parseRequest(w, r)
	if !ok {
		return
	}
	defer cancel()
	ds, err := d.svc.Compare(ctx, req)
	if err != nil {
		writeError(w, err)
		return
	}
	out := make([]decisionJSON, len(ds))
	for i, dec := range ds {
		out[i] = toDecisionJSON(dec)
	}
	writeJSON(w, http.StatusOK, map[string]any{"decisions": out})
}

// handleTrace serves one optimization with decision tracing on. It bypasses
// the plan cache (cached decisions carry no trace) and returns both the
// usual decision fields and the structured trace: per-subset DP events with
// winner, runner-up, expected-cost gap, the root candidates, and the
// rendered explain tree.
func (d *daemon) handleTrace(w http.ResponseWriter, r *http.Request) {
	req, ctx, cancel, ok := d.parseRequest(w, r)
	if !ok {
		return
	}
	defer cancel()
	dec, err := d.svc.Trace(ctx, req)
	if err != nil {
		writeError(w, err)
		return
	}
	out := map[string]any{"decision": toDecisionJSON(dec)}
	if dec.Trace != nil {
		out["trace"] = dec.Trace
		out["trace_rendered"] = dec.Trace.Render()
	}
	writeJSON(w, http.StatusOK, out)
}

func toDecisionJSON(dec *lec.Decision) decisionJSON {
	out := decisionJSON{
		Strategy:     dec.Strategy.String(),
		ExpectedCost: dec.ExpectedCost,
		StdDev:       dec.Risk.StdDev,
		P95:          dec.Risk.P95,
		Degraded:     dec.Degraded,
		DegradeRung:  dec.DegradeRung,
		Tier:         dec.Tier,
		TierReason:   dec.TierReason,
		Plan:         dec.Explain(),
	}
	if !math.IsNaN(dec.TierGap) && !math.IsInf(dec.TierGap, 0) && dec.TierGap > 0 {
		out.TierGap = dec.TierGap
	}
	if dec.Degraded {
		out.DegradeReason = dec.DegradeReason.String()
	}
	return out
}

// writeError maps the serve/lec error taxonomy onto HTTP statuses. Shed
// requests carry their retry hint as a Retry-After header (whole seconds,
// rounded up, minimum 1).
func writeError(w http.ResponseWriter, err error) {
	var oe *serve.OverloadError
	switch {
	case errors.As(err, &oe):
		secs := int(math.Ceil(oe.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, serve.ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, lec.ErrInvalidQuery),
		errors.Is(err, lec.ErrUnknownRelation),
		errors.Is(err, lec.ErrInvalidDistribution):
		http.Error(w, err.Error(), http.StatusBadRequest)
	case errors.Is(err, serve.ErrDraining),
		errors.Is(err, serve.ErrCircuitOpen),
		errors.Is(err, lec.ErrBudgetExhausted):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func parseStrategy(s string) (lec.Strategy, error) {
	switch s {
	case "lsc-mean":
		return lec.LSCMean, nil
	case "lsc-mode":
		return lec.LSCMode, nil
	case "a":
		return lec.AlgorithmA, nil
	case "b":
		return lec.AlgorithmB, nil
	case "c":
		return lec.AlgorithmC, nil
	case "d":
		return lec.AlgorithmD, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q", s)
	}
}
