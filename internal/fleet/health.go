package fleet

import "time"

// HealthConfig tunes the per-peer failure detector. It is the fleet
// analogue of serve's circuit breaker: instead of paying the lookup
// timeout for a peer that has been failing, routing skips it and tries
// the next replica, readmitting the peer through a single half-open probe
// after a cooldown.
type HealthConfig struct {
	// Window is the sliding outcome window per peer (most recent
	// operations, successes and failures alike). Default 16.
	Window int
	// TripErrorRate suspects a peer when its windowed error rate reaches
	// this value with at least minSamples outcomes recorded. Default 0.5.
	TripErrorRate float64
	// TripConsecutive suspects a peer after this many consecutive
	// failures regardless of the windowed rate — the fast path for a dead
	// peer. Default 3.
	TripConsecutive int
	// ProbeAfter is how long a suspected peer is skipped before one
	// half-open probe is allowed through. A probe success readmits the
	// peer; a failure re-suspects it for another cooldown. Default 500ms.
	ProbeAfter time.Duration
}

// minSamples gates the error-rate trip so one early failure out of one
// sample does not suspect a peer.
const minSamples = 4

func (h HealthConfig) withDefaults() HealthConfig {
	if h.Window <= 0 {
		h.Window = 16
	}
	if h.TripErrorRate <= 0 {
		h.TripErrorRate = 0.5
	}
	if h.TripConsecutive <= 0 {
		h.TripConsecutive = 3
	}
	if h.ProbeAfter <= 0 {
		h.ProbeAfter = 500 * time.Millisecond
	}
	return h
}

// detState is a failure detector's verdict on one peer.
type detState int

const (
	detHealthy detState = iota
	detSuspect
	detProbing
)

func (s detState) String() string {
	switch s {
	case detHealthy:
		return "healthy"
	case detSuspect:
		return "suspect"
	case detProbing:
		return "probing"
	default:
		return "unknown"
	}
}

// detector is the per-peer failure detector: a sliding window of outcomes
// plus a consecutive-failure counter, with the same closed/open/half-open
// shape as serve's circuit breaker (healthy/suspect/probing here). All
// methods are called with the node's peerMu held.
type detector struct {
	cfg         HealthConfig
	window      []bool // ring buffer; true records a failure
	next, n     int
	fails       int
	consecutive int
	state       detState
	suspectedAt time.Time
}

func newDetector(cfg HealthConfig) *detector {
	return &detector{cfg: cfg, window: make([]bool, cfg.Window)}
}

func (d *detector) record(fail bool) {
	if d.n == len(d.window) {
		if d.window[d.next] {
			d.fails--
		}
	} else {
		d.n++
	}
	d.window[d.next] = fail
	if fail {
		d.fails++
	}
	d.next = (d.next + 1) % len(d.window)
}

// errorRate is the windowed failure fraction (0 with no samples).
func (d *detector) errorRate() float64 {
	if d.n == 0 {
		return 0
	}
	return float64(d.fails) / float64(d.n)
}

// fail records one failed operation and reports whether it tripped the
// detector into suspect (a probe failure re-trips).
func (d *detector) fail(now time.Time) (tripped bool) {
	d.record(true)
	d.consecutive++
	switch d.state {
	case detProbing:
		// The half-open probe failed: back to suspect for another cooldown.
		d.state = detSuspect
		d.suspectedAt = now
		return true
	case detHealthy:
		if d.consecutive >= d.cfg.TripConsecutive ||
			(d.n >= minSamples && d.errorRate() >= d.cfg.TripErrorRate) {
			d.state = detSuspect
			d.suspectedAt = now
			return true
		}
	}
	return false
}

// ok records one successful operation; any success fully readmits the
// peer and clears the window so stale failures don't re-trip it.
func (d *detector) ok() {
	d.record(false)
	d.consecutive = 0
	if d.state != detHealthy {
		d.state = detHealthy
		for i := range d.window {
			d.window[i] = false
		}
		d.n, d.fails, d.next = 0, 0, 0
	}
}

// allow reports whether routing may send this peer an operation right
// now; probe reports that the admitted operation is the single half-open
// probe (at most one is in flight per cooldown).
func (d *detector) allow(now time.Time) (ok, probe bool) {
	switch d.state {
	case detHealthy:
		return true, false
	case detSuspect:
		if now.Sub(d.suspectedAt) >= d.cfg.ProbeAfter {
			d.state = detProbing
			return true, true
		}
		return false, false
	default: // detProbing: a probe is already in flight
		return false, false
	}
}
