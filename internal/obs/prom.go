package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
)

// ContentType is the HTTP Content-Type for the Prometheus text exposition
// format version 0.0.4, which WritePrometheus emits.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format: a # HELP and # TYPE line per family, histograms as
// cumulative _bucket{le="..."} series plus _sum and _count. Output is
// sorted by metric name, so two scrapes of identical state are
// byte-identical.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, m := range r.sorted() {
		if m.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
				return err
			}
		}
		var err error
		switch m.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %s\n", m.name, m.name, promFloat(m.counter.Value()))
		case kindCounterFunc:
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %s\n", m.name, m.name, promFloat(m.fn()))
		case kindGauge:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", m.name, m.name, promFloat(m.gauge.Value()))
		case kindGaugeFunc:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", m.name, m.name, promFloat(m.fn()))
		case kindHistogram:
			err = writeHistogram(w, m.name, m.histogram)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, h *Histogram) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	// Per-bucket counts are stored non-cumulatively; the exposition format
	// wants cumulative counts up to each le bound.
	var cum uint64
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, promFloat(ub), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, promFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	return err
}

// promFloat formats a float the way Prometheus expects: shortest
// round-trippable representation, with +Inf/-Inf/NaN spelled out.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
