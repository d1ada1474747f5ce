package metrics

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// promFloat renders a value in Prometheus text syntax ("+Inf" for the
// histogram bound, shortest round-trip form otherwise).
func promFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, "\\", "\\\\")
	return strings.ReplaceAll(s, "\n", "\\n")
}

// writeProm renders exports in the Prometheus text exposition format
// (version 0.0.4). Every series carries a plane="sim"|"host" label so
// scrapers can separate the deterministic surface from the machinery.
func writeProm(w io.Writer, exps []export) error {
	for _, e := range exps {
		if e.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.name, escapeHelp(e.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.name, e.kind); err != nil {
			return err
		}
		plane := e.plane.String()
		switch e.kind {
		case kindCounter, kindGauge:
			if _, err := fmt.Fprintf(w, "%s{plane=%q} %s\n", e.name, plane, promFloat(e.value)); err != nil {
				return err
			}
		case kindHistogram:
			cum := int64(0)
			for i, n := range e.buckets {
				cum += n
				ub := math.Inf(1)
				if i < len(e.bounds) {
					ub = e.bounds[i]
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{plane=%q,le=%q} %d\n",
					e.name, plane, promFloat(ub), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum{plane=%q} %s\n", e.name, plane, promFloat(e.sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count{plane=%q} %d\n", e.name, plane, e.count); err != nil {
				return err
			}
		default:
			panic(fmt.Sprintf("metrics: unknown kind %d", e.kind))
		}
	}
	return nil
}
