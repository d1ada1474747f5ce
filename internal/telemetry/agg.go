package telemetry

import (
	"fmt"
	"strings"

	"amrtools/internal/stats"
)

// AggFunc is an aggregation function over a numeric column.
type AggFunc uint8

const (
	// Count counts rows (the column is ignored and may be empty).
	Count AggFunc = iota
	// Sum totals the column.
	Sum
	// Mean averages the column.
	Mean
	// Min takes the minimum.
	Min
	// Max takes the maximum.
	Max
	// P50 is the median.
	P50
	// P99 is the 99th percentile.
	P99
	// Var is the population variance.
	Var
	// Std is the population standard deviation.
	Std
)

// aggNames maps function names (as used by TQL) to AggFunc.
var aggNames = map[string]AggFunc{
	"count": Count, "sum": Sum, "mean": Mean, "avg": Mean,
	"min": Min, "max": Max, "p50": P50, "median": P50, "p99": P99,
	"var": Var, "std": Std, "stddev": Std,
}

// AggByName resolves a function name to an AggFunc.
func AggByName(name string) (AggFunc, bool) {
	f, ok := aggNames[strings.ToLower(name)]
	return f, ok
}

// String returns the canonical TQL name of the function.
func (f AggFunc) String() string {
	switch f {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Mean:
		return "mean"
	case Min:
		return "min"
	case Max:
		return "max"
	case P50:
		return "p50"
	case P99:
		return "p99"
	case Var:
		return "var"
	case Std:
		return "std"
	}
	return "unknown"
}

// Apply evaluates the aggregate over xs.
func (f AggFunc) Apply(xs []float64) float64 {
	switch f {
	case Count:
		return float64(len(xs))
	case Sum:
		return stats.Sum(xs)
	case Mean:
		return stats.Mean(xs)
	case Min:
		if len(xs) == 0 {
			return 0
		}
		return stats.Min(xs)
	case Max:
		if len(xs) == 0 {
			return 0
		}
		return stats.Max(xs)
	case P50:
		if len(xs) == 0 {
			return 0
		}
		return stats.Median(xs)
	case P99:
		if len(xs) == 0 {
			return 0
		}
		return stats.Percentile(xs, 99)
	case Var:
		return stats.Variance(xs)
	case Std:
		return stats.StdDev(xs)
	}
	panic("telemetry: unknown aggregate")
}

// AggSpec is one aggregation in a GroupBy: Func(Col) AS As.
type AggSpec struct {
	Func AggFunc
	Col  string // source column; ignored for Count (may be "")
	As   string // output column name; defaults to "func_col"
}

func (a AggSpec) outName() string {
	if a.As != "" {
		return a.As
	}
	if a.Col == "" {
		return a.Func.String()
	}
	return a.Func.String() + "_" + a.Col
}

// GroupBy groups rows by the key columns and evaluates the aggregates per
// group: the table's chunks fed in order through GroupAgg, which defines
// group identity and the floats. The result has the key columns followed by one
// Float64 column per aggregate, groups ascending by key values — the order
// SortBy sorts in: NaN first, strings by byte — and the two zeros, which are
// distinct groups that compare equal, in order of first appearance.
func (t *Table) GroupBy(keys []string, aggs []AggSpec) *Table {
	g := NewGroupAgg(t.Schema(), keys, aggs)
	t.eachChunk(func(_ int, cols []Column, n int) {
		var sel []int
		if len(cols) == 0 {
			sel = make([]int, n) // no column to count a zero-column table's rows by
		}
		g.Add(cols, sel)
	})
	return g.Table()
}

// Correlate returns the Pearson correlation between two numeric columns —
// the paper's telemetry-reliability metric (Fig 1a: corr of message count
// vs communication time).
func (t *Table) Correlate(xCol, yCol string) float64 {
	xs := make([]float64, t.rows)
	ys := make([]float64, t.rows)
	for r := 0; r < t.rows; r++ {
		xs[r] = t.NumericAt(xCol, r)
		ys[r] = t.NumericAt(yCol, r)
	}
	return stats.Pearson(xs, ys)
}

// Render formats the table as aligned ASCII text, capped at maxRows rows
// (0 = all).
func (t *Table) Render(maxRows int) string {
	n := t.rows
	if maxRows > 0 && n > maxRows {
		n = maxRows
	}
	cells := make([][]string, n+1)
	cells[0] = make([]string, len(t.cols))
	for i, c := range t.cols {
		cells[0][i] = c.spec.Name
	}
	for r := 0; r < n; r++ {
		row := make([]string, len(t.cols))
		for i, c := range t.cols {
			ch, at := c.cell(r)
			switch c.spec.Type {
			case Int64:
				row[i] = fmt.Sprintf("%d", ch.Ints[at])
			case Float64:
				row[i] = fmt.Sprintf("%.6g", ch.Floats[at])
			case String:
				row[i] = c.Dict[ch.IDs[at]]
			default:
				panic("telemetry: unknown column type")
			}
		}
		cells[r+1] = row
	}
	widths := make([]int, len(t.cols))
	for _, row := range cells {
		for i, s := range row {
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	var sb strings.Builder
	for ri, row := range cells {
		for i, s := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], s)
		}
		sb.WriteByte('\n')
		if ri == 0 {
			for i, w := range widths {
				if i > 0 {
					sb.WriteString("  ")
				}
				sb.WriteString(strings.Repeat("-", w))
			}
			sb.WriteByte('\n')
		}
	}
	if n < t.rows {
		fmt.Fprintf(&sb, "... (%d more rows)\n", t.rows-n)
	}
	return sb.String()
}
