package main

import (
	"fmt"
	"math"
	"sort"

	"amrtools/internal/telemetry"
)

// The oracles below answer the benchmark's queries with plain loops over
// the generated column slices. They share no code with tql or colfile, so
// an executor bug cannot cancel out.

// oracleAll returns the expected rows of every fileQueries entry, in order,
// followed by memQuery's.
func oracleAll(in *telemetryInput) [][][]interface{} {
	n := len(in.step)
	return [][][]interface{}{
		oraclePushdown(in),
		oracleScan(in, n),
		oracleFooter(in),
		oracleStrFilter(in),
		oracleGroupStr(in),
		oracleTopK(in),
		oracleScan(in, in.memRows),
	}
}

// SELECT rank, sum(wait) AS w WHERE step >= 920 GROUP BY rank ORDER BY w DESC LIMIT 8
func oraclePushdown(in *telemetryInput) [][]interface{} {
	sums := map[int64]float64{}
	for i, s := range in.step {
		if s >= 920 {
			sums[in.rank[i]] += in.wait[i]
		}
	}
	type kv struct {
		rank int64
		w    float64
	}
	var rows []kv
	for r, w := range sums {
		rows = append(rows, kv{r, w})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].w > rows[b].w })
	var out [][]interface{}
	for _, r := range rows[:min(8, len(rows))] {
		out = append(out, []interface{}{r.rank, r.w})
	}
	return out
}

// SELECT rank, count(*) AS n WHERE wait > 0.002 AND rank < 64 GROUP BY rank
// ORDER BY n DESC, rank LIMIT 4 — over the first n rows.
func oracleScan(in *telemetryInput, n int) [][]interface{} {
	counts := map[int64]int64{}
	for i := 0; i < n; i++ {
		if in.wait[i] > 0.002 && in.rank[i] < 64 {
			counts[in.rank[i]]++
		}
	}
	type kv struct{ rank, n int64 }
	var rows []kv
	for r, c := range counts {
		rows = append(rows, kv{r, c})
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].n != rows[b].n {
			return rows[a].n > rows[b].n
		}
		return rows[a].rank < rows[b].rank
	})
	var out [][]interface{}
	for _, r := range rows[:min(4, len(rows))] {
		out = append(out, []interface{}{r.rank, r.n})
	}
	return out
}

// SELECT count(*), min(wait), max(wait), sum(wait), avg(wait)
func oracleFooter(in *telemetryInput) [][]interface{} {
	lo, hi, sum := math.Inf(1), math.Inf(-1), 0.0
	for _, w := range in.wait {
		lo, hi, sum = math.Min(lo, w), math.Max(hi, w), sum+w
	}
	n := int64(len(in.wait))
	return [][]interface{}{{n, lo, hi, sum, sum / float64(n)}}
}

// SELECT count(*), sum(wait) WHERE policy = 'cdp'
func oracleStrFilter(in *telemetryInput) [][]interface{} {
	var n int64
	var sum float64
	for i, p := range in.policy {
		if policyNames[p] == "cdp" {
			n++
			sum += in.wait[i]
		}
	}
	return [][]interface{}{{n, sum}}
}

// SELECT policy, count(*), avg(wait) GROUP BY policy ORDER BY policy
func oracleGroupStr(in *telemetryInput) [][]interface{} {
	counts := make([]int64, len(policyNames))
	sums := make([]float64, len(policyNames))
	for i, p := range in.policy {
		counts[p]++
		sums[p] += in.wait[i]
	}
	order := make([]int, len(policyNames))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return policyNames[order[a]] < policyNames[order[b]] })
	var out [][]interface{}
	for _, p := range order {
		if counts[p] > 0 {
			out = append(out, []interface{}{policyNames[p], counts[p], sums[p] / float64(counts[p])})
		}
	}
	return out
}

// SELECT step, rank, wait WHERE step < 250 ORDER BY wait DESC LIMIT 10
func oracleTopK(in *telemetryInput) [][]interface{} {
	var idx []int
	for i, s := range in.step {
		if s < 250 {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return in.wait[idx[a]] > in.wait[idx[b]] })
	var out [][]interface{}
	for _, i := range idx[:min(10, len(idx))] {
		out = append(out, []interface{}{in.step[i], in.rank[i], in.wait[i]})
	}
	return out
}

// matchRows compares a query result with the oracle's rows, cell by cell in
// schema order: strings and integers exactly, floats to a relative 1e-9
// (the executors may add a column in a different order than the oracle).
func matchRows(t *telemetry.Table, want [][]interface{}) error {
	if t.NumRows() != len(want) {
		return fmt.Errorf("%d rows, oracle has %d", t.NumRows(), len(want))
	}
	schema := t.Schema()
	for r, row := range want {
		if len(schema) != len(row) {
			return fmt.Errorf("%d columns, oracle has %d", len(schema), len(row))
		}
		for c, w := range row {
			col := schema[c].Name
			ok := false
			switch w := w.(type) {
			case string:
				ok = t.ValueAt(col, r) == w
			case int64:
				ok = t.NumericAt(col, r) == float64(w)
			case float64:
				got := t.NumericAt(col, r)
				ok = math.Abs(got-w) <= 1e-9*math.Max(math.Abs(got), math.Abs(w))
			}
			if !ok {
				return fmt.Errorf("row %d column %s: got %v, oracle has %v", r, col, t.ValueAt(col, r), w)
			}
		}
	}
	return nil
}
