package experiments

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

// seed1 pins the quick seed-1 verdict of every claim whose Quick status
// does not decide it: the varies claims, and the claims about a scale quick
// mode does not run.
var seed1 = map[string]string{
	"fig2/pruning-speedup-4x":            "holds",
	"fig3/queue-tuning-cuts-cv":          "fails",
	"table1/growth-near-paper":           "n/a",
	"fig6a/cpl0-beats-baseline":          "holds",
	"fig6a/interior-optimum":             "fails",
	"fig6a/baseline-sync-share":          "n/a",
	"fig6a/sync-share-grows-with-scale":  "n/a",
	"fig7a/u-shape-at-2048":              "n/a",
	"lptilp/solver-within-5pct":          "holds",
	"lptilp/solver-no-gain":              "fails",
	"ablations/top-only-within-cdp-seed": "holds",
}

// shapeExps names, for each experiment, the shape test that judges its
// claims (a claim belongs to the first experiment it reads) and the
// experiment's row count per table at quick scale. The claims find their
// cells by key, so only the counts catch an extra row: a fourth Fig 3
// stage, a second Table I scale, a baseline row in Fig 7a.
var shapeExps = map[string]struct {
	test string
	rows []int
}{
	"fig1top":      {"TestFig1TopTuningRestoresCorrelation", []int{2}},
	"fig1bottom":   {"TestFig1BottomDrainQueueRemovesSpikes", []int{2}},
	"fig2":         {"TestFig2HealthPruningRecoversRuntime", []int{2}},
	"fig3":         {"TestFig3StagesReduceVariance", []int{3}},
	"fig4":         {"TestFig4TwoRankPrinciple", []int{6}},
	"table1":       {"TestTableIShape", []int{1}},
	"fig6":         {"TestFig6QualitativeFindings", []int{6, 6, 6}}, // one quick scale x (baseline + 5 X values)
	"cooling":      {"TestFig6CoolingDirectionallySimilar", []int{4}},
	"fig7a":        {"TestFig7aProducesLatencies", []int{5}}, // one quick scale x 5 X values
	"fig7b":        {"TestFig7bLPTBestAndCPL25CapturesBulk", []int{36}},
	"lptilp":       {"TestLPTvsILPNoLargeGap", []int{2}},
	"ablations":    {"TestAblations", []int{8}},
	"lbinterval":   {"TestLBIntervalSweep", []int{4}},
	"hilbert":      {"TestHilbertOrderStudy", []int{2}},
	"neighborhood": {"TestNeighborhoodCollectives", []int{2}},
}

// shapeRuns holds each experiment's quick seed-1 tables, run once for all
// the shape tests (which do not run in parallel) that read them.
var shapeRuns = tabs{}

// checkShapes runs experiment exp and the others its claims read, at quick
// scale, seed 1, checks exp's row counts, and requires each claim's
// verdict: the one its quick status names, or the pinned seed-1 verdict.
func checkShapes(t *testing.T, exp string) {
	t.Helper()
	if shapeExps[exp].test != t.Name() {
		t.Fatalf("%s's claims are judged by %q, not %s", exp, shapeExps[exp].test, t.Name())
	}
	var claims []Claim
	ts := tabs{}
	for _, c := range Shapes {
		if c.Exps[0] != exp {
			continue
		}
		claims = append(claims, c)
		for _, id := range c.Exps {
			if shapeRuns[id] == nil {
				nts, err := Suite()[slices.IndexFunc(Suite(), func(e Experiment) bool { return e.ID == id })].Run(quick)
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				shapeRuns[id] = nts
			}
			ts[id] = shapeRuns[id]
		}
	}
	var rows []int
	for _, nt := range ts[exp] {
		rows = append(rows, nt.Table.NumRows())
	}
	if !slices.Equal(rows, shapeExps[exp].rows) {
		t.Errorf("%s: rows per table %v, want %v", exp, rows, shapeExps[exp].rows)
	}
	ledger, _ := Judge(claims, ts, true)
	if len(claims) == 0 || ledger.NumRows() != len(claims) {
		t.Fatalf("ledger has %d rows for %d claims:\n%s", ledger.NumRows(), len(claims), ledger.Render(0))
	}
	for i, c := range claims {
		t.Run(c.ID, func(t *testing.T) {
			want, pinned := seed1[c.ID]
			if c.Full == Varies || (c.Quick == Varies) != (pinned && want != "n/a") {
				t.Fatalf("varies is a quick status, and only varies and n/a claims pin a seed-1 verdict")
			}
			if !pinned {
				want = map[bool]string{true: "holds", false: "fails"}[c.status(true) == Holds]
			}
			if got := ledger.Strings("verdict")[i]; got != want {
				t.Errorf("verdict %q, want %q (quick status %s; measured %s)",
					got, want, c.status(true), ledger.Strings("measured")[i])
			}
		})
	}
}

// TestShapes requires every experiment a claim reads to have a shape test
// and row counts, and every pinned verdict to belong to a claim.
func TestShapes(t *testing.T) {
	for _, c := range Shapes {
		for _, id := range c.Exps {
			if _, ok := shapeExps[id]; !ok {
				t.Errorf("claim %s reads %s, which has no entry in shapeExps", c.ID, id)
			}
		}
	}
	for id := range seed1 {
		if !slices.ContainsFunc(Shapes, func(c Claim) bool { return c.ID == id }) {
			t.Errorf("seed1 pins %s, which is not a claim", id)
		}
	}
}

func TestFig1TopTuningRestoresCorrelation(t *testing.T)  { checkShapes(t, "fig1top") }
func TestFig1BottomDrainQueueRemovesSpikes(t *testing.T) { checkShapes(t, "fig1bottom") }
func TestFig2HealthPruningRecoversRuntime(t *testing.T)  { checkShapes(t, "fig2") }
func TestFig3StagesReduceVariance(t *testing.T)          { checkShapes(t, "fig3") }
func TestFig4TwoRankPrinciple(t *testing.T)              { checkShapes(t, "fig4") }
func TestTableIShape(t *testing.T)                       { checkShapes(t, "table1") }
func TestFig6QualitativeFindings(t *testing.T)           { checkShapes(t, "fig6") }
func TestFig7aProducesLatencies(t *testing.T)            { checkShapes(t, "fig7a") }
func TestFig7bLPTBestAndCPL25CapturesBulk(t *testing.T)  { checkShapes(t, "fig7b") }
func TestLPTvsILPNoLargeGap(t *testing.T)                { checkShapes(t, "lptilp") }
func TestFig6CoolingDirectionallySimilar(t *testing.T)   { checkShapes(t, "cooling") }
func TestAblations(t *testing.T)                         { checkShapes(t, "ablations") }
func TestLBIntervalSweep(t *testing.T)                   { checkShapes(t, "lbinterval") }
func TestHilbertOrderStudy(t *testing.T)                 { checkShapes(t, "hilbert") }
func TestNeighborhoodCollectives(t *testing.T)           { checkShapes(t, "neighborhood") }

// TestJudge covers every status against both verdicts, at both scales, a
// Quick status left empty, and a claim whose experiments did not all run.
func TestJudge(t *testing.T) {
	cases := []struct {
		full, quick       Status
		holds, applicable bool
		atQuick, atFull   string // status / verdict; "" for a claim Judge leaves out
	}{
		{Holds, "", true, true, "holds / holds", "holds / holds"},
		{Holds, "", false, true, "holds / fails (disagrees)", "holds / fails (disagrees)"},
		{Weaker, "", false, true, "weaker / fails", "weaker / fails"},
		{Weaker, "", true, true, "weaker / holds (disagrees)", "weaker / holds (disagrees)"},
		{NotReproduced, "", false, true, "not-reproduced / fails", "not-reproduced / fails"},
		{NotReproduced, "", true, true, "not-reproduced / holds (disagrees)", "not-reproduced / holds (disagrees)"},
		{Holds, Varies, true, true, "varies / holds", "holds / holds"},
		{Holds, Varies, false, true, "varies / fails", "holds / fails (disagrees)"},
		{Holds, Weaker, true, false, "weaker / n/a", "holds / n/a"},
		{Holds, Weaker, true, true, "weaker / holds (disagrees)", "holds / holds"},
		{Holds, "", false, true, "", ""}, // reads experiment "b", which did not run
	}
	var claims []Claim
	for i, tc := range cases {
		exps := []string{"a"}
		if tc.atQuick == "" {
			exps = append(exps, "b")
		}
		claims = append(claims, Claim{ID: fmt.Sprint(i), Exps: exps, Full: tc.full, Quick: tc.quick,
			Check: func(tabs) (string, bool, bool) { return "m", tc.holds, tc.applicable }})
	}
	for _, quick := range []bool{true, false} {
		ledger, bad := Judge(claims, tabs{"a": nil}, quick)
		got := map[string]string{}
		for r, id := range ledger.Strings("id") {
			got[id] = ledger.Strings("status")[r] + " / " + ledger.Strings("verdict")[r]
			if m := ledger.Strings("measured")[r]; m != "m" {
				t.Errorf("quick=%v case %s: measured %q, want only what Check measured", quick, id, m)
			}
		}
		if bad != 4 || len(got) != len(cases)-1 {
			t.Errorf("quick=%v: %d disagreements in\n%s", quick, bad, ledger.Render(0))
		}
		for i, tc := range cases {
			if want := map[bool]string{true: tc.atQuick, false: tc.atFull}[quick]; got[fmt.Sprint(i)] != want {
				t.Errorf("quick=%v case %d: %q, want %q", quick, i, got[fmt.Sprint(i)], want)
			}
		}
	}
}

// TestExperimentsDocClaims requires EXPERIMENTS.md's claims table to be
// the ledger's rendering, and its seed-sweep table, which holds the sweep's
// counts, to list exactly the claims whose quick status is varies: a status
// changes in the doc and the ledger or in neither. Each sweep row's
// held/total count must lie strictly between 0 and total, since a varies
// claim has seen both verdicts.
func TestExperimentsDocClaims(t *testing.T) {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	block := func(begin, end string) string {
		_, rest, ok := strings.Cut(doc, begin)
		b, _, ok2 := strings.Cut(rest, end)
		if !ok || !ok2 {
			t.Fatalf("EXPERIMENTS.md lacks the %q ... %q block", begin, end)
		}
		return b
	}
	var want strings.Builder
	want.WriteString("| claim | paper | status (full, seed 42; quick where it differs) |\n|---|---|---|\n")
	var varies []string
	for _, c := range Shapes {
		st := string(c.Full)
		if c.Quick != "" {
			st += "; quick: " + string(c.Quick)
		}
		fmt.Fprintf(&want, "| `%s` | %s | %s |\n", c.ID, c.Paper, st)
		if c.Quick == Varies {
			varies = append(varies, c.ID)
		}
	}
	if table := block("<!-- claims: rendered from experiments.Shapes -->\n", "<!-- end claims -->"); table != want.String() {
		t.Errorf("EXPERIMENTS.md's claims table drifted from the ledger; replace it with:\n%s", want.String())
	}
	var swept []string
	for _, line := range strings.Split(block("<!-- sweep: one row per varies claim of experiments.Shapes -->\n", "<!-- end sweep -->"), "\n") {
		if id, ok := strings.CutPrefix(line, "| `"); ok {
			id, rest, _ := strings.Cut(id, "`")
			swept = append(swept, id)
			var held, total int
			if _, err := fmt.Sscanf(rest, " | %d/%d |", &held, &total); err != nil {
				t.Errorf("sweep row %s: no held/total count: %v", id, err)
			} else if held <= 0 || held >= total {
				t.Errorf("sweep row %s: held %d/%d, but a varies claim must have held and failed", id, held, total)
			}
		}
	}
	slices.Sort(varies)
	slices.Sort(swept)
	if !slices.Equal(swept, varies) {
		t.Errorf("EXPERIMENTS.md's seed-sweep table lists %v, want the varies claims %v", swept, varies)
	}
}
