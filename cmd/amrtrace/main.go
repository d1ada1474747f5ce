// Command amrtrace inspects flight-recorder span streams written by the
// simulation tools (`experiments -trace dir/` or any driver run with
// Config.Trace set) — the paper's §IV-C diagnosis loop applied to full
// event timelines instead of per-step aggregates.
//
// Usage:
//
//	amrtrace -file spans.col                 # run the built-in detectors, print the report
//	amrtrace -file spans.col -schema         # print the span schema and row count
//	amrtrace -file spans.col -tql "SELECT rank, sum(dur) AS wait FROM t WHERE kind = 'send_wait' GROUP BY rank ORDER BY wait DESC LIMIT 5"
//	amrtrace -file spans.col -perfetto out.json
//	amrtrace -file spans.col -tql "SELECT * FROM t WHERE step >= 10" -perfetto out.json
//
// The span table is named "t" in queries. -perfetto converts spans (or, when
// combined with -tql, the query result) to Chrome trace-event JSON loadable
// in Perfetto or chrome://tracing: one timeline row per rank, one slice per
// span. Without -tql or -perfetto the command runs the wait-spike,
// shm-contention and throttling detectors (internal/trace/diagnose) and
// prints their findings, including the pre/post probe drift column. The
// detectors are TQL queries over the open file, like -tql: a chunk at a
// time, only the columns they name. Only -perfetto without -tql reads every
// row.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"amrtools/internal/colfile"
	"amrtools/internal/telemetry"
	"amrtools/internal/tql"
	"amrtools/internal/trace"
	"amrtools/internal/trace/diagnose"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind main, returning the exit status: 0, 1
// for a file or query error, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("amrtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	file := fs.String("file", "", "span colfile (written by experiments -trace or driver runs)")
	schema := fs.Bool("schema", false, "print the span schema and row count, then exit")
	query := fs.String("tql", "", "TQL query over the span table (named \"t\")")
	perfetto := fs.String("perfetto", "", "write spans as Chrome trace-event JSON to this file")
	maxRows := fs.Int("rows", 50, "maximum rows to print (0 = all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "amrtrace:", err)
		return 1
	}

	if *file == "" {
		fmt.Fprintln(stderr, "amrtrace: -file is required")
		return 2
	}
	f, err := os.Open(*file)
	if err != nil {
		return fail(err)
	}
	defer f.Close()
	r, err := colfile.OpenFile(f)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", *file, err))
	}

	if *schema {
		// Schema and row count come from the footer index: no payload reads.
		fmt.Fprintf(stdout, "%s: %d spans\n", *file, r.NumRows())
		for _, s := range r.Schema() {
			fmt.Fprintf(stdout, "  %-16s %s\n", s.Name, s.Type)
		}
		return 0
	}

	// export is the -perfetto ending: the spans go to the named file, the
	// confirmation to stderr.
	export := func(table *telemetry.Table) int {
		if err := writePerfetto(table, *perfetto); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "amrtrace: %d spans -> %s\n", table.NumRows(), *perfetto)
		return 0
	}

	if *query != "" {
		// Queries run against the file through the block index: chunk
		// pruning, projection pushdown, metadata-only aggregates.
		out, err := tql.RunOn(*query, r)
		if err != nil {
			return fail(err)
		}
		if *perfetto != "" {
			// The query result becomes the exported timeline: slice the
			// trace down (by step window, kind, rank...) before handing it
			// to Perfetto. The result must keep the span columns.
			return export(out)
		}
		fmt.Fprint(stdout, out.Render(*maxRows))
		return 0
	}

	if *perfetto != "" {
		// The exporter writes one slice per span: the one mode that needs
		// every row of the file.
		table, err := r.Table()
		if err != nil {
			return fail(fmt.Errorf("%s: %w", *file, err))
		}
		return export(table)
	}

	// Default mode: run the detectors and print the diagnosis report. They
	// are queries too — the file is scanned a chunk at a time, never held.
	findings, err := diagnose.Diagnose(r, diagnose.Options{})
	if err != nil {
		return fail(fmt.Errorf("%s: %w", *file, err))
	}
	if len(findings) == 0 {
		fmt.Fprintf(stdout, "%s: %d spans, no findings (wait-spike, shm-contention and throttling detectors all clean)\n",
			*file, r.NumRows())
		return 0
	}
	fmt.Fprint(stdout, diagnose.ReportTable(findings).Render(*maxRows))
	return 0
}

func writePerfetto(t *telemetry.Table, path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WritePerfetto(out, t); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
