// Command amrquery runs TQL (a small SQL dialect) over binary columnar
// telemetry files written by the simulation tools — the query-driven
// diagnosis workflow of the paper's §IV-C and Lesson 4.
//
// Usage:
//
//	amrquery -file telemetry.col "SELECT rank, sum(comm) AS total FROM t WHERE step >= 10 GROUP BY rank ORDER BY total DESC LIMIT 5"
//	amrquery -file telemetry.col -explain "SELECT count(*) FROM t WHERE step >= 10"
//	amrquery -file telemetry.col -schema
//	amrquery -file telemetry.col            # interactive: one query per line
//	amrquery -file spans.col -diagnose      # run the built-in detectors over a span file
//	amrquery -file spans.col -perfetto out.json "SELECT * FROM t WHERE step >= 10"
//
// The file's table is named "t" in queries. Queries execute directly
// against the file through the footer block index: chunks whose zone maps
// exclude the WHERE clause are skipped without decoding, only referenced
// columns are decoded, and min/max/sum/count/avg queries that the index
// fully covers are answered without touching any payload. `-explain`
// prints what the planner did — a range predicate such as
// `WHERE step >= 10 AND step <= 19` shows up there as skipped chunks. A
// query is checked against the file's schema before anything is read, so a
// mistyped column or an ill-typed comparison is an error, never an empty
// result. `-csv` emits results as CSV.
//
// Two modes read flight-recorder span files (`experiments -trace dir/`).
// `-diagnose` runs the wait-spike, shm-contention and throttling detectors
// (internal/trace/diagnose) and prints their findings, including the
// pre/post probe drift column; the detectors are TQL queries over the open
// file too, a chunk at a time, only the columns they name. `-perfetto`
// writes the query result — every span when no query is given — as Chrome
// trace-event JSON loadable in Perfetto or chrome://tracing: one timeline
// row per rank, one slice per span, so a query slices the trace down (by
// step window, kind, rank...) before export. The result must keep the span
// columns.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"amrtools/internal/colfile"
	"amrtools/internal/telemetry"
	"amrtools/internal/tql"
	"amrtools/internal/trace"
	"amrtools/internal/trace/diagnose"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the whole command behind main, returning the exit status: 0, 1
// for a file or query error, 2 for a usage error.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("amrquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	file := fs.String("file", "", "columnar telemetry file")
	schema := fs.Bool("schema", false, "print the file schema and row count, then exit")
	explain := fs.Bool("explain", false, "print chunks scanned vs skipped, columns decoded, rows matched, and metadata-only status")
	maxRows := fs.Int("rows", 50, "maximum rows to print (0 = all)")
	asCSV := fs.Bool("csv", false, "emit query results as CSV instead of an aligned table")
	diag := fs.Bool("diagnose", false, "run the span detectors over a span file and print their findings")
	perfetto := fs.String("perfetto", "", "write the query result (with no query, every span) as Chrome trace-event JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "amrquery:", msg)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "amrquery:", err)
		return 1
	}

	query := strings.Join(fs.Args(), " ")
	hasQuery := strings.TrimSpace(query) != ""
	switch {
	case *file == "":
		return usage("-file is required")
	case *diag && (hasQuery || *asCSV || *explain || *perfetto != ""):
		return usage("-diagnose takes no query, -csv, -explain or -perfetto")
	case *asCSV && *perfetto != "":
		return usage("-csv and -perfetto both choose where the result goes")
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
		// Schema and row count come from the block index: no payload reads.
		fmt.Fprintf(stdout, "%s: %d rows (format v%d, %d chunks)\n", *file, r.NumRows(), r.Version(), r.NumChunks())
		for _, s := range r.Schema() {
			fmt.Fprintf(stdout, "  %-16s %s\n", s.Name, s.Type)
		}
		return 0
	}

	if *diag {
		findings, err := diagnose.Diagnose(r)
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

	runOne := func(query string) error {
		q, err := tql.Parse(query)
		if err != nil {
			return err
		}
		out, ex, err := tql.ExecFileExplain(q, r)
		if *explain {
			fmt.Fprintln(stdout, formatExplain(ex))
		}
		if err != nil {
			return err
		}
		switch {
		case *perfetto != "":
			if err := writePerfetto(out, *perfetto); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "amrquery: %d spans -> %s\n", out.NumRows(), *perfetto)
			return nil
		case *asCSV:
			return out.WriteCSV(stdout)
		}
		if !*explain && ex.ChunksSkipped > 0 {
			fmt.Fprintf(stdout, "(pruned %d chunks via embedded statistics)\n", ex.ChunksSkipped)
		}
		fmt.Fprint(stdout, out.Render(*maxRows))
		return nil
	}

	if !hasQuery && *perfetto != "" {
		query, hasQuery = "SELECT * FROM t", true
	}
	if hasQuery {
		if err := runOne(query); err != nil {
			return fail(err)
		}
		return 0
	}

	// No query on the command line: interactive mode, one TQL statement per
	// line (the hypothesis-driven exploration loop of §IV-C).
	fmt.Fprintf(stdout, "amrquery: %d rows in table \"t\"; one TQL query per line, ctrl-D to exit\n", r.NumRows())
	scanner := bufio.NewScanner(stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(stdout, "tql> ")
		if !scanner.Scan() {
			fmt.Fprintln(stdout)
			return 0
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if line == "exit" || line == "quit" {
			return 0
		}
		if err := runOne(line); err != nil {
			fail(err)
		}
	}
}

// formatExplain renders the planner report printed by -explain.
func formatExplain(ex *tql.Explain) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "explain: chunks: %d scanned, %d skipped (of %d)",
		ex.ChunksScanned, ex.ChunksSkipped, ex.ChunksTotal)
	if len(ex.ColumnsDecoded) > 0 {
		fmt.Fprintf(&sb, "; columns decoded: %s", strings.Join(ex.ColumnsDecoded, ", "))
	} else {
		sb.WriteString("; columns decoded: none")
	}
	fmt.Fprintf(&sb, "; rows matched: %d", ex.RowsMatched)
	if ex.MetadataOnly {
		sb.WriteString("; answered from footer metadata only")
	}
	return sb.String()
}

// writePerfetto writes t to path as Chrome trace-event JSON.
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
