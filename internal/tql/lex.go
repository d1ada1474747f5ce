// Package tql implements a small SQL dialect over telemetry tables — the
// query layer of the paper's analytics pipeline (§IV-C): after outgrowing
// CSV+pandas, the authors converged on SQL over columnar telemetry. TQL
// supports the shapes those diagnostic queries take:
//
//	SELECT rank, sum(wait) AS total
//	FROM t
//	WHERE step >= 10 AND policy = 'lpt'
//	GROUP BY rank
//	ORDER BY total DESC
//	LIMIT 5
//
// One table per query (FROM names are resolved by the caller), aggregates
// from the telemetry package (sum, mean/avg, min, max, count, p50/median,
// p99, var, std), numeric and string comparisons, AND/OR/NOT.
//
// There is one query path. bind resolves a parsed query against a schema:
// every column located, every WHERE subexpression typed and compiled to a
// kernel, aggregate and output-name legality checked — so every mistake
// that depends only on query + schema is an error before a row is read.
// One executor then runs the bound query over a chunk source: a colfile
// (ExecFileExplain: zone-map chunk skipping, projection pushdown, aggregates
// answered from the footer) or an in-memory table (Run, or RunOn a table:
// the table's own storage as a single chunk). The only error left for run time is division
// by zero. The row-at-a-time interpreter this replaced lives on in the
// package's tests as the differential oracle (DESIGN.md §12).
package tql

import (
	"fmt"
	"strings"
	"unicode"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct // ( ) , = != <> < <= > >= *
)

type token struct {
	kind tokKind
	text string // for idents: lower-cased; for strings: unquoted
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c >= '0' && c <= '9' || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
			l.lexNumber()
		case isIdentStart(rune(c)):
			l.lexIdent()
		default:
			if err := l.lexPunct(); err != nil {
				return nil, err
			}
		}
	}
	l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
	return l.toks, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}
func isIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			// '' escapes a quote, SQL style.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: sb.String(), pos: start})
			return nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("tql: unterminated string at offset %d", start)
}

func (l *lexer) lexNumber() {
	start := l.pos
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isDigit(c):
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
			seenExp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		default:
			goto done
		}
	}
done:
	l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentRune(rune(l.src[l.pos])) {
		l.pos++
	}
	l.toks = append(l.toks, token{
		kind: tokIdent,
		text: strings.ToLower(l.src[start:l.pos]),
		pos:  start,
	})
}

func (l *lexer) lexPunct() error {
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "!=", "<>", "<=", ">=":
		l.toks = append(l.toks, token{kind: tokPunct, text: two, pos: l.pos})
		l.pos += 2
		return nil
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '=', '<', '>', '*', '+', '-', '/':
		l.toks = append(l.toks, token{kind: tokPunct, text: string(c), pos: l.pos})
		l.pos++
		return nil
	}
	return fmt.Errorf("tql: unexpected character %q at offset %d", c, l.pos)
}
