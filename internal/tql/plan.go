package tql

import "amrtools/internal/colfile"

// Explain reports how ExecFileExplain answered a query — the observable side of
// predicate and projection pushdown. amrquery -explain prints it.
type Explain struct {
	ChunksTotal    int      // chunks in the file's block index
	ChunksScanned  int      // chunks whose payload was decoded
	ChunksSkipped  int      // chunks excluded by zone maps alone
	ColumnsDecoded []string // schema columns whose payloads were decoded
	RowsMatched    int64    // rows that reached the post-WHERE stage (the footer's count on a metadata-only answer)
	MetadataOnly   bool     // answer came entirely from the footer index
	Fallback       string   // always empty (there is no fallback route); declared only because bench/ reads it
}

// chunkClass is the planner's verdict for one chunk against the WHERE
// clause, decided from zone maps without decoding.
type chunkClass uint8

const (
	// classSome: the chunk may contain both matching and non-matching rows;
	// it must be decoded and filtered.
	classSome chunkClass = iota
	// classAll: every row in the chunk satisfies the WHERE clause; the
	// filter can be skipped (and metadata can stand in for the rows).
	classAll
	// classNone: no row in the chunk can match; the chunk is skipped
	// without decoding.
	classNone
)

// classifySarg decides a single sargable predicate against a zone map.
func classifySarg(s *sargPred, z colfile.ZoneMap) chunkClass {
	if !z.HasRange {
		return classSome
	}
	switch s.op {
	case opEq:
		if s.val < z.Min || s.val > z.Max {
			return classNone
		}
		if z.Min == z.Max && z.Min == s.val {
			return classAll
		}
	case opNe:
		if z.Min == z.Max && z.Min == s.val {
			return classNone
		}
		if s.val < z.Min || s.val > z.Max {
			return classAll
		}
	case opLt:
		if z.Max < s.val {
			return classAll
		}
		if z.Min >= s.val {
			return classNone
		}
	case opLe:
		if z.Max <= s.val {
			return classAll
		}
		if z.Min > s.val {
			return classNone
		}
	case opGt:
		if z.Min > s.val {
			return classAll
		}
		if z.Max <= s.val {
			return classNone
		}
	case opGe:
		if z.Min >= s.val {
			return classAll
		}
		if z.Max < s.val {
			return classNone
		}
	}
	return classSome
}

// classifyChunk decides the chunk's class against the whole WHERE clause.
// With no WHERE every chunk is classAll; a source without zone maps (an
// in-memory table) decides nothing, so any WHERE makes its chunk classSome.
//
// A conjunct may only rule a chunk out when every conjunct before it is
// infallible: short-circuit evaluation still runs those on every row of the
// chunk, and skipping it would lose a division by zero they raise there.
func (b *bound) classifyChunk(m colfile.ChunkMeta) chunkClass {
	all, prefixInfallible := true, true
	for i := range b.conjs {
		c := &b.conjs[i]
		st := classSome
		if c.sarg != nil && m.Zones != nil {
			st = classifySarg(c.sarg, m.Zones[c.sarg.colIdx])
		}
		if st == classNone && prefixInfallible {
			return classNone
		}
		if st != classAll {
			all = false
		}
		prefixInfallible = prefixInfallible && !c.fallible
	}
	if all {
		return classAll
	}
	return classSome
}
