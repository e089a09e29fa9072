package sqlparser

import (
	"testing"

	"repro/internal/schema"
	"repro/internal/sqltypes"
	"repro/internal/testutil"
	"repro/internal/university"
)

// TestRenderAllocs locks the per-identifier and per-row allocation of
// the text layers a generation request runs: quoting a bare
// non-reserved identifier allocates nothing, rendering a dataset as
// INSERT statements allocates a constant number of objects per call
// however many rows and columns it has, and lexing the university DDL
// allocates its token slice and nothing per identifier. Run without
// -race: the race detector's instrumentation allocates.
func TestRenderAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are measured without -race")
	}
	for _, id := range []string{"instructor", "dept_name", "ID", "t0_k1"} {
		if n := testing.AllocsPerRun(100, func() { schema.QuoteIdent(id) }); n != 0 {
			t.Errorf("QuoteIdent(%q) allocates %.0f objects, want 0", id, n)
		}
	}

	sch := university.Schema(-1)
	for _, rows := range []int{1, 9} {
		ds := university.SampleDB(sch, rows)
		ds.Insert("section", sqltypes.Row{sqltypes.NewInt(99), sqltypes.NewString("it's"), sqltypes.TypedNull(sqltypes.KindInt)})
		n := testing.AllocsPerRun(20, func() { ds.SQLInserts(sch) })
		t.Logf("SQLInserts of %d rows: %.0f allocations", ds.Size(), n)
		if n > 3 {
			t.Errorf("SQLInserts of %d rows allocates %.0f objects, want at most 3", ds.Size(), n)
		}
	}

	ddl := sch.String()
	toks, err := lex(ddl)
	if err != nil {
		t.Fatal(err)
	}
	idents := 0
	for _, tok := range toks {
		if tok.kind == tkIdent || tok.kind == tkKeyword {
			idents++
		}
	}
	n := testing.AllocsPerRun(20, func() {
		if _, err := lex(ddl); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("lexing the university DDL (%d tokens, %d words): %.0f allocations", len(toks), idents, n)
	if n != 1 {
		t.Errorf("lexing the university DDL (%d words) allocates %.0f objects, want 1 (the token slice)", idents, n)
	}
}
