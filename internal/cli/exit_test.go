package cli

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/limits"
	"repro/internal/qtree"
	"repro/internal/sqlparser"
)

// TestInputExitCode pins the caller-error classification against real
// pipeline errors, not hand-built sentinels: an unsupported construct
// surfaced by the qtree builder and a depth rejection from the parser
// must both be usage errors, while plain syntax errors stay fatal.
func TestInputExitCode(t *testing.T) {
	sch, err := sqlparser.ParseSchema("CREATE TABLE t (x INT PRIMARY KEY, s VARCHAR(8) NOT NULL);")
	if err != nil {
		t.Fatal(err)
	}

	_, unsupported := qtree.BuildSQL(sch, "SELECT x FROM t WHERE x = 1 OR x = 2")
	if unsupported == nil || !errors.Is(unsupported, sqlparser.ErrUnsupported) {
		t.Fatalf("OR query should be ErrUnsupported, got %v", unsupported)
	}

	deep := "SELECT x FROM t WHERE " + strings.Repeat("(", 1000) + "x = 1" + strings.Repeat(")", 1000)
	_, limited := sqlparser.ParseQuery(deep)
	if limited == nil || !errors.Is(limited, limits.ErrResourceLimit) {
		t.Fatalf("deep query should be ErrResourceLimit, got %v", limited)
	}

	_, syntax := sqlparser.ParseQuery("SELEC * FORM t")
	if syntax == nil {
		t.Fatal("garbage should not parse")
	}

	badOpts := (&core.Options{GoalNodeLimit: -1}).Validate()
	if badOpts == nil || !errors.Is(badOpts, core.ErrBadOptions) {
		t.Fatalf("negative GoalNodeLimit should be ErrBadOptions, got %v", badOpts)
	}

	cases := []struct {
		name string
		err  error
		want int
	}{
		{"unsupported construct", unsupported, ExitUsage},
		{"resource limit", limited, ExitUsage},
		{"wrapped unsupported", fmt.Errorf("query: %w", unsupported), ExitUsage},
		{"bad options", badOpts, ExitUsage},
		{"wrapped bad options", fmt.Errorf("generate: %w", badOpts), ExitUsage},
		{"syntax error", syntax, ExitFatal},
		{"io error", errors.New("open schema.sql: no such file"), ExitFatal},
	}
	for _, tc := range cases {
		if got := InputExitCode(tc.err); got != tc.want {
			t.Errorf("%s: InputExitCode = %d, want %d (err: %v)", tc.name, got, tc.want, tc.err)
		}
	}
}
