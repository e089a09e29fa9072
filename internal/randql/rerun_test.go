package randql

import (
	"flag"
	"strings"
	"testing"
)

// TestReproRerunReplaysCase takes the rerun line from a completeness
// reproducer made under extended grammar flags, re-derives the case the
// way the named test would from the line's arguments alone, and
// requires the same SQL.
func TestReproRerunReplaysCase(t *testing.T) {
	saved := [3]float64{*flagSubq, *flagHaving, *flagLike}
	*flagSubq, *flagHaving, *flagLike = 1, 1, 0.6
	defer func() { *flagSubq, *flagHaving, *flagLike = saved[0], saved[1], saved[2] }()
	for _, h := range []harness{oracleHarness, completenessHarness, roundTripHarness, engineDiffHarness} {
		for _, i := range []int{0, 3, 17} {
			c, err := h.newCase(700001, i)
			if err != nil {
				t.Fatal(err)
			}
			var line string
			for _, l := range strings.Split(c.Repro(nil), "\n") {
				if strings.HasPrefix(l, "-- rerun: ") {
					line = strings.TrimPrefix(l, "-- rerun: ")
				}
			}
			if line == "" {
				t.Fatalf("%s case %d: no rerun line in\n%s", h.test, i, c.Repro(nil))
			}
			const prefix = "go test ./internal/randql "
			if !strings.HasPrefix(line, prefix) {
				t.Fatalf("%s case %d: rerun line %q is not a go test command", h.test, i, line)
			}
			fs := flag.NewFlagSet("rerun", flag.ContinueOnError)
			run := fs.String("run", "", "")
			seed := fs.Int64("randql.seed", 1, "")
			counts := map[string]*int{}
			for _, name := range []string{"randql.n", "randql.q", "randql.engine-diff"} {
				counts[name] = fs.Int(name, 70, "")
			}
			subq := fs.Float64("randql.subq", -1, "")
			having := fs.Float64("randql.having", -1, "")
			like := fs.Float64("randql.like", -1, "")
			args := strings.Fields(strings.ReplaceAll(strings.TrimPrefix(line, prefix), "'", ""))
			if err := fs.Parse(args); err != nil {
				t.Fatalf("%s case %d: rerun line %q: %v", h.test, i, line, err)
			}
			var replay harness
			for _, cand := range []harness{oracleHarness, completenessHarness, roundTripHarness, engineDiffHarness} {
				if *run == "^"+cand.test+"$" {
					replay = cand
				}
			}
			if replay.test != h.test {
				t.Fatalf("%s case %d: rerun line %q runs %q", h.test, i, line, *run)
			}
			if replay.count != "" && *counts[replay.count] != 1 {
				t.Errorf("%s case %d: rerun line %q does not run one case", h.test, i, line)
			}
			cfg := replay.preset()
			if replay.flags {
				for _, f := range []struct {
					v   float64
					dst *float64
				}{{*subq, &cfg.SubqProb}, {*having, &cfg.HavingProb}, {*like, &cfg.LikeProb}} {
					if f.v >= 0 {
						*f.dst = f.v
					}
				}
			}
			again, err := NewCase(*seed+replay.offset, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if again.SQL != c.SQL {
				t.Errorf("%s case %d: rerun line %q replays\n%s\nwant\n%s", h.test, i, line, again.SQL, c.SQL)
			}
		}
	}
}
