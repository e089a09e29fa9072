package mutation

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/schema"
)

// TestKillMatrixEngineMetamorphic pins the engine's kill matrix against
// refeval, the independent reference evaluator: the compiled executor
// (with family sharing and the whole-result memo) must produce the same
// kill matrix as ReferenceKills on the same (space, suite) input, and
// the counters must show the family sharing at work.
func TestKillMatrixEngineMetamorphic(t *testing.T) {
	query := q(t, testDDL, `SELECT i.name, c.title FROM instructor i, teaches t, course c
		WHERE i.id = t.id AND t.course_id = c.course_id AND i.salary > 70000`)
	ms, err := Space(query, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("empty mutant space")
	}

	rng := rand.New(rand.NewSource(11))
	var datasets []*schema.Dataset
	for i := 0; i < 12; i++ {
		ds, err := RandomDataset(query, rng, 3)
		if err != nil {
			t.Fatal(err)
		}
		datasets = append(datasets, ds)
	}

	rep, err := Evaluate(query, ms, datasets)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ReferenceKills(query, ms, datasets)
	if err != nil {
		t.Fatal(err)
	}
	if mi, di, bad := rep.FirstDisagreement(ref); bad {
		t.Errorf("compiled run disagrees with refeval: mutant %q dataset %d: compiled=%v refeval=%v",
			ms[mi].Desc, di, rep.Killed[mi][di], ref[mi][di])
	}

	if rep.Exec.CompiledRuns == 0 {
		t.Errorf("CompiledRuns = 0, want one per executed cell")
	}
	if rep.Exec.FamilyPrefixHits == 0 {
		t.Errorf("FamilyPrefixHits = 0 across a mutant family, want sharing")
	}
}

// TestEvaluateConcurrentSharedSpace runs several evaluations of one
// mutant space at once. Each compiles its own copies of the space's
// plans as one family while the others read the same plans and trees;
// every report must equal a sequential evaluation of a fresh space, and
// so must a re-evaluation of the already-evaluated space. Run under
// -race.
func TestEvaluateConcurrentSharedSpace(t *testing.T) {
	query := q(t, testDDL, `SELECT i.name, c.title FROM instructor i, teaches t, course c
		WHERE i.id = t.id AND t.course_id = c.course_id AND i.salary > 70000`)
	rng := rand.New(rand.NewSource(5))
	var datasets []*schema.Dataset
	for i := 0; i < 4; i++ {
		ds, err := RandomDataset(query, rng, 3)
		if err != nil {
			t.Fatal(err)
		}
		datasets = append(datasets, ds)
	}
	fresh, err := Space(query, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := Evaluate(query, fresh, datasets)
	if err != nil {
		t.Fatal(err)
	}

	shared, err := Space(query, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*Report, 4)
	errs := make([]error, len(reps))
	var wg sync.WaitGroup
	for g := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[g], errs[g] = Evaluate(query, shared, datasets)
		}()
	}
	wg.Wait()
	for g, rep := range reps {
		if errs[g] != nil {
			t.Fatalf("evaluation %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(rep.Killed, want.Killed) || rep.Exec != want.Exec {
			t.Errorf("evaluation %d differs from the sequential one: exec %+v, want %+v", g, rep.Exec, want.Exec)
		}
	}

	// Re-evaluating the already-evaluated space compiles it afresh as
	// one family, so it does exactly the first evaluation's work.
	again, err := Evaluate(query, shared, datasets)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Killed, want.Killed) || again.Exec != want.Exec {
		t.Errorf("re-evaluation differs from the first one: exec %+v, want %+v", again.Exec, want.Exec)
	}
}
