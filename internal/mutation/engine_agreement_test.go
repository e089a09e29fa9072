package mutation

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/schema"
)

// TestKillMatrixEngineMetamorphic pins the ablation guarantee at the
// kill-matrix level: the compiled columnar executor (with family
// sharing and the whole-result memo), the reference interpreter
// (NoCompiledEngine), and a parallel compiled run must produce
// cell-identical kill matrices on the same (space, suite) input, and
// the per-engine counters must reflect which executor actually ran.
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

	compiled, err := EvaluateOpts(query, ms, datasets, EvalOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	interp, err := EvaluateOpts(query, ms, datasets, EvalOptions{Parallelism: 1, NoCompiledEngine: true})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := EvaluateOpts(query, ms, datasets, EvalOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}

	diff := 0
	for mi := range ms {
		for di := range datasets {
			if compiled.Killed[mi][di] != interp.Killed[mi][di] {
				if diff == 0 {
					t.Errorf("first disagreement: mutant %q dataset %d: compiled=%v interpreted=%v",
						ms[mi].Desc, di, compiled.Killed[mi][di], interp.Killed[mi][di])
				}
				diff++
			}
			if compiled.Killed[mi][di] != parallel.Killed[mi][di] {
				t.Fatalf("parallel compiled run diverged: mutant %q dataset %d", ms[mi].Desc, di)
			}
		}
	}
	if diff > 0 {
		t.Errorf("%d of %d kill-matrix cells disagree between executors", diff, len(ms)*len(datasets))
	}

	// The counters must name the executor that ran.
	if compiled.Exec.CompiledRuns == 0 || compiled.Exec.InterpretedRuns != 0 {
		t.Errorf("compiled run counters = %+v, want compiled-only", compiled.Exec)
	}
	if interp.Exec.InterpretedRuns == 0 || interp.Exec.CompiledRuns != 0 {
		t.Errorf("interpreted run counters = %+v, want interpreter-only", interp.Exec)
	}
	if compiled.Exec.FamilyPrefixHits == 0 {
		t.Errorf("FamilyPrefixHits = 0 across a mutant family, want sharing")
	}
}

// TestEvaluateConcurrentSharedSpace runs several evaluations of one
// uncompiled mutant space at once. Each compiles the space through its
// own family memo, racing the others for every plan's first compile,
// and reads trees another evaluation may have built; every report must
// equal a sequential evaluation of a fresh space. Run under -race.
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
	want, err := EvaluateOpts(query, fresh, datasets, EvalOptions{Parallelism: 1})
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
			reps[g], errs[g] = EvaluateOpts(query, shared, datasets, EvalOptions{Parallelism: 2})
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
}
