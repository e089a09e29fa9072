package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/qtree"
	"repro/internal/sqlparser"
)

const bundleDDL = `CREATE TABLE r (x INT PRIMARY KEY, y INT);
CREATE TABLE s (x INT PRIMARY KEY, z INT);`

func bundleFixture(t *testing.T) (*qtree.Query, core.Options) {
	t.Helper()
	sch, err := sqlparser.ParseSchema(bundleDDL)
	if err != nil {
		t.Fatal(err)
	}
	q, err := qtree.BuildSQL(sch, "SELECT * FROM r, s WHERE r.x = s.x AND r.y > 5")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.GoalNodeLimit = 1234
	opts.GoalTimeout = 250 * time.Millisecond
	return q, opts
}

func TestBundleWriteReadRoundTrip(t *testing.T) {
	q, opts := bundleFixture(t)
	dir := t.TempDir()
	ev := GoalEvent(core.Failure{
		Purpose:  "kill comparison mutants of r.y > 5",
		Reason:   core.ReasonPanic,
		Attempts: 2,
		Nodes:    999,
		Elapsed:  42 * time.Millisecond,
		Err:      &core.GoalError{Purpose: "kill comparison mutants of r.y > 5", Value: "boom", Stack: []byte("goroutine 1 [running]:\nfake.stack()")},
	})
	path, err := WriteBundle(dir, q.Schema, q, opts, ev)
	if err != nil {
		t.Fatalf("WriteBundle: %v", err)
	}
	for _, name := range []string{"schema.sql", "query.sql", "bundle.json"} {
		if _, err := os.Stat(filepath.Join(path, name)); err != nil {
			t.Fatalf("bundle missing %s: %v", name, err)
		}
	}

	b, err := ReadBundle(path)
	if err != nil {
		t.Fatalf("ReadBundle: %v", err)
	}
	if b.Kind != "goal" || b.Reason != core.ReasonPanic || b.Attempts != 2 || b.Nodes != 999 {
		t.Fatalf("bundle metadata = %+v", b)
	}
	if !strings.Contains(b.Stack, "fake.stack") {
		t.Fatalf("panic stack not captured: %q", b.Stack)
	}
	if b.ContentKey == "" || len(b.ContentKey) != 64 {
		t.Fatalf("content key = %q, want 64 hex chars", b.ContentKey)
	}
	if b.Options.GoalNodeLimit != 1234 || b.Options.GoalTimeout != 250*time.Millisecond {
		t.Fatalf("replay options lost budgets: %+v", b.Options)
	}

	// Self-containment: the stored canonical SQL reparses and the
	// replayed options regenerate deterministically.
	sch2, err := sqlparser.ParseSchema(b.SchemaSQL)
	if err != nil {
		t.Fatalf("stored schema.sql does not reparse: %v", err)
	}
	q2, err := qtree.BuildSQL(sch2, b.QuerySQL)
	if err != nil {
		t.Fatalf("stored query.sql does not reparse: %v", err)
	}
	if q2.SQLString() != q.SQLString() {
		t.Fatalf("round-tripped query differs:\n  %s\n  %s", q2.SQLString(), q.SQLString())
	}
}

// excludedOptions classifies the core.Options fields its JSON encoding
// leaves out ("-"), one reason each. A field newly tagged "-" fails
// TestBundleOptionsRoundTrip until it is listed here.
var excludedOptions = map[string]string{
	"InputDB":     "data, not a setting: InputDB-seeded generation is never cached, routed or bundled",
	"FailureHook": "a callback that only observes abandoned goals",
}

// TestBundleOptionsRoundTrip keeps core.Options' JSON encoding honest
// as the one declaration of what a suite depends on. It walks the
// struct by reflection: every encoded field, set to a non-zero value,
// must change the content key, come back from WriteBundle/ReadBundle
// equal to what was written, and let the bundle's recorded key be
// recomputed from the bundle alone; every excluded field must be
// classified in excludedOptions and leave the key unchanged.
// Durations are sub-millisecond so no whole-unit truncation survives.
func TestBundleOptionsRoundTrip(t *testing.T) {
	q, _ := bundleFixture(t)
	var zero core.Options
	zeroKey := fleet.ContentKey(q.Schema, q, zero)
	rt := reflect.TypeOf(zero)
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		opts := zero
		setNonZero(t, f, reflect.ValueOf(&opts).Elem().Field(i))
		key := fleet.ContentKey(q.Schema, q, opts)

		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch name {
		case "-":
			if _, ok := excludedOptions[f.Name]; !ok {
				t.Errorf("core.Options.%s is excluded from the encoding but not classified in excludedOptions", f.Name)
			}
			if key != zeroKey {
				t.Errorf("excluded field %s changes the content key", f.Name)
			}
			continue
		case "":
			t.Errorf("core.Options.%s has no JSON name: encode it or exclude it with a reason", f.Name)
			continue
		}
		if key == zeroKey {
			t.Errorf("setting %s does not change the content key", f.Name)
		}

		path, err := WriteBundle(t.TempDir(), q.Schema, q, opts, BundleEvent{Kind: "goal", Purpose: f.Name, Reason: core.ReasonBudget})
		if err != nil {
			t.Fatalf("%s: WriteBundle: %v", f.Name, err)
		}
		b, err := ReadBundle(path)
		if err != nil {
			t.Fatalf("%s: ReadBundle: %v", f.Name, err)
		}
		if !reflect.DeepEqual(b.Options, opts) {
			t.Errorf("%s: bundle options %+v, wrote %+v", f.Name, b.Options, opts)
		}
		sch2, err := sqlparser.ParseSchema(b.SchemaSQL)
		if err != nil {
			t.Fatal(err)
		}
		q2, err := qtree.BuildSQL(sch2, b.QuerySQL)
		if err != nil {
			t.Fatal(err)
		}
		if got := fleet.ContentKey(sch2, q2, b.Options).String(); got != b.ContentKey || got != key.String() {
			t.Errorf("%s: key recomputed from the bundle = %s, recorded %s, written %s", f.Name, got, b.ContentKey, key)
		}
	}
	for name := range excludedOptions {
		if _, ok := rt.FieldByName(name); !ok {
			t.Errorf("excludedOptions names %s, which core.Options no longer has", name)
		}
	}
}

// setNonZero stores a non-zero value of f's type in v.
func setNonZero(t *testing.T, f reflect.StructField, v reflect.Value) {
	t.Helper()
	switch {
	case f.Type == reflect.TypeOf(time.Duration(0)):
		v.SetInt(int64(1500 * time.Microsecond))
	case f.Type.Kind() == reflect.Bool:
		v.SetBool(true)
	case f.Type.Kind() == reflect.Int, f.Type.Kind() == reflect.Int64:
		v.SetInt(7)
	case f.Type.Kind() == reflect.Pointer:
		v.Set(reflect.New(f.Type.Elem()))
	case f.Type.Kind() == reflect.Func:
		v.Set(reflect.MakeFunc(f.Type, func([]reflect.Value) []reflect.Value { return nil }))
	default:
		t.Fatalf("core.Options.%s: no non-zero value for kind %s; extend setNonZero", f.Name, f.Type.Kind())
	}
}

func TestBundleDeduplicates(t *testing.T) {
	q, opts := bundleFixture(t)
	dir := t.TempDir()
	ev := GoalEvent(core.Failure{Purpose: "p", Reason: core.ReasonBudget, Err: errors.New("budget")})
	p1, err := WriteBundle(dir, q.Schema, q, opts, ev)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := WriteBundle(dir, q.Schema, q, opts, ev)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("same failure produced two bundles: %s vs %s", p1, p2)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("%d entries in failure dir, want 1", len(ents))
	}

	// A different failure gets its own bundle.
	ev2 := ev
	ev2.Purpose = "q"
	p3, err := WriteBundle(dir, q.Schema, q, opts, ev2)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("distinct failures collided")
	}
}

func TestReadBundleRejectsDamage(t *testing.T) {
	q, opts := bundleFixture(t)
	dir := t.TempDir()
	path, err := WriteBundle(dir, q.Schema, q, opts, BundleEvent{Kind: "goal", Purpose: "p", Reason: core.ReasonBudget})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, "bundle.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundle(path); err == nil {
		t.Fatal("damaged bundle.json accepted")
	}
	if _, err := ReadBundle(filepath.Join(dir, "no-such-bundle")); err == nil {
		t.Fatal("missing bundle accepted")
	}
	// Bundles of older shapes are refused, not misread: version 1,
	// version 3, whose options still carried the per-call solver
	// budgets, and version 4, whose options still carried fresh_values.
	for _, old := range []struct {
		version int
		body    string
	}{
		{1, `{"version":1,"kind":"goal","options":{"goal_timeout_ms":1}}`},
		{3, `{"version":3,"kind":"goal","options":{"unfold":true,"solver_node_limit":0,"solver_timeout":0}}`},
		{4, `{"version":4,"kind":"goal","options":{"unfold":true,"fresh_values":8}}`},
	} {
		if err := os.WriteFile(filepath.Join(path, "bundle.json"), []byte(old.body), 0o644); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("version %d not supported", old.version)
		if _, err := ReadBundle(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d bundle: err = %v, want the version error", old.version, err)
		}
	}
}
