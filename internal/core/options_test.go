package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/limits"
	"repro/internal/schema"
)

// TestOptionsValidatePerField: every nonsensical field value is
// rejected with a typed ErrBadOptions (one sub-test per field), and the
// documented zero/default values all pass.
func TestOptionsValidatePerField(t *testing.T) {
	base := DefaultOptions()
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"GoalTimeout", func(o *Options) { o.GoalTimeout = -time.Millisecond }},
		{"GoalNodeLimit", func(o *Options) { o.GoalNodeLimit = -1 }},
		{"MaxDomainSize", func(o *Options) { o.MaxDomainSize = -1 }},
		{"ForceInputTuples", func(o *Options) { o.ForceInputTuples = true }}, // without InputDB
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := base
			tc.mutate(&o)
			err := o.Validate()
			if !errors.Is(err, ErrBadOptions) {
				t.Fatalf("Validate: got %v, want ErrBadOptions", err)
			}
			if !strings.Contains(err.Error(), tc.name) {
				t.Errorf("error %q should name the offending field %s", err, tc.name)
			}
		})
	}

	if err := base.Validate(); err != nil {
		t.Fatalf("DefaultOptions must validate: %v", err)
	}
	ok := base
	ok.GoalTimeout = time.Second
	ok.GoalNodeLimit = 1000
	ok.MaxDomainSize = 100
	ok.InputDB = schema.NewDataset("db")
	ok.ForceInputTuples = true
	if err := ok.Validate(); err != nil {
		t.Fatalf("fully-set valid options must validate: %v", err)
	}
}

// TestGenerateRejectsBadOptions: Generate and GenerateContext refuse to
// start (nil suite, typed error) instead of silently coercing.
func TestGenerateRejectsBadOptions(t *testing.T) {
	q := buildQuery(t, ddlNoFK, "SELECT * FROM instructor i, teaches t WHERE i.id = t.id")
	opts := DefaultOptions()
	opts.GoalNodeLimit = -8
	suite, err := NewGenerator(q, opts).Generate()
	if !errors.Is(err, ErrBadOptions) {
		t.Fatalf("Generate with bad options: got %v, want ErrBadOptions", err)
	}
	if suite != nil {
		t.Fatal("bad options must not produce a suite")
	}
	suite, err = NewGenerator(q, opts).GenerateContext(context.Background())
	if !errors.Is(err, ErrBadOptions) || suite != nil {
		t.Fatalf("GenerateContext with bad options: got suite=%v err=%v", suite != nil, err)
	}
}

// TestGenerateDomainCeiling: an over-wide candidate pool is rejected
// with limits.ErrResourceLimit before any solving; a generous ceiling
// leaves generation untouched.
func TestGenerateDomainCeiling(t *testing.T) {
	q := buildQuery(t, ddlNoFK, "SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > 50")
	tight := DefaultOptions()
	tight.MaxDomainSize = 4 // the fresh values 0..7 alone exceed this
	suite, err := NewGenerator(q, tight).Generate()
	if !errors.Is(err, limits.ErrResourceLimit) || !strings.Contains(err.Error(), "integer pool") {
		t.Fatalf("tight domain ceiling: got %v, want ErrResourceLimit on the integer pool", err)
	}
	if suite != nil {
		t.Fatal("over-ceiling generation must not produce a suite")
	}

	wide := DefaultOptions()
	wide.MaxDomainSize = limits.DefaultMaxDomainSize
	capped, err := NewGenerator(q, wide).Generate()
	if err != nil {
		t.Fatalf("generous ceiling: %v", err)
	}
	uncapped := generate(t, q, DefaultOptions())
	if len(capped.Datasets) != len(uncapped.Datasets) {
		t.Fatalf("ceiling changed output: %d vs %d datasets", len(capped.Datasets), len(uncapped.Datasets))
	}
}
