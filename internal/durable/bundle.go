package durable

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/qtree"
	"repro/internal/schema"
	"repro/internal/solver"
)

// A failure repro bundle is one directory holding everything needed to
// re-run a failed generation deterministically:
//
//	bundle-<hash12>/
//	  schema.sql    the canonical schema rendering (schema.String())
//	  query.sql     the normalized query (qtree.Query.SQLString())
//	  bundle.json   the Bundle metadata + the generation options
//
// Bundles are written on goal abandonment (panic, budget exhaustion,
// cancellation) and on handler panics, and replayed with
// `xdata -replay <dir>`. The directory name is a content hash of the
// (schema, query, purpose, reason) evidence, so the same failure
// repeating does not pile up duplicate bundles; distinct failures with
// a colliding prefix get a -N suffix. Writes go to a temp directory
// renamed into place, so a crash mid-write never leaves a half bundle
// under the advertised name.

// BundleVersion is bumped whenever the bundle.json shape changes.
// Version 2 stored the options as core.Options' own JSON encoding
// (durations in nanoseconds); version 3 is that encoding without the
// deleted no_joint_nullify field; version 4 is version 3 without the
// deleted per-call solver budgets (solver_node_limit, solver_timeout).
// Other versions are refused.
const BundleVersion = 4

// BundleEvent is the failure evidence a capture site supplies: either a
// goal abandonment (core.Failure) or a handler panic.
type BundleEvent struct {
	// Kind is "goal" (abandoned kill goal) or "handler" (recovered
	// request-handler panic).
	Kind string
	// Purpose/Reason/Attempts/Nodes/Elapsed mirror the Suite.Incomplete
	// entry for goal bundles.
	Purpose  string
	Reason   string
	Attempts int
	Nodes    int64
	Elapsed  time.Duration
	// Err is the final error rendering; Stack the panicking goroutine's
	// stack when there was one.
	Err   string
	Stack string
}

// GoalEvent converts one abandoned-goal record into a BundleEvent.
func GoalEvent(f core.Failure) BundleEvent {
	ev := BundleEvent{
		Kind:     "goal",
		Purpose:  f.Purpose,
		Reason:   f.Reason,
		Attempts: f.Attempts,
		Nodes:    f.Nodes,
		Elapsed:  f.Elapsed,
	}
	if f.Err != nil {
		ev.Err = f.Err.Error()
		var ge *core.GoalError
		if errors.As(f.Err, &ge) {
			ev.Stack = string(ge.Stack)
		}
	}
	return ev
}

// Bundle is the bundle.json payload (plus, after ReadBundle, the two
// SQL files).
type Bundle struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	Purpose string `json:"purpose,omitempty"`
	Reason  string `json:"reason,omitempty"`

	Attempts  int    `json:"attempts,omitempty"`
	Nodes     int64  `json:"nodes,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms,omitempty"`
	Error     string `json:"error,omitempty"`
	Stack     string `json:"stack,omitempty"`

	// ContentKey is the fleet cache key of the (schema, query, options)
	// triple — the canonical options fingerprint, and the handle for
	// correlating a bundle with cache entries and routing logs.
	ContentKey string `json:"content_key"`
	// FaultInjected marks bundles captured while a solver fault-
	// injection hook was installed (test evidence, not organic).
	FaultInjected bool `json:"fault_injected,omitempty"`

	// Options are the generation options in core.Options' JSON
	// encoding, the same encoding ContentKey hashes: every field a
	// suite depends on, and none that a self-contained bundle cannot
	// carry (Parallelism, InputDB, FailureHook).
	Options core.Options `json:"options"`

	// SchemaSQL/QuerySQL are loaded from the bundle's schema.sql and
	// query.sql by ReadBundle; WriteBundle stores them as files, not in
	// the JSON.
	SchemaSQL string `json:"-"`
	QuerySQL  string `json:"-"`
}

// WriteBundle writes one failure repro bundle under dir and returns the
// bundle directory path. Writing is atomic (temp dir + rename) and
// deduplicating: if the bundle directory for this exact evidence
// already exists it is left alone and its path returned.
func WriteBundle(dir string, sch *schema.Schema, q *qtree.Query, opts core.Options, ev BundleEvent) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("durable: create failure dir: %w", err)
	}
	schemaSQL := sch.String()
	querySQL := q.SQLString()
	b := Bundle{
		Version:       BundleVersion,
		Kind:          ev.Kind,
		Purpose:       ev.Purpose,
		Reason:        ev.Reason,
		Attempts:      ev.Attempts,
		Nodes:         ev.Nodes,
		ElapsedMS:     ev.Elapsed.Milliseconds(),
		Error:         ev.Err,
		Stack:         ev.Stack,
		ContentKey:    fleet.ContentKey(sch, q, opts).String(),
		FaultInjected: solver.FaultHookActive(),
		Options:       opts,
	}
	meta, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return "", fmt.Errorf("durable: marshal bundle: %w", err)
	}

	sum := sha256.Sum256([]byte(schemaSQL + "\x00" + querySQL + "\x00" + ev.Kind + "\x00" + ev.Purpose + "\x00" + ev.Reason))
	name := "bundle-" + hex.EncodeToString(sum[:6])
	final := filepath.Join(dir, name)
	if _, err := os.Stat(final); err == nil {
		return final, nil // same failure already captured
	}

	tmp, err := os.MkdirTemp(dir, ".tmp-"+name+"-")
	if err != nil {
		return "", fmt.Errorf("durable: temp bundle dir: %w", err)
	}
	defer os.RemoveAll(tmp) // no-op after a successful rename
	for _, f := range []struct {
		name string
		data string
	}{
		{"schema.sql", schemaSQL},
		{"query.sql", querySQL},
		{"bundle.json", string(meta) + "\n"},
	} {
		if err := os.WriteFile(filepath.Join(tmp, f.name), []byte(f.data), 0o644); err != nil {
			return "", fmt.Errorf("durable: write %s: %w", f.name, err)
		}
	}
	if err := os.Rename(tmp, final); err != nil {
		if _, statErr := os.Stat(final); statErr == nil {
			return final, nil // lost a benign race to an identical bundle
		}
		return "", fmt.Errorf("durable: publish bundle: %w", err)
	}
	return final, nil
}

// ReadBundle loads a bundle directory written by WriteBundle.
func ReadBundle(path string) (*Bundle, error) {
	meta, err := os.ReadFile(filepath.Join(path, "bundle.json"))
	if err != nil {
		return nil, fmt.Errorf("durable: read bundle: %w", err)
	}
	var b Bundle
	if err := json.Unmarshal(meta, &b); err != nil {
		return nil, fmt.Errorf("durable: parse bundle.json: %w", err)
	}
	if b.Version != BundleVersion {
		return nil, fmt.Errorf("durable: bundle version %d not supported (want %d)", b.Version, BundleVersion)
	}
	schemaSQL, err := os.ReadFile(filepath.Join(path, "schema.sql"))
	if err != nil {
		return nil, fmt.Errorf("durable: read bundle schema: %w", err)
	}
	querySQL, err := os.ReadFile(filepath.Join(path, "query.sql"))
	if err != nil {
		return nil, fmt.Errorf("durable: read bundle query: %w", err)
	}
	b.SchemaSQL = string(schemaSQL)
	b.QuerySQL = string(querySQL)
	return &b, nil
}
