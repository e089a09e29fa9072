package cli

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/qtree"
	"repro/internal/sqlparser"
)

// Replay re-runs a failure repro bundle written by the daemon's
// -failure-dir capture (see internal/durable): it loads the bundle's
// schema.sql, query.sql and canonical options, runs the generator
// deterministically (byte-identical suites on every run), and reports whether the captured failure still reproduces. After the
// summary it prints every replayed dataset (the original first) as its
// INSERT script under its purpose — schema.Dataset.SQLInserts, the
// bytes the daemon's inserts field carries.
//
// Exit codes follow the shared taxonomy: ExitUsage for an unreadable
// or damaged bundle, ExitPartial when the replay abandons goals again
// (the "reproduced" outcome for goal bundles), ExitFatal for internal
// failures, ExitOK when the suite now completes — the failure did not
// reproduce, typically because the build under test fixed it or the
// original abandonment was budget noise.
func Replay(ctx context.Context, bundlePath string, stdout, stderr io.Writer) int {
	b, err := durable.ReadBundle(bundlePath)
	if err != nil {
		fmt.Fprintln(stderr, "xdata: replay:", err)
		return ExitUsage
	}
	sch, err := sqlparser.ParseSchema(b.SchemaSQL)
	if err != nil {
		fmt.Fprintln(stderr, "xdata: replay: bundle schema:", err)
		return ExitUsage
	}
	q, err := qtree.BuildSQL(sch, b.QuerySQL)
	if err != nil {
		fmt.Fprintln(stderr, "xdata: replay: bundle query:", err)
		return ExitUsage
	}

	fmt.Fprintf(stdout, "-- replaying %s bundle: %s\n", b.Kind, bundlePath)
	if b.Purpose != "" {
		fmt.Fprintf(stdout, "-- captured failure: %s (%s)\n", b.Purpose, b.Reason)
	}
	if b.Error != "" {
		fmt.Fprintf(stdout, "-- captured error: %s\n", b.Error)
	}
	if b.FaultInjected {
		fmt.Fprintln(stdout, "-- note: captured under fault injection (test evidence, not organic)")
	}
	fmt.Fprintf(stdout, "-- content key: %s\n", b.ContentKey)

	suite, err := core.NewGenerator(q, b.Options).GenerateContext(ctx)
	switch {
	case err == nil, errors.Is(err, core.ErrPartialSuite):
	default:
		fmt.Fprintln(stderr, "xdata: replay:", err)
		return InputExitCode(err)
	}

	fmt.Fprintf(stdout, "-- %d datasets (plus the original-query dataset), %d skipped, %d incomplete\n",
		len(suite.Datasets), len(suite.Skipped), len(suite.Incomplete))
	reproduced := false
	for _, f := range suite.Incomplete {
		fmt.Fprintf(stdout, "incomplete: %s\n", f.String())
		if b.Kind == "goal" && f.Purpose == b.Purpose {
			reproduced = true
		}
	}
	code := ExitOK
	switch {
	case err == nil:
		fmt.Fprintln(stdout, "-- suite complete: the captured failure did not reproduce")
	case reproduced:
		fmt.Fprintf(stdout, "-- failure reproduced: goal %q abandoned again\n", b.Purpose)
		code = ExitPartial
	default:
		fmt.Fprintln(stdout, "-- partial suite, but not the captured goal: related failure or budget noise")
		code = ExitPartial
	}
	for _, ds := range suite.All() {
		fmt.Fprint(stdout, ds.SQLInserts(sch))
	}
	return code
}
