// Package xdata is a from-scratch Go implementation of X-Data
// ("Generating Test Data for Killing SQL Mutants: A Constraint-based
// Approach", Shah et al., ICDE 2010): given a database schema with
// primary- and foreign-key constraints and a single-block SQL query, it
// generates a small, complete test suite of datasets that kills every
// non-equivalent mutant in the paper's mutation space — join-type
// mutations over all equivalent join orders, comparison-operator
// mutations, and unconstrained-aggregation mutations.
//
// Basic use:
//
//	sch, _ := xdata.ParseSchema(ddl)
//	q, _ := xdata.ParseQuery(sch, "SELECT * FROM instructor i, teaches t WHERE i.id = t.id")
//	suite, _ := xdata.Generate(q, xdata.DefaultOptions())
//	for _, ds := range suite.All() {
//	    fmt.Println(ds.Purpose)
//	    fmt.Println(ds.SQLInserts(sch))
//	}
//
// To see which mutants the suite kills (and verify the completeness
// guarantee on surviving mutants):
//
//	report, _ := xdata.Analyze(q, suite, xdata.DefaultMutationOptions())
//	fmt.Println(report)
//
// The heavy lifting lives in internal packages: internal/sqlparser (the
// SQL and DDL parser), internal/qtree (normalization and equivalence
// classes), internal/solver (the finite-domain constraint solver standing
// in for CVC3), internal/core (the generation algorithms), internal/engine
// (the relational executor) and internal/mutation (mutant spaces and kill
// checking). This package re-exports the stable surface.
package xdata

import (
	"context"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/limits"
	"repro/internal/mutation"
	"repro/internal/qtree"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// Re-exported data model types.
type (
	// Schema is a database catalog: relations with typed attributes,
	// primary keys and foreign keys.
	Schema = schema.Schema
	// Relation is one table definition.
	Relation = schema.Relation
	// Attribute is a typed column.
	Attribute = schema.Attribute
	// ForeignKey is a referential constraint.
	ForeignKey = schema.ForeignKey
	// Dataset is a test case: a legal database instance with a purpose
	// label.
	Dataset = schema.Dataset
	// Row is a tuple of SQL values.
	Row = sqltypes.Row
	// Value is a NULL-aware SQL value.
	Value = sqltypes.Value
	// Query is a parsed, normalized query.
	Query = qtree.Query
	// Suite is a generated test suite with statistics and skip records.
	Suite = core.Suite
	// Options configure generation.
	Options = core.Options
	// Mutant is one executable query mutation.
	Mutant = mutation.Mutant
	// MutationOptions configure the mutant space.
	MutationOptions = mutation.Options
	// Report is the kill matrix of a mutant space against a suite.
	Report = mutation.Report
	// Result is a query result (a bag of rows).
	Result = engine.Result
	// Failure records a kill goal abandoned for budget, panic or
	// cancellation reasons (Suite.Incomplete).
	Failure = core.Failure
	// GoalError wraps a panic recovered inside one kill goal.
	GoalError = core.GoalError
)

// ErrPartialSuite is returned (wrapped) by GenerateContext alongside a
// usable partial suite when some kill goals were abandoned for budget,
// panic or cancellation reasons; the abandoned goals are listed in
// Suite.Incomplete. Test with errors.Is.
var ErrPartialSuite = core.ErrPartialSuite

// ErrBadOptions is the sentinel wrapped by every Options validation
// failure (negative budgets, worker counts or ceilings, inconsistent
// combinations): Generate and GenerateContext refuse to start rather
// than silently coercing a caller bug. Test with errors.Is.
var ErrBadOptions = core.ErrBadOptions

// ErrUnsupported is the sentinel matched by every rejection of a
// construct that parses but sits outside the supported query class
// (OR/NOT in conjunctive position, nested subqueries, aggregating
// subqueries, HAVING without aggregation, ...). The CLIs map it to
// exit code 2 and the daemon to HTTP 422 with kind "unsupported",
// distinguishing a well-formed-but-unsupported query from syntax
// errors and internal failures. Test with errors.Is.
var ErrUnsupported = sqlparser.ErrUnsupported

// ErrResourceLimit is the sentinel wrapped by every resource-governance
// rejection: oversized DDL/query text, excessive expression or join
// nesting, schema cardinality over the ceiling, or a candidate-value
// domain wider than Options.MaxDomainSize. ParseSchema, ParseQuery and
// ParseInserts apply the production ceilings (generous enough for
// every legitimate workload in the paper's experiments). Test with
// errors.Is.
var ErrResourceLimit = limits.ErrResourceLimit

// Value constructors.
var (
	// NewInt builds an integer value.
	NewInt = sqltypes.NewInt
	// NewFloat builds a floating-point value.
	NewFloat = sqltypes.NewFloat
	// NewString builds a string value.
	NewString = sqltypes.NewString
	// Null builds the NULL value.
	Null = sqltypes.Null
	// NewDataset builds an empty dataset with a purpose label.
	NewDataset = schema.NewDataset
)

// ParseSchema parses CREATE TABLE statements into a Schema.
func ParseSchema(ddl string) (*Schema, error) { return sqlparser.ParseSchema(ddl) }

// ParseQuery parses and normalizes a single-block SQL query against a
// schema, enforcing the supported query class (paper assumptions A3–A6).
func ParseQuery(sch *Schema, sql string) (*Query, error) { return qtree.BuildSQL(sch, sql) }

// DefaultOptions returns the paper's default generation configuration
// (quantifier unfolding enabled).
func DefaultOptions() Options { return core.DefaultOptions() }

// Generate produces the X-Data test suite for a query: one dataset
// satisfying the original query plus datasets killing each mutant group.
// The number of datasets is linear in the size of the query even though
// the join-order mutant space is exponential.
func Generate(q *Query, opts Options) (*Suite, error) {
	return core.NewGenerator(q, opts).Generate()
}

// GenerateContext is Generate with cooperative cancellation and graceful
// degradation: kill goals abandoned for budget, panic or cancellation
// reasons are recorded in Suite.Incomplete and the call returns the
// partial suite alongside an error wrapping ErrPartialSuite. Per-goal
// budgets are configured by Options.GoalTimeout and Options.GoalNodeLimit.
func GenerateContext(ctx context.Context, q *Query, opts Options) (*Suite, error) {
	return core.NewGenerator(q, opts).GenerateContext(ctx)
}

// DefaultMutationOptions matches the paper's experiments: all equivalent
// join orders, full-outer-join mutations excluded.
func DefaultMutationOptions() MutationOptions { return mutation.DefaultOptions() }

// Mutants enumerates the de-duplicated mutant space of a query.
func Mutants(q *Query, opts MutationOptions) ([]*Mutant, error) {
	return mutation.Space(q, opts)
}

// Analyze generates the kill matrix: which datasets of the suite kill
// which mutants of the space. Evaluation runs on the calling goroutine;
// use AnalyzeContext for cancellation.
func Analyze(q *Query, suite *Suite, opts MutationOptions) (*Report, error) {
	return AnalyzeContext(context.Background(), q, suite, opts)
}

// AnalyzeContext is Analyze with cooperative cancellation: a canceled
// context aborts the evaluation promptly with the context's error.
func AnalyzeContext(ctx context.Context, q *Query, suite *Suite, opts MutationOptions) (*Report, error) {
	ms, err := mutation.Space(q, opts)
	if err != nil {
		return nil, err
	}
	return mutation.EvaluateContext(ctx, q, ms, suite.All())
}

// Execute runs the original query against a dataset using the built-in
// relational engine.
func Execute(q *Query, ds *Dataset) (*Result, error) {
	return engine.NewPlan(q).Run(ds)
}

// CheckEquivalent tests whether a mutant is (probably) equivalent to the
// original query by running both on many random schema-valid databases.
// It returns a witness dataset when a difference is found.
func CheckEquivalent(q *Query, m *Mutant, trials int, seed int64) (bool, *Dataset, error) {
	chk := mutation.NewEquivalenceChecker(seed)
	if trials > 0 {
		chk.Trials = trials
	}
	return chk.Check(q, m)
}

// ParseInserts parses INSERT INTO statements into a dataset validated
// against the schema; useful for loading an input database (§VI-A).
func ParseInserts(sch *Schema, sql string) (*Dataset, error) {
	return sqlparser.ParseInserts(sch, sql)
}

// Minimize prunes redundant datasets from a generated suite: it returns
// the smallest greedy subset of suite.All() that kills exactly the same
// mutants (the dataset-minimization direction the paper lists as future
// work in §VII). The original-query dataset is always retained.
func Minimize(q *Query, suite *Suite, opts MutationOptions) ([]*Dataset, error) {
	rep, err := Analyze(q, suite, opts)
	if err != nil {
		return nil, err
	}
	return mutation.MinimizeSuite(rep), nil
}
