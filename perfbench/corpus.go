package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/mutation"
	"repro/internal/qtree"
	"repro/internal/sqlparser"
	"repro/internal/university"
)

// cell is one request input, held as the text a user would send: the
// schema DDL, the query SQL, and optionally an input database as INSERT
// statements (§VI-A, with tuples forced to come from it).
type cell struct {
	name    string
	ddl     string
	sql     string
	inserts string
	// Pinned expectations from EXPERIMENTS.md; mutants == 0 means the
	// kill counts are not pinned (input-DB cells and student variants).
	datasets, killed, mutants int
	// table marks the 20 Table I/II cells whose summed solver work is
	// pinned by tablePassWork.
	table bool
	// variant marks a student variant: a mutant of a reference query
	// rendered back to SQL.
	variant bool
}

// pinnedCells lists the Table I/II cells with their measured dataset
// counts and killed/total mutants (EXPERIMENTS.md).
var pinnedCells = []struct {
	query                         string
	fk, datasets, killed, mutants int
}{
	{"Q1", 0, 2, 2, 2}, {"Q1", 1, 1, 1, 2},
	{"Q2", 0, 4, 6, 8}, {"Q2", 1, 3, 4, 8}, {"Q2", 2, 2, 2, 8},
	{"Q3", 0, 6, 18, 30}, {"Q3", 1, 5, 13, 30}, {"Q3", 3, 3, 6, 30},
	{"Q4", 0, 7, 80, 184}, {"Q4", 4, 4, 48, 184},
	{"Q5", 0, 9, 333, 790}, {"Q5", 4, 6, 217, 790},
	{"Q6", 0, 11, 1770, 4248}, {"Q6", 6, 6, 888, 4248},
	{"Q7", 0, 3, 5, 5}, {"Q8", 0, 1, 7, 7}, {"Q9", 1, 2, 8, 9},
	{"Q10", 1, 6, 11, 13}, {"Q11", 1, 9, 16, 18}, {"Q12", 1, 7, 16, 20},
}

// work is the deterministic solver work of one suite. A pass over the 20
// Table I/II cells sums to tablePassWork; any other total is a semantic
// change, not noise.
type work struct {
	nodes, components, cacheHits, baseNodes int64
}

var tablePassWork = work{nodes: 841, components: 1082, cacheHits: 59, baseNodes: 149}

// inputDBSizes are the §VI-C.3 input-database sizes (tuples per
// relation) run on Q4 without foreign keys; both cells produce 7
// datasets.
var inputDBSizes = []int{5, 9}

// referenceCells returns the 20 Table I/II cells as DDL/SQL text.
func referenceCells() ([]*cell, error) {
	queries := map[string]string{}
	for _, bq := range append(university.TableIQueries(), university.TableIIQueries()...) {
		queries[bq.Name] = bq.SQL
	}
	var out []*cell
	for _, p := range pinnedCells {
		sql, ok := queries[p.query]
		if !ok {
			return nil, fmt.Errorf("corpus: no query %s in the university fixtures", p.query)
		}
		out = append(out, &cell{
			name:     fmt.Sprintf("%s/fk%d", p.query, p.fk),
			ddl:      university.Schema(p.fk).String(),
			sql:      sql,
			datasets: p.datasets, killed: p.killed, mutants: p.mutants,
			table: true,
		})
	}
	return out, nil
}

// paperCells returns the paper_generate corpus: the 20 reference cells
// plus the two §VI-C.3 input-database cells.
func paperCells() ([]*cell, error) {
	cells, err := referenceCells()
	if err != nil {
		return nil, err
	}
	q4 := university.TableIQueries()[3]
	for _, n := range inputDBSizes {
		sch := university.Schema(0)
		cells = append(cells, &cell{
			name:     fmt.Sprintf("Q4/fk0/input%d", n),
			ddl:      sch.String(),
			sql:      q4.SQL,
			inserts:  university.SampleDB(sch, n).SQLInserts(sch),
			datasets: 7,
		})
	}
	return cells, nil
}

// corpusSeed fixes the sample of student variants. The workload seed
// varies request order, arrival times and key popularity, not the
// corpus: variant samples differ in cost, and with a seeded corpus that
// difference, not the program, dominated the spread between runs.
const corpusSeed = 1

// variantsPerReference is how many student variants each reference
// query contributes (all of its mutants when it has fewer).
const variantsPerReference = 8

// gradingPool returns the grading corpus: the 20 reference cells plus a
// seeded sample of student variants, each a mutant from mutation.Space
// rendered back to SQL with qtree.RenderSQLFull and re-parsed. It also
// returns how many sampled renderings failed to re-parse and were
// skipped.
func gradingPool(seed int64) (pool []*cell, unparsed int, err error) {
	refs, err := referenceCells()
	if err != nil {
		return nil, 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	pool = append(pool, refs...)
	for _, ref := range refs {
		sch, err := sqlparser.ParseSchema(ref.ddl)
		if err != nil {
			return nil, 0, fmt.Errorf("corpus: %s: %w", ref.name, err)
		}
		q, err := qtree.BuildSQL(sch, ref.sql)
		if err != nil {
			return nil, 0, fmt.Errorf("corpus: %s: %w", ref.name, err)
		}
		space, err := mutation.Space(q, mutation.DefaultOptions())
		if err != nil {
			return nil, 0, fmt.Errorf("corpus: %s: %w", ref.name, err)
		}
		seen := map[string]bool{normalizeSQL(ref.sql): true}
		taken := 0
		for _, mi := range rng.Perm(len(space)) {
			if taken == variantsPerReference {
				break
			}
			m := space[mi]
			sql := qtree.RenderSQLFull(q, m.Plan.Tree, m.Plan.Preds, m.Plan.Subs, m.Plan.Aggs, m.Plan.Having)
			if seen[normalizeSQL(sql)] {
				continue
			}
			if _, err := qtree.BuildSQL(sch, sql); err != nil {
				unparsed++
				continue
			}
			seen[normalizeSQL(sql)] = true
			taken++
			pool = append(pool, &cell{
				name:    fmt.Sprintf("%s/v%d", ref.name, taken),
				ddl:     ref.ddl,
				sql:     sql,
				variant: true,
			})
		}
	}
	return pool, unparsed, nil
}

func normalizeSQL(s string) string { return strings.Join(strings.Fields(s), " ") }
