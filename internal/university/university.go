// Package university provides the benchmark fixtures of the paper's
// evaluation (§VI-C): a slightly modified version of the university
// schema of Silberschatz, Korth and Sudarshan [27] with a parameterizable
// number of foreign-key constraints, the inner-join query family of
// Table I (1–6 joins over 2–7 relations), the selection/aggregation query
// family of Table II, and a deterministic sample database standing in for
// the textbook's example data (used as the input database of §VI-A and by
// the short-paper baseline [14]).
package university

import (
	"fmt"

	"repro/internal/schema"
	"repro/internal/sqltypes"
)

// fkSpec is one optional foreign key of the schema; Table I enables
// prefixes of this list.
type fkSpec struct {
	table string
	fk    schema.ForeignKey
}

// fkSpecs lists the six foreign keys in the order Table I enables them.
var fkSpecs = []fkSpec{
	{"teaches", schema.ForeignKey{Columns: []string{"id"}, RefTable: "instructor", RefColumns: []string{"id"}}},
	{"teaches", schema.ForeignKey{Columns: []string{"course_id"}, RefTable: "course", RefColumns: []string{"course_id"}}},
	{"course", schema.ForeignKey{Columns: []string{"dept_name"}, RefTable: "department", RefColumns: []string{"dept_name"}}},
	{"student", schema.ForeignKey{Columns: []string{"dept_name"}, RefTable: "department", RefColumns: []string{"dept_name"}}},
	{"takes", schema.ForeignKey{Columns: []string{"id"}, RefTable: "student", RefColumns: []string{"id"}}},
	{"teaches", schema.ForeignKey{Columns: []string{"sec_id"}, RefTable: "section", RefColumns: []string{"sec_id"}}},
}

// NumForeignKeys is the number of optional foreign keys available.
var NumForeignKeys = len(fkSpecs)

// Schema builds the university schema with the first fkCount foreign
// keys enabled (fkCount < 0 enables all).
func Schema(fkCount int) *schema.Schema {
	if fkCount < 0 || fkCount > len(fkSpecs) {
		fkCount = len(fkSpecs)
	}
	fksFor := func(table string) []schema.ForeignKey {
		var out []schema.ForeignKey
		for _, s := range fkSpecs[:fkCount] {
			if s.table == table {
				out = append(out, s.fk)
			}
		}
		return out
	}
	s := schema.New()
	str := sqltypes.KindString
	num := sqltypes.KindInt
	add := func(name string, attrs []schema.Attribute, pk []string) {
		rel, err := schema.NewRelation(name, attrs, pk, fksFor(name))
		if err != nil {
			panic(err)
		}
		s.MustAddRelation(rel)
	}
	add("department", []schema.Attribute{
		{Name: "dept_name", Type: str, NotNull: true},
		{Name: "building", Type: str},
		{Name: "budget", Type: num},
	}, []string{"dept_name"})
	add("instructor", []schema.Attribute{
		{Name: "id", Type: num, NotNull: true},
		{Name: "name", Type: str, NotNull: true},
		{Name: "dept_name", Type: str, NotNull: true},
		{Name: "salary", Type: num, NotNull: true},
	}, []string{"id"})
	add("course", []schema.Attribute{
		{Name: "course_id", Type: num, NotNull: true},
		{Name: "title", Type: str, NotNull: true},
		{Name: "dept_name", Type: str, NotNull: true},
		{Name: "credits", Type: num, NotNull: true},
	}, []string{"course_id"})
	add("section", []schema.Attribute{
		{Name: "sec_id", Type: num, NotNull: true},
		{Name: "semester", Type: str, NotNull: true},
		{Name: "year", Type: num, NotNull: true},
	}, []string{"sec_id"})
	add("teaches", []schema.Attribute{
		{Name: "id", Type: num, NotNull: true},
		{Name: "course_id", Type: num, NotNull: true},
		{Name: "sec_id", Type: num, NotNull: true},
	}, []string{"id", "course_id", "sec_id"})
	add("student", []schema.Attribute{
		{Name: "id", Type: num, NotNull: true},
		{Name: "name", Type: str, NotNull: true},
		{Name: "dept_name", Type: str, NotNull: true},
		{Name: "tot_cred", Type: num, NotNull: true},
	}, []string{"id"})
	add("takes", []schema.Attribute{
		{Name: "id", Type: num, NotNull: true},
		{Name: "course_id", Type: num, NotNull: true},
		{Name: "grade", Type: num},
	}, []string{"id", "course_id"})
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

// BenchQuery is one benchmark workload: a query plus the foreign-key
// counts it is evaluated under (one Table row per count).
type BenchQuery struct {
	Name      string
	SQL       string
	Joins     int
	Relations int
	Sels      int // selection conjuncts
	Aggs      int // aggregate calls
	FKCounts  []int
}

// TableIQueries returns the inner-join query family of Table I: queries
// of 1–6 joins (2–7 relations) over the university schema, each evaluated
// with the foreign-key counts of the corresponding table rows.
func TableIQueries() []BenchQuery {
	return []BenchQuery{
		{
			Name: "Q1", Joins: 1, Relations: 2, FKCounts: []int{0, 1},
			SQL: `SELECT * FROM instructor i, teaches t WHERE i.id = t.id`,
		},
		{
			Name: "Q2", Joins: 2, Relations: 3, FKCounts: []int{0, 1, 2},
			SQL: `SELECT * FROM instructor i, teaches t, course c
				WHERE i.id = t.id AND t.course_id = c.course_id`,
		},
		{
			Name: "Q3", Joins: 3, Relations: 4, FKCounts: []int{0, 1, 3},
			SQL: `SELECT * FROM instructor i, teaches t, course c, department d
				WHERE i.id = t.id AND t.course_id = c.course_id AND c.dept_name = d.dept_name`,
		},
		{
			Name: "Q4", Joins: 4, Relations: 5, FKCounts: []int{0, 4},
			SQL: `SELECT * FROM instructor i, teaches t, course c, department d, student s
				WHERE i.id = t.id AND t.course_id = c.course_id AND c.dept_name = d.dept_name
				AND s.dept_name = d.dept_name`,
		},
		{
			Name: "Q5", Joins: 5, Relations: 6, FKCounts: []int{0, 4},
			SQL: `SELECT * FROM instructor i, teaches t, course c, department d, student s, takes tk
				WHERE i.id = t.id AND t.course_id = c.course_id AND c.dept_name = d.dept_name
				AND s.dept_name = d.dept_name AND tk.id = s.id`,
		},
		{
			Name: "Q6", Joins: 6, Relations: 7, FKCounts: []int{0, 6},
			SQL: `SELECT * FROM instructor i, teaches t, course c, department d, student s, takes tk, section sec
				WHERE i.id = t.id AND t.course_id = c.course_id AND c.dept_name = d.dept_name
				AND s.dept_name = d.dept_name AND tk.id = s.id AND t.sec_id = sec.sec_id`,
		},
	}
}

// TableIIQueries returns the selection/aggregation query family of
// Table II. Queries involving joins carry exactly one foreign key, as in
// the paper.
func TableIIQueries() []BenchQuery {
	return []BenchQuery{
		{
			Name: "Q7", Joins: 0, Relations: 1, Sels: 1, FKCounts: []int{0},
			SQL: `SELECT * FROM instructor WHERE salary > 70000`,
		},
		{
			Name: "Q8", Joins: 0, Relations: 1, Aggs: 1, FKCounts: []int{0},
			SQL: `SELECT dept_name, SUM(salary) FROM instructor GROUP BY dept_name`,
		},
		{
			Name: "Q9", Joins: 1, Relations: 2, Aggs: 1, FKCounts: []int{1},
			SQL: `SELECT i.dept_name, COUNT(t.course_id) FROM instructor i, teaches t
				WHERE i.id = t.id GROUP BY i.dept_name`,
		},
		{
			Name: "Q10", Joins: 2, Relations: 3, Sels: 1, FKCounts: []int{1},
			SQL: `SELECT * FROM instructor i, teaches t, course c
				WHERE i.id = t.id AND t.course_id = c.course_id AND i.salary > 70000`,
		},
		{
			Name: "Q11", Joins: 2, Relations: 3, Sels: 2, FKCounts: []int{1},
			SQL: `SELECT * FROM instructor i, teaches t, course c
				WHERE i.id = t.id AND t.course_id = c.course_id AND i.salary > 70000 AND c.credits >= 3`,
		},
		{
			Name: "Q12", Joins: 2, Relations: 3, Sels: 1, Aggs: 1, FKCounts: []int{1},
			SQL: `SELECT i.dept_name, SUM(i.salary) FROM instructor i, teaches t, course c
				WHERE i.id = t.id AND t.course_id = c.course_id AND c.credits > 2
				GROUP BY i.dept_name`,
		},
	}
}

var deptNames = []string{"CS", "Physics", "Biology", "History", "Music", "Finance", "Elec_Eng", "Statistics", "Athletics"}
var instNames = []string{"Srinivasan", "Wu", "Mozart", "Einstein", "ElSaid", "Gold", "Katz", "Califieri", "Crick"}
var courseTitles = []string{"Intro_to_DB", "Game_Design", "Robotics", "Image_Proc", "Physical_Principles", "Music_Theory", "Genetics", "World_History", "Biology_Intro"}

// SampleDB builds a deterministic sample database in the spirit of the
// textbook's example data [27], with n tuples per relation, satisfying
// every constraint of the schema (so it is usable under any fkCount).
func SampleDB(sch *schema.Schema, n int) *schema.Dataset {
	if n < 1 {
		n = 1
	}
	if n > len(deptNames) {
		n = len(deptNames)
	}
	ds := schema.NewDataset(fmt.Sprintf("university sample (%d tuples/relation)", n))
	str := sqltypes.NewString
	num := sqltypes.NewInt
	for i := 0; i < n; i++ {
		dept := deptNames[i]
		ds.Insert("department", sqltypes.Row{str(dept), str("bldg_" + dept), num(int64(50000 + 10000*i))})
		ds.Insert("instructor", sqltypes.Row{num(int64(10 + i)), str(instNames[i]), str(deptNames[i%n]), num(int64(60000 + 5000*i))})
		ds.Insert("course", sqltypes.Row{num(int64(100 + i)), str(courseTitles[i]), str(deptNames[i%n]), num(int64(2 + i%3))})
		ds.Insert("section", sqltypes.Row{num(int64(1 + i)), str([]string{"Fall", "Spring"}[i%2]), num(int64(2009 + i%2))})
		ds.Insert("teaches", sqltypes.Row{num(int64(10 + i)), num(int64(100 + i)), num(int64(1 + i))})
		ds.Insert("student", sqltypes.Row{num(int64(1000 + i)), str("stu_" + instNames[i]), str(deptNames[i%n]), num(int64(30 + i))})
		ds.Insert("takes", sqltypes.Row{num(int64(1000 + i)), num(int64(100 + i)), num(int64(70 + i%30))})
	}
	if err := sch.CheckDataset(ds); err != nil {
		panic(fmt.Sprintf("university: sample database invalid: %v", err))
	}
	return ds
}

// Cell is one generation request held as the text a user sends: the
// schema DDL, the query SQL and, for the §VI-C.3 cells, an input
// database as INSERT statements that every generated tuple must be
// drawn from (§VI-A, forced input tuples).
type Cell struct {
	Name    string
	DDL     string
	SQL     string
	Inserts string
}

// inputDBSizes are the §VI-C.3 input-database sizes (tuples per
// relation), run on Q4 without foreign keys.
var inputDBSizes = []int{5, 9}

// GenerationCells returns the 22 generation requests the paper times
// (§VI-C): every Table I/II query at each of its foreign-key counts, in
// table order, then Q4 without foreign keys over each inputDBSizes
// sample database.
func GenerationCells() []Cell {
	var out []Cell
	for _, set := range [][]BenchQuery{TableIQueries(), TableIIQueries()} {
		for _, bq := range set {
			for _, fk := range bq.FKCounts {
				out = append(out, Cell{Name: fmt.Sprintf("%s/fk%d", bq.Name, fk), DDL: Schema(fk).String(), SQL: bq.SQL})
			}
		}
	}
	q4 := TableIQueries()[3]
	for _, n := range inputDBSizes {
		sch := Schema(0)
		out = append(out, Cell{
			Name:    fmt.Sprintf("Q4/fk0/input%d", n),
			DDL:     sch.String(),
			SQL:     q4.SQL,
			Inserts: SampleDB(sch, n).SQLInserts(sch),
		})
	}
	return out
}
