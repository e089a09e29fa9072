// Package schema models the database catalog that X-Data operates
// against: relations, typed attributes, primary keys and foreign keys
// (assumption A1 of the paper: these are the only constraints), the
// transitive closure of foreign-key relationships (preprocessing step 3 of
// Algorithm 1), and validation of datasets against all constraints.
package schema

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sqltypes"
)

// Attribute is a typed column of a relation. Per paper assumption A2,
// foreign-key columns are not nullable; the generator never produces NULLs
// at all, but NotNull is tracked for validation.
type Attribute struct {
	Name    string
	Type    sqltypes.Kind
	NotNull bool
}

// ForeignKey declares that Columns of the owning relation reference
// RefColumns of RefTable. Composite keys are supported.
type ForeignKey struct {
	Columns    []string
	RefTable   string
	RefColumns []string
}

// String renders the constraint in DDL-ish form, quoting identifiers
// that would not lex back as plain identifiers.
func (fk ForeignKey) String() string {
	return fmt.Sprintf("FOREIGN KEY (%s) REFERENCES %s(%s)",
		strings.Join(quoteAll(fk.Columns), ", "), QuoteIdent(fk.RefTable),
		strings.Join(quoteAll(fk.RefColumns), ", "))
}

// Relation is a table definition.
type Relation struct {
	Name        string
	Attrs       []Attribute
	PrimaryKey  []string // empty if none
	ForeignKeys []ForeignKey

	attrPos map[string]int
	pkPos   []int // positions of the PrimaryKey columns
}

// NewRelation builds a relation and indexes its attributes. Attribute
// names are case-insensitive and stored lower-cased.
func NewRelation(name string, attrs []Attribute, pk []string, fks []ForeignKey) (*Relation, error) {
	r := &Relation{
		Name:        strings.ToLower(name),
		Attrs:       make([]Attribute, len(attrs)),
		PrimaryKey:  lowerAll(pk),
		ForeignKeys: make([]ForeignKey, len(fks)),
		attrPos:     make(map[string]int, len(attrs)),
	}
	for i, a := range attrs {
		a.Name = strings.ToLower(a.Name)
		if _, dup := r.attrPos[a.Name]; dup {
			return nil, fmt.Errorf("schema: relation %s: duplicate attribute %s", name, a.Name)
		}
		r.Attrs[i] = a
		r.attrPos[a.Name] = i
	}
	r.pkPos = make([]int, len(r.PrimaryKey))
	for i, c := range r.PrimaryKey {
		pos, ok := r.attrPos[c]
		if !ok {
			return nil, fmt.Errorf("schema: relation %s: primary key column %s not found", name, c)
		}
		r.pkPos[i] = pos
	}
	for i, fk := range fks {
		fk.Columns = lowerAll(fk.Columns)
		fk.RefTable = strings.ToLower(fk.RefTable)
		fk.RefColumns = lowerAll(fk.RefColumns)
		if len(fk.Columns) == 0 || len(fk.Columns) != len(fk.RefColumns) {
			return nil, fmt.Errorf("schema: relation %s: malformed foreign key %v", name, fk)
		}
		for _, c := range fk.Columns {
			if _, ok := r.attrPos[c]; !ok {
				return nil, fmt.Errorf("schema: relation %s: foreign key column %s not found", name, c)
			}
		}
		r.ForeignKeys[i] = fk
	}
	return r, nil
}

func lowerAll(ss []string) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = strings.ToLower(s)
	}
	return out
}

// AttrPos returns the position of the named attribute, or -1.
func (r *Relation) AttrPos(name string) int {
	if p, ok := r.attrPos[strings.ToLower(name)]; ok {
		return p
	}
	return -1
}

// Attr returns the named attribute, or nil.
func (r *Relation) Attr(name string) *Attribute {
	p := r.AttrPos(name)
	if p < 0 {
		return nil
	}
	return &r.Attrs[p]
}

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.Attrs) }

// IsPrimaryKeyCol reports whether the column is part of the primary key.
func (r *Relation) IsPrimaryKeyCol(name string) bool {
	name = strings.ToLower(name)
	for _, c := range r.PrimaryKey {
		if c == name {
			return true
		}
	}
	return false
}

// Schema is a set of relations.
type Schema struct {
	rels  map[string]*Relation
	order []string // insertion order, for deterministic iteration
}

// New returns an empty schema.
func New() *Schema {
	return &Schema{rels: make(map[string]*Relation)}
}

// AddRelation inserts a relation; it fails on duplicate names.
func (s *Schema) AddRelation(r *Relation) error {
	if _, dup := s.rels[r.Name]; dup {
		return fmt.Errorf("schema: duplicate relation %s", r.Name)
	}
	s.rels[r.Name] = r
	s.order = append(s.order, r.Name)
	return nil
}

// MustAddRelation is AddRelation that panics on error; for fixtures.
func (s *Schema) MustAddRelation(r *Relation) {
	if err := s.AddRelation(r); err != nil {
		panic(err)
	}
}

// Relation looks up a relation by (case-insensitive) name.
func (s *Schema) Relation(name string) *Relation {
	return s.rels[strings.ToLower(name)]
}

// Relations returns all relations in insertion order.
func (s *Schema) Relations() []*Relation {
	out := make([]*Relation, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, s.rels[n])
	}
	return out
}

// Validate checks referential integrity of the schema itself: every
// foreign key must reference an existing relation and columns of matching
// types, and the referenced columns must be that relation's primary key
// (the common DDL restriction; X-Data relies on it for the chase).
func (s *Schema) Validate() error {
	for _, r := range s.Relations() {
		for _, fk := range r.ForeignKeys {
			ref := s.Relation(fk.RefTable)
			if ref == nil {
				return fmt.Errorf("schema: %s: %s: no such relation %s", r.Name, fk, fk.RefTable)
			}
			for i, c := range fk.Columns {
				ra := ref.Attr(fk.RefColumns[i])
				la := r.Attr(c)
				if ra == nil {
					return fmt.Errorf("schema: %s: %s: no column %s.%s", r.Name, fk, fk.RefTable, fk.RefColumns[i])
				}
				if la.Type != ra.Type {
					return fmt.Errorf("schema: %s: %s: type mismatch %s vs %s", r.Name, fk, la.Type, ra.Type)
				}
			}
			if !sameColumnSet(fk.RefColumns, ref.PrimaryKey) {
				return fmt.Errorf("schema: %s: %s: referenced columns are not the primary key of %s", r.Name, fk, ref.Name)
			}
		}
	}
	return nil
}

func sameColumnSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// ColRef identifies a column of a base relation.
type ColRef struct {
	Table  string
	Column string
}

// String renders table.column.
func (c ColRef) String() string { return c.Table + "." + c.Column }

// FKEdge is an attribute-level foreign-key edge From -> To, meaning every
// From value must appear as a To value. Composite keys contribute one edge
// per column pair; the FKIndex ties columns of the same constraint
// together.
type FKEdge struct {
	From ColRef
	To   ColRef
}

// FKClosure computes the attribute-level transitive closure of single-
// column foreign keys (step 3 of Algorithm 1's preprocessing): if
// A.x -> B.x and B.x -> C.x then A.x -> C.x is included. Composite foreign
// keys contribute their column pairs as direct edges but do not
// participate in transitive composition (the paper's schema only chains
// single-column keys).
func (s *Schema) FKClosure() []FKEdge {
	direct := make(map[FKEdge]bool)
	var single []FKEdge
	for _, r := range s.Relations() {
		for _, fk := range r.ForeignKeys {
			for i, c := range fk.Columns {
				e := FKEdge{From: ColRef{r.Name, c}, To: ColRef{fk.RefTable, fk.RefColumns[i]}}
				if !direct[e] {
					direct[e] = true
					if len(fk.Columns) == 1 {
						single = append(single, e)
					}
				}
			}
		}
	}
	closure := make(map[FKEdge]bool, len(direct))
	for e := range direct {
		closure[e] = true
	}
	// Floyd–Warshall-style saturation over single-column edges.
	changed := true
	for changed {
		changed = false
		var add []FKEdge
		for e := range closure {
			for _, f := range single {
				if e.To == f.From {
					ne := FKEdge{From: e.From, To: f.To}
					if !closure[ne] {
						add = append(add, ne)
					}
				}
			}
		}
		for _, e := range add {
			if !closure[e] {
				closure[e] = true
				if e.From.Table != e.To.Table || e.From.Column != e.To.Column {
					changed = true
				}
			}
		}
	}
	out := make([]FKEdge, 0, len(closure))
	for e := range closure {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From.String() < out[j].From.String()
		}
		return out[i].To.String() < out[j].To.String()
	})
	return out
}

// ReferencersOf returns, using the transitive closure, every column that
// (directly or indirectly) references the given column.
func (s *Schema) ReferencersOf(target ColRef) []ColRef {
	var out []ColRef
	for _, e := range s.FKClosure() {
		if e.To == target {
			out = append(out, e.From)
		}
	}
	return out
}

// String renders the schema as CREATE TABLE statements.
func (s *Schema) String() string {
	var sb strings.Builder
	for _, r := range s.Relations() {
		var lines []string
		for _, a := range r.Attrs {
			l := "  " + QuoteIdent(a.Name) + " " + a.Type.String()
			if a.NotNull {
				l += " NOT NULL"
			}
			lines = append(lines, l)
		}
		if len(r.PrimaryKey) > 0 {
			lines = append(lines, "  PRIMARY KEY ("+strings.Join(quoteAll(r.PrimaryKey), ", ")+")")
		}
		for _, fk := range r.ForeignKeys {
			lines = append(lines, "  "+fk.String())
		}
		sb.WriteString("CREATE TABLE ")
		sb.WriteString(QuoteIdent(r.Name))
		sb.WriteString(" (\n")
		sb.WriteString(strings.Join(lines, ",\n"))
		sb.WriteString("\n);\n")
	}
	return sb.String()
}
