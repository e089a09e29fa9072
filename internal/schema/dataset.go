package schema

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/sqltypes"
)

// Dataset is a test case in the paper's sense: a legal database instance,
// mapping base-relation names to bags of rows. Generated datasets also
// carry a human-readable Purpose describing which mutant group they target
// (the paper stresses that each test case must be small and intuitive
// because a human examines it).
type Dataset struct {
	Purpose string
	Tables  map[string][]sqltypes.Row

	// Memoized columnar views (see ColumnarTable); lazily built, safe
	// for concurrent readers, invalidated by Insert/DedupPrimaryKeys.
	viewsMu sync.Mutex
	views   map[string]*ColTable
}

// NewDataset returns an empty dataset with the given purpose label.
func NewDataset(purpose string) *Dataset {
	return &Dataset{Purpose: purpose, Tables: make(map[string][]sqltypes.Row)}
}

// Insert appends a row to the named table.
func (d *Dataset) Insert(table string, row sqltypes.Row) {
	table = strings.ToLower(table)
	d.Tables[table] = append(d.Tables[table], row)
	d.invalidateView(table)
}

// Rows returns the rows of the named table (nil if absent).
func (d *Dataset) Rows(table string) []sqltypes.Row {
	return d.Tables[strings.ToLower(table)]
}

// TableNames returns the populated table names, sorted.
func (d *Dataset) TableNames() []string {
	out := make([]string, 0, len(d.Tables))
	for n := range d.Tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Size returns the total number of rows across all tables.
func (d *Dataset) Size() int {
	n := 0
	for _, rows := range d.Tables {
		n += len(rows)
	}
	return n
}

// Clone returns a deep copy.
func (d *Dataset) Clone() *Dataset {
	out := NewDataset(d.Purpose)
	for t, rows := range d.Tables {
		cp := make([]sqltypes.Row, len(rows))
		for i, r := range rows {
			cp[i] = r.Clone()
		}
		out.Tables[t] = cp
	}
	return out
}

// String renders the dataset as a compact text table per relation.
func (d *Dataset) String() string {
	var sb strings.Builder
	if d.Purpose != "" {
		fmt.Fprintf(&sb, "-- %s\n", d.Purpose)
	}
	for _, t := range d.TableNames() {
		fmt.Fprintf(&sb, "%s:\n", t)
		for _, r := range d.Tables[t] {
			fmt.Fprintf(&sb, "  %s\n", r)
		}
	}
	return sb.String()
}

// SQLInserts renders the dataset as INSERT statements against the schema
// (columns in schema order). It sizes one buffer from the output's
// length, writes each table's "INSERT INTO t (cols) VALUES (" prefix
// once and copies it per row, and formats literals in place: a call
// allocates the table-name list and the buffer, however many rows and
// columns the dataset has.
func (d *Dataset) SQLInserts(s *Schema) string {
	names := d.TableNames()
	size := 0
	if d.Purpose != "" {
		size += len("-- \n") + len(d.Purpose)
	}
	for _, t := range names {
		rows := d.Tables[t]
		if len(rows) == 0 {
			continue
		}
		prefix := len("INSERT INTO \"\" VALUES (") + len(t)
		if rel := s.Relation(t); rel != nil {
			prefix += len(" ()")
			for _, a := range rel.Attrs {
				prefix += len(`"", `) + len(a.Name)
			}
		}
		for _, r := range rows {
			size += prefix + len(");\n")
			for _, v := range r {
				size += len(", ") + v.SQLLiteralBound()
			}
		}
	}
	var sb strings.Builder
	sb.Grow(size)
	var litArr [64]byte
	lit := litArr[:0]
	if d.Purpose != "" {
		sb.WriteString("-- ")
		sb.WriteString(d.Purpose)
		sb.WriteByte('\n')
	}
	for _, t := range names {
		rows := d.Tables[t]
		if len(rows) == 0 {
			continue
		}
		start := sb.Len()
		sb.WriteString("INSERT INTO ")
		sb.WriteString(QuoteIdent(t))
		if rel := s.Relation(t); rel != nil {
			sb.WriteString(" (")
			for i, a := range rel.Attrs {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(QuoteIdent(a.Name))
			}
			sb.WriteByte(')')
		}
		sb.WriteString(" VALUES (")
		// Written bytes never change, so the prefix can be re-read from
		// the builder's own string.
		prefix := sb.String()[start:]
		for ri, r := range rows {
			if ri > 0 {
				sb.WriteString(prefix)
			}
			for i, v := range r {
				if i > 0 {
					sb.WriteString(", ")
				}
				lit = v.AppendSQLLiteral(lit[:0])
				sb.Write(lit)
			}
			sb.WriteString(");\n")
		}
	}
	return sb.String()
}

// CheckDataset validates a dataset against the schema: arity and type of
// every row, NOT NULL columns, primary-key uniqueness, and referential
// integrity of every foreign key. It returns the first violation found,
// or nil if the dataset is a legal database instance.
func (s *Schema) CheckDataset(d *Dataset) error {
	var seen keySet
	var keyArr, bufArr [64]byte
	pkBuf, buf := keyArr[:0], bufArr[:0]
	names := d.TableNames()
	for _, t := range names {
		rel := s.Relation(t)
		if rel == nil {
			return fmt.Errorf("dataset: unknown relation %s", t)
		}
		seen.reset()
		for ri, row := range d.Tables[t] {
			if len(row) != rel.Arity() {
				return fmt.Errorf("dataset: %s row %d: arity %d, want %d", t, ri, len(row), rel.Arity())
			}
			for ci, v := range row {
				a := rel.Attrs[ci]
				if v.IsNull() {
					if a.NotNull {
						return fmt.Errorf("dataset: %s row %d: NULL in NOT NULL column %s", t, ri, a.Name)
					}
					continue
				}
				if !kindCompatible(a.Type, v.Kind()) {
					return fmt.Errorf("dataset: %s row %d: column %s has %s, want %s", t, ri, a.Name, v.Kind(), a.Type)
				}
			}
			if len(rel.PrimaryKey) > 0 {
				var ok bool
				pkBuf, ok = appendPKKey(pkBuf[:0], rel, row)
				if !ok {
					return fmt.Errorf("dataset: %s row %d: NULL in primary key", t, ri)
				}
				if prev, dup := seen.find(pkBuf); dup {
					return fmt.Errorf("dataset: %s rows %d and %d: duplicate primary key %s", t, prev, ri, string(pkBuf))
				}
				seen.add(pkBuf, ri)
			}
		}
	}
	// Referential integrity.
	for _, t := range names {
		rel := s.Relation(t)
		for _, fk := range rel.ForeignKeys {
			ref := s.Relation(fk.RefTable)
			if ref == nil {
				return fmt.Errorf("dataset: %s: %s: missing referenced relation", t, fk)
			}
			seen.reset()
			for _, row := range d.Rows(fk.RefTable) {
				var ok bool
				buf, ok = appendProjKey(buf[:0], ref, fk.RefColumns, row)
				if ok {
					if _, dup := seen.find(buf); !dup {
						seen.add(buf, 0)
					}
				}
			}
			for ri, row := range d.Tables[t] {
				var ok bool
				buf, ok = appendProjKey(buf[:0], rel, fk.Columns, row)
				if !ok { // NULL in FK: vacuously satisfied (A2 forbids, but be lenient)
					continue
				}
				if _, found := seen.find(buf); !found {
					return fmt.Errorf("dataset: %s row %d violates %s: no matching %s row", t, ri, fk, fk.RefTable)
				}
			}
		}
	}
	return nil
}

func kindCompatible(col, val sqltypes.Kind) bool {
	if col == val {
		return true
	}
	return col.Numeric() && val.Numeric()
}

// appendPKKey appends the canonical key of row's primary-key projection
// to dst; ok is false (and dst is returned truncated as passed) when a
// key column is NULL. Dedup loops reuse one buffer across rows.
func appendPKKey(dst []byte, rel *Relation, row sqltypes.Row) (_ []byte, ok bool) {
	for i, pos := range rel.pkPos {
		v := row[pos]
		if v.IsNull() {
			return dst, false
		}
		if i > 0 {
			dst = append(dst, '\x1f')
		}
		dst = (sqltypes.Row{v}).AppendKey(dst)
	}
	return dst, true
}

// appendProjKey is appendPKKey for an arbitrary column projection; ok
// is false when a projected column is NULL.
func appendProjKey(dst []byte, rel *Relation, cols []string, row sqltypes.Row) (_ []byte, ok bool) {
	for i, c := range cols {
		v := row[rel.AttrPos(c)]
		if v.IsNull() {
			return dst, false
		}
		if i > 0 {
			dst = append(dst, '\x1f')
		}
		dst = (sqltypes.Row{v}).AppendKey(dst)
	}
	return dst, true
}

// DedupPrimaryKeys removes rows whose full contents duplicate an earlier
// row, and reports an error if two distinct rows share a primary key. The
// paper notes the solver may legitimately make repair tuples equal to
// existing tuples; duplicates are eliminated before the dataset is
// materialized. Each table's rows are compacted in place: the kept rows
// keep their order at the front of the table's slice.
func (s *Schema) DedupPrimaryKeys(d *Dataset) error {
	var seen keySet
	var keyArr, rowArr, prevArr [64]byte
	key, rowKey, prevKey := keyArr[:0], rowArr[:0], prevArr[:0]
	for _, t := range d.TableNames() {
		rel := s.Relation(t)
		if rel == nil {
			continue
		}
		rows := d.Tables[t]
		kept := rows[:0]
		seen.reset()
		for _, row := range rows {
			if len(rel.PrimaryKey) > 0 {
				// No separate full-row pass: equal rows share a primary
				// key, so the key set finds both row duplicates (keys
				// collide, rows compare equal — skip) and genuine
				// conflicts (rows differ — error) in one lookup.
				var ok bool
				key, ok = appendPKKey(key[:0], rel, row)
				if !ok {
					return fmt.Errorf("dedup: %s: NULL primary key", t)
				}
				if prev, dup := seen.find(key); dup {
					prevKey = kept[prev].AppendKey(prevKey[:0])
					rowKey = row.AppendKey(rowKey[:0])
					if string(prevKey) != string(rowKey) {
						return fmt.Errorf("dedup: %s: primary-key conflict between distinct rows", t)
					}
					continue
				}
			} else {
				key = row.AppendKey(key[:0])
				if _, dup := seen.find(key); dup {
					continue
				}
			}
			seen.add(key, len(kept))
			kept = append(kept, row)
		}
		d.Tables[t] = kept
		d.invalidateView(t)
	}
	return nil
}
