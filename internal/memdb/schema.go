package memdb

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"autowebcache/internal/datasource"
)

// ColType, Column and TableSpec are the datasource schema shapes; memdb
// aliases them so specs written against either package interoperate.
type (
	// ColType enumerates column types.
	ColType = datasource.ColType
	// Column describes one table column.
	Column = datasource.Column
	// TableSpec describes a table and its secondary indexes.
	TableSpec = datasource.TableSpec
)

// Column types, re-exported from datasource.
const (
	TypeInt    = datasource.TypeInt
	TypeFloat  = datasource.TypeFloat
	TypeString = datasource.TypeString
)

// table is the runtime representation of one table.
type table struct {
	spec    TableSpec
	colIdx  map[string]int
	autoCol int // index of auto-increment column, -1 if none

	// mu is the MyISAM-style table lock: one writer or many readers.
	mu sync.RWMutex

	rows    [][]Value // nil slots are deleted rows
	free    []int     // reusable row slots
	live    int       // number of non-nil rows
	indexes map[int]*hashIndex
	autoinc int64
}

// hashIndex maps a column's values to the ids of the rows holding them. It
// is keyed by the column's own type (coerce guarantees every stored value
// has it), so filing and probing a value never formats a key. NULLs are not
// filed: no equality matches them.
//
// An ordered index, CREATE INDEX … (col, order), keeps every bucket sorted
// by (the order column under datasource.Compare, row id), so a probe's
// candidates arrive in that order and top-k can stop walking them early.
// A plain index keeps a bucket in no particular order.
type hashIndex struct {
	col    int
	order  int              // the column buckets are sorted by, or -1
	ints   buckets[int64]   // INT columns
	floats buckets[float64] // FLOAT columns, except NaN
	strs   buckets[string]  // TEXT columns
	// nans counts FLOAT rows holding NaN, which compares equal to every
	// number and so belongs to every bucket; while any exist, no float
	// probe is exact.
	nans int
}

func newHashIndex(col int, typ ColType, order int) *hashIndex {
	ix := &hashIndex{col: col, order: order}
	switch typ {
	case TypeInt:
		ix.ints = buckets[int64]{}
	case TypeFloat:
		ix.floats = buckets[float64]{}
	default:
		ix.strs = buckets[string]{}
	}
	return ix
}

// add files row rowID of rows. It reads the row's current values, so an
// update removes a row before changing it and adds it after.
func (ix *hashIndex) add(rows [][]Value, rowID int) {
	switch x := rows[rowID][ix.col].(type) {
	case int64:
		ix.ints.add(x, ix, rows, rowID)
	case float64:
		if math.IsNaN(x) {
			ix.nans++
			return
		}
		ix.floats.add(x, ix, rows, rowID)
	case string:
		ix.strs.add(x, ix, rows, rowID)
	}
}

// remove unfiles row rowID of rows, which must still hold the values it was
// filed with.
func (ix *hashIndex) remove(rows [][]Value, rowID int) {
	switch x := rows[rowID][ix.col].(type) {
	case int64:
		ix.ints.remove(x, ix, rows, rowID)
	case float64:
		if math.IsNaN(x) {
			ix.nans--
			return
		}
		ix.floats.remove(x, ix, rows, rowID)
	case string:
		ix.strs.remove(x, ix, rows, rowID)
	}
}

// search finds rowID's rank in an ordered bucket by (order value, row id),
// and reports whether it is there.
func (ix *hashIndex) search(rows [][]Value, ids []int, rowID int) (int, bool) {
	o := rows[rowID][ix.order]
	return slices.BinarySearchFunc(ids, rowID, func(id, _ int) int {
		if c := datasource.Compare(rows[id][ix.order], o); c != 0 {
			return c
		}
		return cmp.Compare(id, rowID)
	})
}

// probe returns the ids of the rows whose value equals v under
// datasource.Equal. It reports false when no bucket holds exactly those
// rows — a TEXT column against a number, a fractional or out-of-range
// number against an INT column, a non-numeric or NaN argument against a
// FLOAT column — and the caller must scan instead.
func (ix *hashIndex) probe(v Value) ([]int, bool) {
	if v == nil {
		return nil, true
	}
	switch {
	case ix.strs != nil:
		s, ok := v.(string)
		return ix.strs[s], ok
	case ix.ints != nil:
		if i, ok := v.(int64); ok {
			return ix.ints[i], true
		}
		// Integers compare with a float as float64(i) does, which is
		// one-to-one only below 2^53.
		f, ok := datasource.ToFloat(v)
		if !ok || f != math.Trunc(f) || math.Abs(f) >= 1<<53 {
			return nil, false
		}
		return ix.ints[int64(f)], true
	default:
		f, ok := datasource.ToFloat(v)
		if !ok || math.IsNaN(f) || ix.nans > 0 {
			return nil, false
		}
		return ix.floats[f], true
	}
}

// buckets maps one key type to row ids.
type buckets[K comparable] map[K][]int

func (b buckets[K]) add(k K, ix *hashIndex, rows [][]Value, rowID int) {
	ids := b[k]
	i := len(ids)
	if ix.order >= 0 {
		i, _ = ix.search(rows, ids, rowID)
	}
	b[k] = slices.Insert(ids, i, rowID)
}

func (b buckets[K]) remove(k K, ix *hashIndex, rows [][]Value, rowID int) {
	ids := b[k]
	if ix.order >= 0 {
		if i, ok := ix.search(rows, ids, rowID); ok {
			ids = slices.Delete(ids, i, i+1)
		}
	} else if i := slices.Index(ids, rowID); i >= 0 {
		ids[i] = ids[len(ids)-1]
		ids = ids[:len(ids)-1]
	}
	if len(ids) == 0 {
		delete(b, k)
	} else {
		b[k] = ids
	}
}

func newTable(spec TableSpec) (*table, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("memdb: table with empty name")
	}
	if len(spec.Columns) == 0 {
		return nil, fmt.Errorf("memdb: table %s has no columns", spec.Name)
	}
	t := &table{
		spec:    spec,
		colIdx:  make(map[string]int, len(spec.Columns)),
		autoCol: -1,
		indexes: make(map[int]*hashIndex),
	}
	for i, c := range spec.Columns {
		if c.Name == "" {
			return nil, fmt.Errorf("memdb: table %s column %d has empty name", spec.Name, i)
		}
		if _, dup := t.colIdx[c.Name]; dup {
			return nil, fmt.Errorf("memdb: table %s duplicate column %s", spec.Name, c.Name)
		}
		t.colIdx[c.Name] = i
		if c.AutoIncrement {
			if t.autoCol >= 0 {
				return nil, fmt.Errorf("memdb: table %s has two auto-increment columns", spec.Name)
			}
			if c.Type != TypeInt {
				return nil, fmt.Errorf("memdb: table %s auto-increment column %s must be INT", spec.Name, c.Name)
			}
			t.autoCol = i
		}
	}
	for _, entry := range spec.Indexed {
		if err := t.addIndexLocked(strings.Split(entry, ",")); err != nil {
			return nil, err
		}
	}
	if t.autoCol >= 0 {
		if _, ok := t.indexes[t.autoCol]; !ok {
			t.indexes[t.autoCol] = newHashIndex(t.autoCol, TypeInt, -1)
		}
	}
	return t, nil
}

// addIndexLocked indexes the rows on cols: one column for a plain index, or
// (key, order) for an ordered one, whose order column must be INT or TEXT
// (a NaN has no place in an order). An index the table already has on the
// key column satisfies a plain request and the same ordered one; an ordered
// request replaces a plain index in place, so a plan holding it reads the
// ordered one; one naming a different order fails. The caller holds the
// table write lock.
func (t *table) addIndexLocked(cols []string) error {
	if len(cols) > 2 {
		return fmt.Errorf("memdb: table %s index on %d columns: an index is one column or (key, order)", t.spec.Name, len(cols))
	}
	ci, ok := t.colIdx[cols[0]]
	if !ok {
		return fmt.Errorf("memdb: table %s indexes unknown column %s", t.spec.Name, cols[0])
	}
	order := -1
	if len(cols) == 2 {
		if order, ok = t.colIdx[cols[1]]; !ok {
			return fmt.Errorf("memdb: table %s orders an index by unknown column %s", t.spec.Name, cols[1])
		}
		if typ := t.spec.Columns[order].Type; typ == TypeFloat {
			return fmt.Errorf("memdb: table %s cannot order an index by %s column %s: want INT or TEXT", t.spec.Name, typ, cols[1])
		}
	}
	if old, exists := t.indexes[ci]; exists {
		switch {
		case order < 0 || old.order == order:
			return nil
		case old.order >= 0:
			return fmt.Errorf("memdb: table %s column %s is already indexed in order of %s, not %s",
				t.spec.Name, cols[0], t.spec.Columns[old.order].Name, cols[1])
		}
	}
	ix := newHashIndex(ci, t.spec.Columns[ci].Type, order)
	for rowID, row := range t.rows {
		if row != nil {
			ix.add(t.rows, rowID)
		}
	}
	if old := t.indexes[ci]; old != nil {
		*old = *ix
	} else {
		t.indexes[ci] = ix
	}
	return nil
}

// index returns the index on column ci, or nil. An index is never dropped
// or replaced by another, so a plan may keep the pointer across schema
// changes.
func (t *table) index(ci int) *hashIndex {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.indexes[ci]
}

// coerce adapts a value to the column type. Integers widen to floats for
// float columns; numeric values stringify for text columns; NULL passes
// through.
func coerce(v Value, typ ColType) (Value, error) {
	if v == nil {
		return nil, nil
	}
	switch typ {
	case TypeInt:
		switch x := v.(type) {
		case int64:
			return x, nil
		case float64:
			return int64(x), nil
		case string:
			// MySQL-style weak typing: numeric strings coerce.
			if n, err := strconv.ParseInt(strings.TrimSpace(x), 10, 64); err == nil {
				return n, nil
			}
			if f, err := strconv.ParseFloat(strings.TrimSpace(x), 64); err == nil {
				return int64(f), nil
			}
		}
		return nil, fmt.Errorf("memdb: cannot store %T (%v) in INT column", v, v)
	case TypeFloat:
		switch x := v.(type) {
		case int64:
			return float64(x), nil
		case float64:
			return x, nil
		case string:
			if f, err := strconv.ParseFloat(strings.TrimSpace(x), 64); err == nil {
				return f, nil
			}
		}
		return nil, fmt.Errorf("memdb: cannot store %T (%v) in FLOAT column", v, v)
	case TypeString:
		switch x := v.(type) {
		case string:
			return x, nil
		case int64:
			return fmt.Sprintf("%d", x), nil
		case float64:
			return fmt.Sprintf("%g", x), nil
		}
		return nil, fmt.Errorf("memdb: cannot store %T in TEXT column", v)
	}
	return nil, fmt.Errorf("memdb: invalid column type %v", typ)
}

// insertRowLocked appends a row (already coerced, full width). The caller
// holds the table write lock. Returns the row id and the auto-assigned id
// (or 0 when the table has no auto-increment column).
func (t *table) insertRowLocked(row []Value) (rowID int, lastID int64) {
	if t.autoCol >= 0 {
		if row[t.autoCol] == nil {
			t.autoinc++
			row[t.autoCol] = t.autoinc
		} else if id, ok := row[t.autoCol].(int64); ok && id > t.autoinc {
			t.autoinc = id
		}
		lastID, _ = row[t.autoCol].(int64)
	}
	if n := len(t.free); n > 0 {
		rowID = t.free[n-1]
		t.free = t.free[:n-1]
		t.rows[rowID] = row
	} else {
		rowID = len(t.rows)
		t.rows = append(t.rows, row)
	}
	t.live++
	for _, ix := range t.indexes {
		ix.add(t.rows, rowID)
	}
	return rowID, lastID
}

// deleteRowLocked removes a row. The caller holds the table write lock.
func (t *table) deleteRowLocked(rowID int) {
	row := t.rows[rowID]
	if row == nil {
		return
	}
	for _, ix := range t.indexes {
		ix.remove(t.rows, rowID)
	}
	t.rows[rowID] = nil
	t.free = append(t.free, rowID)
	t.live--
}

// updateColLocked changes one column of a row, refiling it in every index
// keyed or ordered by that column. The caller holds the table write lock.
func (t *table) updateColLocked(rowID, ci int, v Value) {
	for _, ix := range t.indexes {
		if ix.col == ci || ix.order == ci {
			ix.remove(t.rows, rowID)
		}
	}
	t.rows[rowID][ci] = v
	for _, ix := range t.indexes {
		if ix.col == ci || ix.order == ci {
			ix.add(t.rows, rowID)
		}
	}
}
