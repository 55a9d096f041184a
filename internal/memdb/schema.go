package memdb

import (
	"fmt"
	"math"
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
	// TableSpec describes a table and its secondary hash indexes.
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
type hashIndex struct {
	ints   buckets[int64]   // INT columns
	floats buckets[float64] // FLOAT columns, except NaN
	strs   buckets[string]  // TEXT columns
	// nans counts FLOAT rows holding NaN, which compares equal to every
	// number and so belongs to every bucket; while any exist, no float
	// probe is exact.
	nans int
}

func newHashIndex(typ ColType) *hashIndex {
	switch typ {
	case TypeInt:
		return &hashIndex{ints: buckets[int64]{}}
	case TypeFloat:
		return &hashIndex{floats: buckets[float64]{}}
	}
	return &hashIndex{strs: buckets[string]{}}
}

func (ix *hashIndex) add(v Value, rowID int) {
	switch x := v.(type) {
	case int64:
		ix.ints.add(x, rowID)
	case float64:
		if math.IsNaN(x) {
			ix.nans++
			return
		}
		ix.floats.add(x, rowID)
	case string:
		ix.strs.add(x, rowID)
	}
}

func (ix *hashIndex) remove(v Value, rowID int) {
	switch x := v.(type) {
	case int64:
		ix.ints.remove(x, rowID)
	case float64:
		if math.IsNaN(x) {
			ix.nans--
			return
		}
		ix.floats.remove(x, rowID)
	case string:
		ix.strs.remove(x, rowID)
	}
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
		f, ok := ToFloat(v)
		if !ok || f != math.Trunc(f) || math.Abs(f) >= 1<<53 {
			return nil, false
		}
		return ix.ints[int64(f)], true
	default:
		f, ok := ToFloat(v)
		if !ok || math.IsNaN(f) || ix.nans > 0 {
			return nil, false
		}
		return ix.floats[f], true
	}
}

// buckets maps one key type to row ids.
type buckets[K comparable] map[K][]int

func (b buckets[K]) add(k K, rowID int) {
	b[k] = append(b[k], rowID)
}

func (b buckets[K]) remove(k K, rowID int) {
	ids := b[k]
	for i, id := range ids {
		if id == rowID {
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			break
		}
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
	for _, name := range spec.Indexed {
		ci, ok := t.colIdx[name]
		if !ok {
			return nil, fmt.Errorf("memdb: table %s indexes unknown column %s", spec.Name, name)
		}
		t.indexes[ci] = newHashIndex(spec.Columns[ci].Type)
	}
	if t.autoCol >= 0 {
		if _, ok := t.indexes[t.autoCol]; !ok {
			t.indexes[t.autoCol] = newHashIndex(TypeInt)
		}
	}
	return t, nil
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
	for ci, ix := range t.indexes {
		ix.add(row[ci], rowID)
	}
	return rowID, lastID
}

// deleteRowLocked removes a row. The caller holds the table write lock.
func (t *table) deleteRowLocked(rowID int) {
	row := t.rows[rowID]
	if row == nil {
		return
	}
	for ci, ix := range t.indexes {
		ix.remove(row[ci], rowID)
	}
	t.rows[rowID] = nil
	t.free = append(t.free, rowID)
	t.live--
}

// updateColLocked changes one column of a row, maintaining indexes. The
// caller holds the table write lock.
func (t *table) updateColLocked(rowID, ci int, v Value) {
	row := t.rows[rowID]
	old := row[ci]
	if ix, ok := t.indexes[ci]; ok {
		ix.remove(old, rowID)
		ix.add(v, rowID)
	}
	row[ci] = v
}
