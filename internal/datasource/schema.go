package datasource

import "strings"

// ColType enumerates column types.
type ColType int

// Column types. Start at 1 so the zero value is invalid.
const (
	TypeInt ColType = iota + 1
	TypeFloat
	TypeString
)

func (t ColType) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeString:
		return "TEXT"
	}
	return "INVALID"
}

// Column describes one table column.
type Column struct {
	Name string
	Type ColType
	// AutoIncrement marks an integer column whose value is assigned by the
	// engine when an INSERT omits it. At most one per table.
	AutoIncrement bool
}

// TableSpec describes a table: its columns and which columns carry a
// secondary index. Auto-increment columns are always indexed.
type TableSpec struct {
	Name    string
	Columns []Column
	// Indexed lists the secondary indexes to build. An entry "col" is a
	// hash index: equality lookups on col avoid full scans. An entry
	// "col,order" is an ordered index: the same lookups, whose rows come
	// sorted by the INT or TEXT column order, so `WHERE col = ? ORDER BY
	// order … LIMIT n` reads about n of them instead of all.
	Indexed []string
}

// DDL renders the spec as executable statements: one CREATE TABLE IF NOT
// EXISTS plus one CREATE INDEX IF NOT EXISTS per Indexed entry, on its one
// or two columns. Both the memdb and sqlite drivers execute this dialect, so
// applications bootstrap their schema through a plain Conn without knowing
// the backend.
func (s TableSpec) DDL() []string {
	var b strings.Builder
	b.WriteString("CREATE TABLE IF NOT EXISTS ")
	b.WriteString(s.Name)
	b.WriteString(" (")
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		switch c.Type {
		case TypeInt:
			b.WriteString("INTEGER")
		case TypeFloat:
			b.WriteString("REAL")
		default:
			b.WriteString("TEXT")
		}
		if c.AutoIncrement {
			b.WriteString(" PRIMARY KEY AUTO_INCREMENT")
		}
	}
	b.WriteString(")")
	out := []string{b.String()}
	for _, entry := range s.Indexed {
		cols := strings.Split(entry, ",")
		out = append(out, "CREATE INDEX IF NOT EXISTS idx_"+s.Name+"_"+strings.Join(cols, "_")+
			" ON "+s.Name+" ("+strings.Join(cols, ", ")+")")
	}
	return out
}
