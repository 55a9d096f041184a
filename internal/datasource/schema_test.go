package datasource

import (
	"reflect"
	"testing"
)

// TestDDLRendersIndexEntries checks that a plain Indexed entry renders one
// single-column CREATE INDEX and a "key,order" entry one two-column one.
func TestDDLRendersIndexEntries(t *testing.T) {
	spec := TableSpec{
		Name: "bids",
		Columns: []Column{
			{Name: "id", Type: TypeInt, AutoIncrement: true},
			{Name: "user_id", Type: TypeInt},
			{Name: "date", Type: TypeInt},
			{Name: "bid", Type: TypeFloat},
			{Name: "note", Type: TypeString},
		},
		Indexed: []string{"user_id,date", "note"},
	}
	want := []string{
		"CREATE TABLE IF NOT EXISTS bids (id INTEGER PRIMARY KEY AUTO_INCREMENT, user_id INTEGER, date INTEGER, bid REAL, note TEXT)",
		"CREATE INDEX IF NOT EXISTS idx_bids_user_id_date ON bids (user_id, date)",
		"CREATE INDEX IF NOT EXISTS idx_bids_note ON bids (note)",
	}
	if got := spec.DDL(); !reflect.DeepEqual(got, want) {
		t.Fatalf("DDL:\n got %q\nwant %q", got, want)
	}
}
