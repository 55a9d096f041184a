package analysis

import (
	"slices"
	"testing"
)

// TestReachListsTrackRegistrations: a write template's list holds exactly
// the registered read templates it may touch — dependent ones and ones the
// analysis cannot parse — whether they were registered before its first
// write or after.
func TestReachListsTrackRegistrations(t *testing.T) {
	e := newEngine(t, StrategyWhereMatch, nil)
	r := NewReach[string](e)
	r.Add("SELECT a FROM T WHERE b = ?", "reads-a")
	r.Add("SELECT c FROM U", "other-table")
	r.Add("SELECT FROM WHERE", "unparseable")
	pw, err := e.PrepareWrite(wc("UPDATE T SET a = ? WHERE b = ?", int64(1), int64(2)))
	if err != nil {
		t.Fatal(err)
	}
	check := func(want ...string) {
		t.Helper()
		got := slices.Clone(r.Touched(pw))
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("write touches %v, want %v", got, want)
		}
	}
	check("reads-a", "unparseable")
	r.Add("SELECT a, b FROM T", "late")
	r.Add("SELECT d FROM T", "untouched column")
	check("reads-a", "unparseable", "late")
}
