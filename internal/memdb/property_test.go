package memdb

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// refRow mirrors a row natively so expected results can be computed without
// the engine.
type refRow struct {
	id    int64
	name  string
	group int64
	score float64
}

// buildPropDB creates a table plus a parallel native slice of rows. The
// table's indexes are the given Indexed entries, or one on grp.
func buildPropDB(t *testing.T, rng *rand.Rand, n int, indexed ...string) (*DB, []refRow) {
	t.Helper()
	if len(indexed) == 0 {
		indexed = []string{"grp"}
	}
	db := New()
	db.MustCreateTable(TableSpec{
		Name: "rows",
		Columns: []Column{
			{Name: "id", Type: TypeInt, AutoIncrement: true},
			{Name: "name", Type: TypeString},
			{Name: "grp", Type: TypeInt},
			{Name: "score", Type: TypeFloat},
		},
		Indexed: indexed,
	})
	ctx := context.Background()
	ref := make([]refRow, 0, n)
	for i := 0; i < n; i++ {
		r := refRow{
			id:    int64(i + 1),
			name:  fmt.Sprintf("name-%d", rng.Intn(20)),
			group: int64(rng.Intn(8)),
			score: float64(rng.Intn(1000)) / 10,
		}
		if _, err := db.Exec(ctx, "INSERT INTO rows (name, grp, score) VALUES (?, ?, ?)", r.name, r.group, r.score); err != nil {
			t.Fatal(err)
		}
		ref = append(ref, r)
	}
	return db, ref
}

// predicate pairs a SQL condition fragment with its native evaluation.
type predicate struct {
	sql  string
	args []any
	eval func(refRow) bool
}

func randPredicate(rng *rand.Rand) predicate {
	switch rng.Intn(6) {
	case 0:
		g := int64(rng.Intn(8))
		return predicate{"grp = ?", []any{g}, func(r refRow) bool { return r.group == g }}
	case 1:
		s := float64(rng.Intn(1000)) / 10
		return predicate{"score > ?", []any{s}, func(r refRow) bool { return r.score > s }}
	case 2:
		s := float64(rng.Intn(1000)) / 10
		return predicate{"score <= ?", []any{s}, func(r refRow) bool { return r.score <= s }}
	case 3:
		nm := fmt.Sprintf("name-%d", rng.Intn(20))
		return predicate{"name = ?", []any{nm}, func(r refRow) bool { return r.name == nm }}
	case 4:
		lo, hi := int64(rng.Intn(4)), int64(4+rng.Intn(4))
		return predicate{"grp BETWEEN ? AND ?", []any{lo, hi}, func(r refRow) bool { return r.group >= lo && r.group <= hi }}
	default:
		id := int64(rng.Intn(60))
		return predicate{"id < ?", []any{id}, func(r refRow) bool { return r.id < id }}
	}
}

// combine joins predicates with AND/OR, mirroring the engine's left-assoc
// parse.
func combine(rng *rand.Rand, ps []predicate) predicate {
	out := ps[0]
	for _, p := range ps[1:] {
		p := p
		prev := out
		if rng.Intn(2) == 0 {
			out = predicate{
				sql:  "(" + prev.sql + ") AND (" + p.sql + ")",
				args: append(append([]any{}, prev.args...), p.args...),
				eval: func(r refRow) bool { return prev.eval(r) && p.eval(r) },
			}
		} else {
			out = predicate{
				sql:  "(" + prev.sql + ") OR (" + p.sql + ")",
				args: append(append([]any{}, prev.args...), p.args...),
				eval: func(r refRow) bool { return prev.eval(r) || p.eval(r) },
			}
		}
	}
	return out
}

// TestSelectMatchesReference cross-checks engine SELECT results against a
// native evaluation for randomized predicates.
func TestSelectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db, ref := buildPropDB(t, rng, 60)
	ctx := context.Background()
	for iter := 0; iter < 300; iter++ {
		nPreds := 1 + rng.Intn(3)
		ps := make([]predicate, nPreds)
		for i := range ps {
			ps[i] = randPredicate(rng)
		}
		p := combine(rng, ps)
		sql := "SELECT id FROM rows WHERE " + p.sql + " ORDER BY id ASC"
		rows, err := db.Query(ctx, sql, p.args...)
		if err != nil {
			t.Fatalf("iter %d: %q: %v", iter, sql, err)
		}
		var want []int64
		for _, r := range ref {
			if p.eval(r) {
				want = append(want, r.id)
			}
		}
		if rows.Len() != len(want) {
			t.Fatalf("iter %d: %q args=%v: got %d rows, want %d", iter, sql, p.args, rows.Len(), len(want))
		}
		for i := range want {
			if rows.Int(i, 0) != want[i] {
				t.Fatalf("iter %d: %q: row %d = %d, want %d", iter, sql, i, rows.Int(i, 0), want[i])
			}
		}
	}
}

// TestAggregatesMatchReference cross-checks GROUP BY aggregation.
func TestAggregatesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db, ref := buildPropDB(t, rng, 80)
	ctx := context.Background()
	rows, err := db.Query(ctx, "SELECT grp, COUNT(*), SUM(score), MIN(score), MAX(score) FROM rows GROUP BY grp ORDER BY grp ASC")
	if err != nil {
		t.Fatal(err)
	}
	type agg struct {
		n        int64
		sum      float64
		min, max float64
	}
	want := map[int64]*agg{}
	for _, r := range ref {
		a, ok := want[r.group]
		if !ok {
			a = &agg{min: r.score, max: r.score}
			want[r.group] = a
		}
		a.n++
		a.sum += r.score
		if r.score < a.min {
			a.min = r.score
		}
		if r.score > a.max {
			a.max = r.score
		}
	}
	var groups []int64
	for g := range want {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i] < groups[j] })
	if rows.Len() != len(groups) {
		t.Fatalf("got %d groups, want %d", rows.Len(), len(groups))
	}
	for i, g := range groups {
		a := want[g]
		if rows.Int(i, 0) != g || rows.Int(i, 1) != a.n {
			t.Fatalf("group %d: %+v vs %+v", g, rows.Data[i], a)
		}
		if d := rows.Float(i, 2) - a.sum; d > 1e-9 || d < -1e-9 {
			t.Fatalf("group %d sum: %v vs %v", g, rows.Float(i, 2), a.sum)
		}
		if rows.Float(i, 3) != a.min || rows.Float(i, 4) != a.max {
			t.Fatalf("group %d min/max: %+v", g, rows.Data[i])
		}
	}
}

// TestIndexScanEquivalence verifies that an indexed equality query returns
// identical results to the same query on an unindexed copy of the data.
func TestIndexScanEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ctx := context.Background()
	indexed, ref := buildPropDB(t, rng, 50)
	plain := New()
	plain.MustCreateTable(TableSpec{
		Name: "rows",
		Columns: []Column{
			{Name: "id", Type: TypeInt, AutoIncrement: true},
			{Name: "name", Type: TypeString},
			{Name: "grp", Type: TypeInt},
			{Name: "score", Type: TypeFloat},
		},
	})
	for _, r := range ref {
		if _, err := plain.Exec(ctx, "INSERT INTO rows (name, grp, score) VALUES (?, ?, ?)", r.name, r.group, r.score); err != nil {
			t.Fatal(err)
		}
	}
	for g := int64(0); g < 8; g++ {
		q := "SELECT id, name FROM rows WHERE grp = ? ORDER BY id ASC"
		a, err := indexed.Query(ctx, q, g)
		if err != nil {
			t.Fatal(err)
		}
		b, err := plain.Query(ctx, q, g)
		if err != nil {
			t.Fatal(err)
		}
		if a.Len() != b.Len() {
			t.Fatalf("grp %d: %d vs %d rows", g, a.Len(), b.Len())
		}
		for i := range a.Data {
			if a.Int(i, 0) != b.Int(i, 0) || a.Str(i, 1) != b.Str(i, 1) {
				t.Fatalf("grp %d row %d: %+v vs %+v", g, i, a.Data[i], b.Data[i])
			}
		}
	}
}

// TestCompareProperties checks ordering laws with testing/quick.
func TestCompareProperties(t *testing.T) {
	antisym := func(a, b int64) bool {
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(antisym, nil); err != nil {
		t.Error(err)
	}
	reflexive := func(a float64) bool {
		return Compare(a, a) == 0
	}
	if err := quick.Check(reflexive, nil); err != nil {
		t.Error(err)
	}
	stringsOrdered := func(a, b string) bool {
		c := Compare(a, b)
		switch {
		case a < b:
			return c == -1
		case a > b:
			return c == 1
		default:
			return c == 0
		}
	}
	if err := quick.Check(stringsOrdered, nil); err != nil {
		t.Error(err)
	}
	crossNumeric := func(a int64, b float64) bool {
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(crossNumeric, nil); err != nil {
		t.Error(err)
	}
}

// TestKeyStringInjective checks distinct values of the same type yield
// distinct keys.
func TestKeyStringInjective(t *testing.T) {
	ints := func(a, b int64) bool {
		if a == b {
			return KeyString(a) == KeyString(b)
		}
		return KeyString(a) != KeyString(b)
	}
	if err := quick.Check(ints, nil); err != nil {
		t.Error(err)
	}
	strs := func(a, b string) bool {
		if a == b {
			return KeyString(a) == KeyString(b)
		}
		return KeyString(a) != KeyString(b)
	}
	if err := quick.Check(strs, nil); err != nil {
		t.Error(err)
	}
}

// TestRandomMutationsKeepIndexConsistent applies a random workload of
// inserts (some reusing deleted slots), updates of index keys and of order
// columns, and deletes to plain and ordered indexes. After every statement
// each bucket must hold exactly the live rows with its key, an ordered one
// sorted by (order value, row id); at the end every indexed query must
// agree with a full-scan query.
func TestRandomMutationsKeepIndexConsistent(t *testing.T) {
	for _, indexed := range [][]string{{"grp"}, {"grp,name"}, {"grp,id", "name,grp"}} {
		t.Run(strings.Join(indexed, "+"), func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			db, _ := buildPropDB(t, rng, 40, indexed...)
			ctx := context.Background()
			name := func() any {
				if rng.Intn(8) == 0 {
					return nil
				}
				return fmt.Sprintf("name-%d", rng.Intn(20))
			}
			for i := 0; i < 400; i++ {
				var err error
				switch rng.Intn(5) {
				case 0:
					_, err = db.Exec(ctx, "INSERT INTO rows (name, grp, score) VALUES (?, ?, ?)", name(), rng.Intn(8), float64(rng.Intn(100)))
				case 1:
					_, err = db.Exec(ctx, "UPDATE rows SET grp = ? WHERE id = ?", rng.Intn(8), rng.Intn(80)+1)
				case 2:
					_, err = db.Exec(ctx, "UPDATE rows SET name = ?, grp = ? WHERE id = ?", name(), rng.Intn(8), rng.Intn(80)+1)
				case 3:
					_, err = db.Exec(ctx, "UPDATE rows SET name = ? WHERE grp = ?", name(), rng.Intn(8))
				default:
					_, err = db.Exec(ctx, "DELETE FROM rows WHERE id = ?", rng.Intn(80)+1)
				}
				if err != nil {
					t.Fatal(err)
				}
				checkIndexes(t, db, "rows")
			}
			for g := 0; g < 8; g++ {
				// The engine probes the index for `grp = ?`; OR-ing a false
				// constant defeats the probe and forces a scan without
				// changing the result.
				idxRows, err := db.Query(ctx, "SELECT id FROM rows WHERE grp = ? ORDER BY id ASC", g)
				if err != nil {
					t.Fatal(err)
				}
				scanRows, err := db.Query(ctx, "SELECT id FROM rows WHERE (grp = ? OR 1 = 0) ORDER BY id ASC", g)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(idxRows.Data, scanRows.Data) {
					t.Fatalf("grp %d: index %v, scan %v", g, idxRows.Data, scanRows.Data)
				}
			}
		})
	}
}

// checkIndexes checks every index of the named table: its buckets together
// hold each live row with a key exactly once, under that key, and an
// ordered index keeps each bucket sorted by (order value, row id).
func checkIndexes(t *testing.T, db *DB, name string) {
	t.Helper()
	tbl, err := db.lookupTable(name)
	if err != nil {
		t.Fatal(err)
	}
	tbl.mu.RLock()
	defer tbl.mu.RUnlock()
	for _, ix := range tbl.indexes {
		seen := map[int]bool{}
		check := func(key Value, ids []int) {
			for i, id := range ids {
				row := tbl.rows[id]
				if row == nil || seen[id] || Compare(row[ix.col], key) != 0 {
					t.Fatalf("index on column %d: bucket %v holds row %d %v twice, deleted or misfiled", ix.col, key, id, row)
				}
				seen[id] = true
				if ix.order < 0 || i == 0 {
					continue
				}
				prev := ids[i-1]
				if c := Compare(tbl.rows[prev][ix.order], row[ix.order]); c > 0 || c == 0 && prev > id {
					t.Fatalf("index on column %d by %d: bucket %v has row %d %v before row %d %v", ix.col, ix.order, key, prev, tbl.rows[prev], id, row)
				}
			}
		}
		for k, ids := range ix.ints {
			check(k, ids)
		}
		for k, ids := range ix.floats {
			check(k, ids)
		}
		for k, ids := range ix.strs {
			check(k, ids)
		}
		for id, row := range tbl.rows {
			if row != nil && row[ix.col] != nil && !seen[id] {
				t.Fatalf("index on column %d: live row %d %v is in no bucket", ix.col, id, row)
			}
		}
	}
}

// propSeed returns the seed of a randomized test: fixed so failures
// reproduce; override with AWC_PROP_SEED to explore.
func propSeed(t *testing.T) int64 {
	t.Helper()
	if s := os.Getenv("AWC_PROP_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad AWC_PROP_SEED %q: %v", s, err)
		}
		return v
	}
	return 0x5EED0
}

// buildSortDB creates two joinable tables whose sort columns repeat a
// handful of values (and hold some NULLs), so most ORDER BY lists leave
// ties that only arrival order settles.
func buildSortDB(t *testing.T, rng *rand.Rand) *DB {
	t.Helper()
	db := New()
	db.MustCreateTable(TableSpec{Name: "a", Columns: []Column{
		{Name: "id", Type: TypeInt, AutoIncrement: true},
		{Name: "g", Type: TypeInt},
		{Name: "k1", Type: TypeInt},
		{Name: "k2", Type: TypeString},
		{Name: "v", Type: TypeFloat},
	}})
	db.MustCreateTable(TableSpec{Name: "b", Columns: []Column{
		{Name: "id", Type: TypeInt, AutoIncrement: true},
		{Name: "a_id", Type: TypeInt},
		{Name: "w", Type: TypeInt},
	}, Indexed: []string{"a_id"}})
	ctx := context.Background()
	const rowsA = 120
	for i := 0; i < rowsA; i++ {
		var k1 any = rng.Intn(4)
		if rng.Intn(10) == 0 {
			k1 = nil
		}
		if _, err := db.Exec(ctx, "INSERT INTO a (g, k1, k2, v) VALUES (?, ?, ?, ?)",
			rng.Intn(10), k1, string(rune('x'+rng.Intn(3))), float64(rng.Intn(5))/2); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*rowsA; i++ {
		if _, err := db.Exec(ctx, "INSERT INTO b (a_id, w) VALUES (?, ?)", 1+rng.Intn(rowsA+10), rng.Intn(3)); err != nil {
			t.Fatal(err)
		}
	}
	// c has a's shape under ordered indexes. Its order keys repeat and
	// hold NULLs, and updates, deletes and reused slots leave its buckets
	// in an order that is neither insertion nor id order.
	db.MustCreateTable(TableSpec{Name: "c", Columns: []Column{
		{Name: "id", Type: TypeInt, AutoIncrement: true},
		{Name: "g", Type: TypeInt},
		{Name: "k1", Type: TypeInt},
		{Name: "k2", Type: TypeString},
		{Name: "v", Type: TypeFloat},
	}, Indexed: []string{"g,k1", "k2,id"}})
	k1 := func() any {
		if rng.Intn(10) == 0 {
			return nil
		}
		return rng.Intn(6)
	}
	insertC := func() {
		if _, err := db.Exec(ctx, "INSERT INTO c (g, k1, k2, v) VALUES (?, ?, ?, ?)",
			rng.Intn(3), k1(), string(rune('x'+rng.Intn(3))), float64(rng.Intn(5))/2); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < rowsA; i++ {
		insertC()
	}
	for i := 0; i < rowsA; i++ {
		id := 1 + rng.Intn(rowsA)
		var err error
		switch rng.Intn(3) {
		case 0:
			_, err = db.Exec(ctx, "UPDATE c SET k1 = ? WHERE id = ?", k1(), id)
		case 1:
			_, err = db.Exec(ctx, "UPDATE c SET g = ? WHERE id = ?", rng.Intn(3), id)
		default:
			_, err = db.Exec(ctx, "DELETE FROM c WHERE id = ?", id)
			insertC()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestOrderLimitMatchesFullSort checks that `… LIMIT k OFFSET o` returns
// exactly rows [o:o+k] of the same statement without LIMIT, over random
// ASC/DESC key lists with many ties: plain, aliased, non-selected and
// qualified keys, joins, grouping with aggregate keys, HAVING, DISTINCT and
// IN probes (lists and subqueries, on the first and on a joined table),
// including k = 0 and offsets past the end. Table c's probes walk ordered
// buckets, which top-k leaves early when the first key is the bucket's
// order, including through an inner join that drops rows and past an
// alias that names the order column but reads another.
func TestOrderLimitMatchesFullSort(t *testing.T) {
	seed := propSeed(t)
	t.Logf("seed %d (override with AWC_PROP_SEED)", seed)
	rng := rand.New(rand.NewSource(seed))
	db := buildSortDB(t, rng)
	ctx := context.Background()
	statements := []struct {
		sql  string
		args []any
		keys []string // ORDER BY candidates
	}{
		{"SELECT id, k1, k2 AS label FROM a WHERE g < ?", []any{7},
			[]string{"k1", "label", "v", "a.k2", "g", "k1 + g"}},
		{"SELECT a.id, b.id AS bid, b.w, a.k1 FROM a JOIN b ON b.a_id = a.id", nil,
			[]string{"b.w", "a.k1", "a.v", "bid", "a.k2"}},
		{"SELECT * FROM a LEFT JOIN b ON b.a_id = a.id WHERE a.g >= ?", []any{2},
			[]string{"b.w", "a.k1", "a.k2", "b.id"}},
		{"SELECT k1, COUNT(*) AS n, SUM(v) AS total, MAX(k2) FROM a GROUP BY k1", nil,
			[]string{"n", "total", "COUNT(*)", "MAX(k2)", "k1", "MIN(v)"}},
		{"SELECT g, COUNT(b.id) AS nb, SUM(a.v) FROM a LEFT JOIN b ON b.a_id = a.id GROUP BY g HAVING COUNT(*) > ?", []any{22},
			[]string{"nb", "g", "SUM(a.v)", "COUNT(*)"}},
		{"SELECT DISTINCT k1, k2 FROM a", nil,
			[]string{"k1", "k2"}},
		// IN probes: on the first table (list and subquery), and on a
		// joined table, where each outer row probes again.
		{"SELECT b.id, b.w, a.k1, a.k2 FROM b JOIN a ON a.id = b.a_id WHERE b.a_id IN (?, ?, ?)", []any{5, nil, 17},
			[]string{"b.w", "a.k1", "a.k2", "b.id"}},
		{"SELECT id, k1, k2, g FROM a WHERE id IN (SELECT a_id FROM b WHERE w = ?)", []any{1},
			[]string{"k1", "k2", "g", "v", "id"}},
		{"SELECT b.id AS bid, b.w, a.k1 FROM b JOIN a ON a.id = b.a_id WHERE b.a_id IN (SELECT id FROM a WHERE g < ?)", []any{5},
			[]string{"b.w", "a.k1", "a.k2", "bid"}},
		{"SELECT a.id, b.id AS bid, b.w FROM a JOIN b ON b.a_id IN (?, ?, ?) AND b.w = a.k1 WHERE a.g < ?", []any{3, 8, 8, 6},
			[]string{"b.w", "a.k2", "bid", "a.id"}},
		// Ordered buckets: (g, k1) and (k2, id).
		{"SELECT id, k1, k2, v FROM c WHERE g = ?", []any{1},
			[]string{"k1", "c.k1", "id", "k2", "v"}},
		{"SELECT c.id, c.k1, b.w FROM c JOIN b ON b.a_id = c.id AND b.w > ? WHERE c.g = ?", []any{0, 2},
			[]string{"c.k1", "b.w", "c.id"}},
		{"SELECT id AS n, k1 AS id, g FROM c WHERE k2 = ?", []any{"y"},
			[]string{"id", "n", "c.id", "g"}},
	}
	for iter := 0; iter < 400; iter++ {
		st := statements[rng.Intn(len(statements))]
		var order []string
		for n, i := range rng.Perm(len(st.keys))[:1+rng.Intn(min(3, len(st.keys)))] {
			// The first key is DESC three times in four: that is when
			// top-k visits the first table last to first.
			dir := " ASC"
			if rng.Intn(2) == 0 || n == 0 && rng.Intn(2) == 0 {
				dir = " DESC"
			}
			order = append(order, st.keys[i]+dir)
		}
		sql := st.sql + " ORDER BY " + strings.Join(order, ", ")
		full, err := db.Query(ctx, sql, st.args...)
		if err != nil {
			t.Fatalf("iter %d: %q: %v", iter, sql, err)
		}
		n := full.Len()
		k, o := rng.Intn(n+3), rng.Intn(n+3)
		if rng.Intn(8) == 0 {
			k = 0
		}
		limited := sql + fmt.Sprintf(" LIMIT %d OFFSET %d", k, o)
		args := st.args
		switch rng.Intn(3) {
		case 0:
			limited = sql + " LIMIT ? OFFSET ?"
			args = append(append([]any{}, st.args...), k, o)
		case 1:
			limited = sql + fmt.Sprintf(" LIMIT %d, %d", o, k)
		}
		got, err := db.Query(ctx, limited, args...)
		if err != nil {
			t.Fatalf("iter %d: %q: %v", iter, limited, err)
		}
		lo := min(o, n)
		want := full.Data[lo:min(lo+k, n)]
		if !reflect.DeepEqual(got.Columns, full.Columns) || len(got.Data) != len(want) ||
			(len(want) > 0 && !reflect.DeepEqual(got.Data, want)) {
			t.Fatalf("iter %d: %q args=%v\n got %v %v\nwant %v %v", iter, limited, args, got.Columns, got.Data, full.Columns, want)
		}
	}
}

// TestLimitVisitsSameRows pins the row-visit accounting SetRowCost charges
// for scans and plain hash indexes: a LIMIT changes which rows are
// returned, not which rows are visited. (A probe of an ordered index stops
// early; TestOrderedProbeVisitsBoundedRows pins that.)
func TestLimitVisitsSameRows(t *testing.T) {
	db := buildSortDB(t, rand.New(rand.NewSource(3)))
	ctx := context.Background()
	const sql = "SELECT a.id, b.w FROM a JOIN b ON b.a_id = a.id WHERE a.g < ? ORDER BY b.w DESC, a.k2 ASC"
	visit := func(q string, args ...any) Stats {
		t.Helper()
		before := db.Stats()
		rows, err := db.Query(ctx, q, args...)
		if err != nil {
			t.Fatal(err)
		}
		if rows.Len() == 0 {
			t.Fatalf("%q returned no rows", q)
		}
		after := db.Stats()
		return Stats{
			Queries:     after.Queries - before.Queries,
			Execs:       after.Execs - before.Execs,
			RowsScanned: after.RowsScanned - before.RowsScanned,
		}
	}
	full := visit(sql, 8)
	limited := visit(sql+" LIMIT 5", 8)
	if full.RowsScanned <= 5 {
		t.Fatalf("full query visited only %d rows", full.RowsScanned)
	}
	if limited != full || full.Queries != 1 || full.Execs != 0 {
		t.Fatalf("LIMIT 5 counted %+v, without LIMIT %+v", limited, full)
	}
}
