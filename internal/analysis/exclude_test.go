package analysis

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"autowebcache/internal/datasource"
)

// excludeReads and excludeWrites are the templates the ExcludesTemplate
// property is checked over: point, range, IN, OR and NOT predicates, joins
// on a fresh key, subqueries and reads without a WHERE, against INSERTs
// with and without a learned key, UPDATEs and DELETEs.
var excludeReads = []string{
	"SELECT a FROM t WHERE b = ?",
	"SELECT a FROM t WHERE b = ? AND c = ?",
	"SELECT a FROM t WHERE id = ?",
	"SELECT a FROM t WHERE b > ? AND b < ?",
	"SELECT a FROM t WHERE b = ? OR a = ?",
	"SELECT a FROM t WHERE NOT (b = ?)",
	"SELECT a FROM t WHERE b IN (?, ?, 3)",
	"SELECT a FROM t WHERE b = 2",
	"SELECT a FROM t WHERE a = 1 AND b = ?",
	"SELECT t.a, s.d FROM t JOIN s ON t.id = s.tid WHERE s.d > ?",
	"SELECT s.d, u.e FROM s JOIN u ON s.tid = u.id WHERE s.id = ?",
	"SELECT t.c, u.e FROM t JOIN u ON t.a = u.id WHERE t.b = ? ORDER BY t.c ASC LIMIT ?",
	"SELECT u.e FROM u WHERE u.e = ?",
	"SELECT a FROM t WHERE id IN (SELECT tid FROM s WHERE d = ?)",
	"SELECT COUNT(id) FROM t WHERE c = ?",
	"SELECT a FROM t",
}

var excludeWrites = []string{
	"INSERT INTO t (a, b, c) VALUES (?, ?, ?)",
	"INSERT INTO t (a, b, c) VALUES (1, ?, 'x')",
	"INSERT INTO s (tid, d) VALUES (?, ?)",
	"INSERT INTO u (e) VALUES (?)",
	"UPDATE t SET a = ? WHERE b = ?",
	"UPDATE t SET c = ? WHERE id = ?",
	"UPDATE t SET b = b + 1 WHERE a = ?",
	"UPDATE s SET d = ? WHERE tid = ?",
	"DELETE FROM t WHERE b = ?",
	"DELETE FROM u WHERE id = ?",
}

// excludeCols are the fuzz schema's columns, for captured pre-write rows.
var excludeCols = map[string][]string{
	"t": {"id", "a", "b", "c"},
	"s": {"id", "tid", "d"},
	"u": {"id", "e"},
}

// randValue draws from a small domain, so random reads and writes often
// bind the same values.
func randValue(rng *rand.Rand) datasource.Value {
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return 1.5
	case 2:
		return []string{"x", "y", "2"}[rng.Intn(3)]
	default:
		return int64(rng.Intn(5))
	}
}

func randArgs(rng *rand.Rand, sql string) []datasource.Value {
	args := make([]datasource.Value, strings.Count(sql, "?"))
	for i := range args {
		args[i] = randValue(rng)
	}
	return args
}

// randCapture builds a capture of a random write: random arguments, a
// learned key for some INSERTs, and captured pre-write rows (none, zero or
// a few) for some UPDATEs and DELETEs.
func randCapture(rng *rand.Rand, sql string) WriteCapture {
	w := WriteCapture{Query: Query{SQL: sql, Args: randArgs(rng, sql)}}
	if strings.HasPrefix(sql, "INSERT") {
		if rng.Intn(2) == 0 {
			w.AutoID, w.HasAutoID = int64(rng.Intn(5)), true
		}
		return w
	}
	if rng.Intn(3) == 0 {
		return w
	}
	table := strings.Fields(sql)[1]
	if table == "FROM" {
		table = strings.Fields(sql)[2]
	}
	rows := &datasource.Rows{Columns: excludeCols[table]}
	for n := rng.Intn(3); n > 0; n-- {
		row := make([]datasource.Value, len(rows.Columns))
		for i := range row {
			row[i] = randValue(rng)
		}
		rows.Data = append(rows.Data, row)
	}
	w.Affected = rows
	return w
}

// TestExcludesTemplateImpliesNoIntersection: whenever ExcludesTemplate
// rules a read template out for a write, Intersects is false for that
// write and every instance of the template — random arguments, under all
// three strategies — so the sweep may skip the instances unseen. Like the
// sweep, it asks only about possibly dependent templates; the run must
// exclude some under the value-aware strategies, or it proves nothing.
func TestExcludesTemplateImpliesNoIntersection(t *testing.T) {
	schema := fuzzSchema()
	for _, strategy := range []Strategy{StrategyColumnOnly, StrategyWhereMatch, StrategyExtraQuery} {
		t.Run(strategy.String(), func(t *testing.T) {
			e, err := NewEngine(strategy, schema)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(strategy)))
			valueLevel := 0
			for trial := 0; trial < 3000; trial++ {
				read := excludeReads[rng.Intn(len(excludeReads))]
				w := randCapture(rng, excludeWrites[rng.Intn(len(excludeWrites))])
				pw, err := e.PrepareWrite(w)
				if err != nil {
					t.Fatalf("PrepareWrite(%s): %v", w.SQL, err)
				}
				// The sweep asks only about possibly dependent templates.
				if dep, err := e.PossiblyDependent(read, w.SQL); err != nil || !dep {
					continue
				}
				excluded, err := pw.ExcludesTemplate(read)
				if err != nil {
					t.Fatalf("ExcludesTemplate(%s, %s): %v", read, w.SQL, err)
				}
				if !excluded {
					continue
				}
				valueLevel++
				for k := 0; k < 20; k++ {
					q := Query{SQL: read, Args: randArgs(rng, read)}
					if hit, err := pw.Intersects(q); err != nil || hit {
						t.Fatalf("%s with %v excluded %q, but intersects it with args %v (err %v)",
							w.SQL, fmt.Sprint(w.Args, w.Affected, w.AutoID, w.HasAutoID), read, q.Args, err)
					}
				}
			}
			if strategy != StrategyColumnOnly && valueLevel == 0 {
				t.Fatal("no possibly dependent template was excluded: the property was not exercised")
			}
			t.Logf("%d value-level exclusions", valueLevel)
		})
	}
}
