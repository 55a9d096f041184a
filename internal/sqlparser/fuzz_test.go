package sqlparser

import (
	"reflect"
	"testing"
)

// FuzzParse checks two robustness properties on arbitrary input: the parser
// never panics, and anything it accepts round-trips through its canonical
// rendering to an equal AST. Run with `go test -fuzz=FuzzParse` for
// continuous fuzzing; the seed corpus runs as a normal test.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"SELECT",
		"SELECT * FROM t",
		"SELECT a, b FROM t WHERE c = ? AND d < 5 ORDER BY a DESC LIMIT 10",
		"SELECT COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2",
		"SELECT t.a FROM t JOIN s ON t.id = s.tid LEFT JOIN u ON u.id = s.uid",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')",
		"UPDATE t SET a = a + 1, b = ? WHERE c IN (1, 2, 3)",
		"DELETE FROM t WHERE a BETWEEN ? AND ?",
		"SELECT a FROM t WHERE b LIKE '%x\\%y_' AND c IS NOT NULL",
		"SELECT 'it''s' FROM t",
		"SELECT `weird name` FROM `table`",
		"SELECT a FROM t WHERE b = 'unterminated",
		"SELECT a FROM t WHERE b = -1.5e3",
		"SELECT ((a)) FROM t WHERE NOT (b = 1 OR c = 2)",
		"select a from t where b = 0x12",
		"\x00\x01\x02",
		"SELECT a FROM t; DROP TABLE t",
		"SELECT a FROM t LIMIT 5, 10",
		// JOIN / aggregate / IN-subquery grammar, matching the analyzable
		// handler shapes, and the DDL the datasource bootstrap issues.
		"SELECT id, name FROM categories WHERE id IN (SELECT category FROM items WHERE seller IN (SELECT id FROM users WHERE region = ?)) ORDER BY id ASC",
		"SELECT category, COUNT(id) AS n, SUM(qty) AS q, AVG(price) AS p FROM items WHERE seller IN (SELECT id FROM users WHERE region = ?) GROUP BY category HAVING SUM(qty) > ? ORDER BY n DESC",
		"SELECT i.i_id, a.a_lname FROM item i JOIN author a ON i.i_a_id = a.a_id WHERE i.i_id IN (SELECT ol_i_id FROM order_line WHERE ol_o_id = ?) AND i.i_id <> ?",
		"SELECT a FROM t WHERE b IN (SELECT c FROM s WHERE d IN (SELECT e FROM u))",
		"UPDATE t SET a = 1 WHERE id IN (SELECT tid FROM s)",
		"DELETE FROM t WHERE a IN (SELECT b FROM s WHERE c = ?)",
		"CREATE TABLE IF NOT EXISTS awc_meta (k TEXT, v TEXT)",
		"CREATE TABLE t (id INTEGER PRIMARY KEY AUTO_INCREMENT, name TEXT, price REAL)",
		"CREATE INDEX IF NOT EXISTS idx_t_name ON t (name)",
		"CREATE INDEX IF NOT EXISTS idx_t_grp_name ON t (grp, name)",
		"SELECT a FROM t WHERE b IN (SELECT",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := Parse(sql) // must not panic
		if err != nil {
			return
		}
		text := stmt.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("canonical form of %q does not reparse: %q: %v", sql, text, err)
		}
		renumberAll(stmt)
		renumberAll(again)
		if !reflect.DeepEqual(stmt, again) {
			t.Fatalf("round trip changed the AST for %q (canonical %q)", sql, text)
		}
		if text2 := again.String(); text2 != text {
			t.Fatalf("canonical form unstable: %q vs %q", text, text2)
		}
	})
}

func renumberAll(s Statement) {
	n := 0
	StatementExprs(s, func(e Expr) {
		WalkExprs(e, func(x Expr) bool {
			if p, ok := x.(*Placeholder); ok {
				p.Index = n
				n++
			}
			return true
		})
	})
}
