package analysis_test

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
	"autowebcache/internal/datasource"
	_ "autowebcache/internal/datasource/sqlite"
	"autowebcache/internal/memdb"
)

// countingConn wraps a datasource connection and counts every call the
// analysis or the cache could make on it: queries, writes and schema
// reports, per method.
type countingConn struct {
	datasource.Conn
	mu    sync.Mutex
	calls map[string]int
}

func newCountingConn(c datasource.Conn) *countingConn {
	return &countingConn{Conn: c, calls: map[string]int{}}
}

func (c *countingConn) count(method string) {
	c.mu.Lock()
	c.calls[method]++
	c.mu.Unlock()
}

// total returns the calls so far and resets the counts.
func (c *countingConn) total() (n int, by map[string]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range c.calls {
		n += k
	}
	by, c.calls = c.calls, map[string]int{}
	return n, by
}

func (c *countingConn) Query(ctx context.Context, sql string, args ...any) (*datasource.Rows, error) {
	c.count("Query")
	return c.Conn.Query(ctx, sql, args...)
}

func (c *countingConn) Exec(ctx context.Context, sql string, args ...any) (datasource.Result, error) {
	c.count("Exec")
	return c.Conn.Exec(ctx, sql, args...)
}

func (c *countingConn) ColumnNames(table string) ([]string, error) {
	c.count("ColumnNames")
	return c.Conn.(datasource.SchemaReporter).ColumnNames(table)
}

func (c *countingConn) AutoIncrementColumn(table string) (string, bool) {
	c.count("AutoIncrementColumn")
	return c.Conn.(datasource.SchemaReporter).AutoIncrementColumn(table)
}

func insertCapture(table string, id int64) analysis.WriteCapture {
	return analysis.WriteCapture{
		Query:  analysis.Query{SQL: "INSERT INTO " + table + " (cat, name) VALUES (?, ?)", Args: []memdb.Value{int64(1), "x"}},
		AutoID: id, HasAutoID: true,
	}
}

// TestAutoIncrementColumnMemoised: PrepareWrite asks the schema for a
// table's auto-increment column once, however many INSERTs it prepares; a
// table the schema does not know yet is asked again, and once CREATE TABLE
// has made it known, it is memoised in turn.
func TestAutoIncrementColumnMemoised(t *testing.T) {
	ctx := context.Background()
	cc := newCountingConn(memdb.New())
	create := func(table string) {
		t.Helper()
		if _, err := cc.Exec(ctx, "CREATE TABLE "+table+" (id INTEGER PRIMARY KEY AUTO_INCREMENT, cat INTEGER, name TEXT)"); err != nil {
			t.Fatal(err)
		}
	}
	create("items")
	eng, err := analysis.NewEngine(analysis.StrategyWhereMatch, cc)
	if err != nil {
		t.Fatal(err)
	}
	cc.total()
	prepare := func(table string, times int) int {
		t.Helper()
		for i := 1; i <= times; i++ {
			if _, err := eng.PrepareWrite(insertCapture(table, int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		_, by := cc.total()
		return by["AutoIncrementColumn"]
	}
	if n := prepare("items", 5); n != 1 {
		t.Errorf("5 INSERTs into items asked AutoIncrementColumn %d times, want 1", n)
	}
	if n := prepare("later", 2); n != 2 {
		t.Errorf("2 INSERTs into an unknown table asked %d times, want 2 (a no is not memoised)", n)
	}
	create("later")
	cc.total()
	if n := prepare("later", 3); n != 1 {
		t.Errorf("3 INSERTs into a table created since asked %d times, want 1", n)
	}
}

// TestSweepAsksNoDatasource: with the engine's schema a shared-file sqlite:
// database, the cache's write sweep — INSERTs with their fresh keys and
// UPDATEs with their pre-write rows — makes no call on the datasource once
// the first INSERT has taught the engine the table's key.
func TestSweepAsksNoDatasource(t *testing.T) {
	ctx := context.Background()
	raw, err := datasource.Open("sqlite:" + filepath.Join(t.TempDir(), "db"))
	if err != nil {
		t.Fatal(err)
	}
	cc := newCountingConn(raw)
	if _, err := cc.Exec(ctx, "CREATE TABLE items (id INTEGER PRIMARY KEY AUTO_INCREMENT, cat INTEGER, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := cc.Exec(ctx, "INSERT INTO items (cat, name) VALUES (?, ?)", i%2, "seed"); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := analysis.NewEngine(analysis.StrategyExtraQuery, cc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Options{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	const read = "SELECT name FROM items WHERE cat = ?"
	populate := func() {
		for cat := int64(0); cat < 2; cat++ {
			c.Insert(fmt.Sprintf("/cat?%d", cat), []byte("p"), "text/html",
				[]analysis.Query{{SQL: read, Args: []memdb.Value{cat}}}, 0)
		}
	}
	update, err := eng.CaptureWrite(ctx, cc, analysis.Query{
		SQL: "UPDATE items SET name = ? WHERE cat = ?", Args: []memdb.Value{"y", int64(0)}})
	if err != nil || update.Affected == nil {
		t.Fatalf("capturing the UPDATE: %v (affected %v)", err, update.Affected)
	}
	populate()
	cc.total()
	if _, err := c.InvalidateWrite(insertCapture("items", 5)); err != nil {
		t.Fatal(err)
	}
	if n, by := cc.total(); n > 1 || n != by["AutoIncrementColumn"] {
		t.Fatalf("the first INSERT sweep made %v datasource calls, want at most the one key question", by)
	}
	for i := int64(6); i < 12; i++ {
		populate()
		if removed, err := c.InvalidateWrite(insertCapture("items", i), update); err != nil || removed != 2 {
			t.Fatalf("sweep %d removed %d pages, err %v; want 2", i, removed, err)
		}
	}
	if n, by := cc.total(); n != 0 {
		t.Fatalf("sweeps made datasource calls: %v", by)
	}
}

// TestSweepSkipsExcludedTemplate: registering a user — an INSERT whose
// fresh key no existing bid can reference — is tested against a cached
// bid-history template once, not once per cached page, so the engine's
// exoneration count stays flat however many such pages the cache holds.
func TestSweepSkipsExcludedTemplate(t *testing.T) {
	const (
		history  = "SELECT bids.qty, bids.bid, bids.date, users.nickname FROM bids JOIN users ON bids.user_id = users.id WHERE bids.item_id = ? ORDER BY bids.date DESC, bids.id DESC LIMIT ?"
		register = "INSERT INTO users (nickname, region) VALUES (?, ?)"
	)
	db := memdb.New()
	db.MustCreateTable(memdb.TableSpec{Name: "users", Columns: []memdb.Column{
		{Name: "id", Type: memdb.TypeInt, AutoIncrement: true},
		{Name: "nickname", Type: memdb.TypeString},
		{Name: "region", Type: memdb.TypeInt},
	}})
	db.MustCreateTable(memdb.TableSpec{Name: "bids", Columns: []memdb.Column{
		{Name: "id", Type: memdb.TypeInt, AutoIncrement: true},
		{Name: "user_id", Type: memdb.TypeInt},
		{Name: "item_id", Type: memdb.TypeInt},
		{Name: "qty", Type: memdb.TypeInt},
		{Name: "bid", Type: memdb.TypeFloat},
		{Name: "date", Type: memdb.TypeString},
	}})
	for _, strategy := range []analysis.Strategy{analysis.StrategyWhereMatch, analysis.StrategyExtraQuery} {
		eng, err := analysis.NewEngine(strategy, db)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cache.New(cache.Options{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		exonerated := func(pages int) uint64 {
			t.Helper()
			for item := int64(0); item < int64(pages); item++ {
				c.Insert(fmt.Sprintf("/viewBids?itemId=%d", item), []byte("p"), "text/html",
					[]analysis.Query{{SQL: history, Args: []memdb.Value{item, int64(25)}}}, 0)
			}
			before := eng.Stats().Exonerations
			removed, err := c.InvalidateWrite(analysis.WriteCapture{
				Query:  analysis.Query{SQL: register, Args: []memdb.Value{"new", int64(1)}},
				AutoID: int64(1000 + pages), HasAutoID: true,
			})
			if err != nil || removed != 0 {
				t.Fatalf("%v: registering a user removed %d pages, err %v; want 0", strategy, removed, err)
			}
			return eng.Stats().Exonerations - before
		}
		few, many := exonerated(4), exonerated(400)
		if many != few {
			t.Errorf("%v: a user registration exonerated %d instances with 4 history pages cached, %d with 400", strategy, few, many)
		}
	}
}
