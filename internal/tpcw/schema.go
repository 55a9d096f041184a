// Package tpcw is a Go port of the TPC-W online-bookstore benchmark used in
// the paper's evaluation (the University of Wisconsin Java implementation
// [18]): 14 web interactions over a 10-table database — browsing, searching,
// shopping carts and ordering.
//
// Two interactions (Home and SearchRequest) embed a random advertisement
// banner, the paper's example of hidden state (§4.3); the weaving rules mark
// them uncacheable. BestSellers is entitled to a 30-second dirty-read window
// (TPC-W v1.8 clauses 3.1.4.1 and 6.3.3.1), the paper's application-
// semantics optimisation (Fig. 15).
package tpcw

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"

	"autowebcache/internal/datasource"
	"autowebcache/internal/memdb"
)

// Subjects are the TPC-W book subject categories.
var Subjects = []string{
	"ARTS", "BIOGRAPHIES", "BUSINESS", "CHILDREN", "COMPUTERS", "COOKING",
	"HEALTH", "HISTORY", "HOME", "HUMOR", "LITERATURE", "MYSTERY",
	"NON-FICTION", "PARENTING", "POLITICS", "REFERENCE", "RELIGION",
	"ROMANCE", "SELF-HELP", "SCIENCE-NATURE", "SCIENCE-FICTION", "SPORTS",
	"YOUTH", "TRAVEL",
}

// Scale sizes the generated dataset.
type Scale struct {
	Items         int // books (TPC-W: 1k/10k/100k)
	Authors       int
	Customers     int
	Orders        int
	LinesPerOrder int
	Countries     int
	Seed          int64
}

// DefaultScale is the dataset used by the experiments.
func DefaultScale() Scale {
	return Scale{
		Items:         1000,
		Authors:       250,
		Customers:     300,
		Orders:        400,
		LinesPerOrder: 3,
		Countries:     20,
		Seed:          1,
	}
}

// Tables returns the TPC-W schema.
func Tables() []memdb.TableSpec {
	return []memdb.TableSpec{
		{
			Name: "country",
			Columns: []memdb.Column{
				{Name: "co_id", Type: memdb.TypeInt, AutoIncrement: true},
				{Name: "co_name", Type: memdb.TypeString},
				{Name: "co_currency", Type: memdb.TypeString},
			},
		},
		{
			Name: "address",
			Columns: []memdb.Column{
				{Name: "addr_id", Type: memdb.TypeInt, AutoIncrement: true},
				{Name: "addr_street", Type: memdb.TypeString},
				{Name: "addr_city", Type: memdb.TypeString},
				{Name: "addr_zip", Type: memdb.TypeString},
				{Name: "addr_co_id", Type: memdb.TypeInt},
			},
		},
		{
			Name: "author",
			Columns: []memdb.Column{
				{Name: "a_id", Type: memdb.TypeInt, AutoIncrement: true},
				{Name: "a_fname", Type: memdb.TypeString},
				{Name: "a_lname", Type: memdb.TypeString},
			},
		},
		{
			Name: "item",
			Columns: []memdb.Column{
				{Name: "i_id", Type: memdb.TypeInt, AutoIncrement: true},
				{Name: "i_title", Type: memdb.TypeString},
				{Name: "i_a_id", Type: memdb.TypeInt},
				{Name: "i_pub_date", Type: memdb.TypeInt},
				{Name: "i_subject", Type: memdb.TypeString},
				{Name: "i_desc", Type: memdb.TypeString},
				{Name: "i_cost", Type: memdb.TypeFloat},
				{Name: "i_stock", Type: memdb.TypeInt},
			},
			Indexed: []string{"i_subject,i_pub_date", "i_a_id"},
		},
		{
			Name: "customer",
			Columns: []memdb.Column{
				{Name: "c_id", Type: memdb.TypeInt, AutoIncrement: true},
				{Name: "c_uname", Type: memdb.TypeString},
				{Name: "c_fname", Type: memdb.TypeString},
				{Name: "c_lname", Type: memdb.TypeString},
				{Name: "c_since", Type: memdb.TypeInt},
				{Name: "c_discount", Type: memdb.TypeFloat},
				{Name: "c_addr_id", Type: memdb.TypeInt},
			},
			Indexed: []string{"c_uname"},
		},
		{
			Name: "orders",
			Columns: []memdb.Column{
				{Name: "o_id", Type: memdb.TypeInt, AutoIncrement: true},
				{Name: "o_c_id", Type: memdb.TypeInt},
				{Name: "o_date", Type: memdb.TypeInt},
				{Name: "o_total", Type: memdb.TypeFloat},
				{Name: "o_status", Type: memdb.TypeString},
			},
			Indexed: []string{"o_c_id,o_date"},
		},
		{
			Name: "order_line",
			Columns: []memdb.Column{
				{Name: "ol_id", Type: memdb.TypeInt, AutoIncrement: true},
				{Name: "ol_o_id", Type: memdb.TypeInt},
				{Name: "ol_i_id", Type: memdb.TypeInt},
				{Name: "ol_qty", Type: memdb.TypeInt},
			},
			Indexed: []string{"ol_o_id", "ol_i_id"},
		},
		{
			Name: "cc_xacts",
			Columns: []memdb.Column{
				{Name: "cx_id", Type: memdb.TypeInt, AutoIncrement: true},
				{Name: "cx_o_id", Type: memdb.TypeInt},
				{Name: "cx_type", Type: memdb.TypeString},
				{Name: "cx_amount", Type: memdb.TypeFloat},
				{Name: "cx_date", Type: memdb.TypeInt},
			},
			Indexed: []string{"cx_o_id"},
		},
		{
			Name: "shopping_cart",
			Columns: []memdb.Column{
				{Name: "sc_id", Type: memdb.TypeInt, AutoIncrement: true},
				{Name: "sc_date", Type: memdb.TypeInt},
			},
		},
		{
			Name: "shopping_cart_line",
			Columns: []memdb.Column{
				{Name: "scl_id", Type: memdb.TypeInt, AutoIncrement: true},
				{Name: "scl_sc_id", Type: memdb.TypeInt},
				{Name: "scl_i_id", Type: memdb.TypeInt},
				{Name: "scl_qty", Type: memdb.TypeInt},
			},
			Indexed: []string{"scl_sc_id"},
		},
	}
}

const baseDate = 2_000_000

// Load creates and populates the TPC-W schema. It returns the last assigned
// virtual date.
func Load(db *memdb.DB, s Scale) (lastDate int64, err error) {
	return Seed(context.Background(), db, s)
}

// metaKey marks a seeded TPC-W dataset in the shared awc_meta table; its
// value records the last generated date.
const metaKey = "tpcw_last_date"

// Seed creates the TPC-W schema on any datasource backend and populates it
// with the deterministic dataset of the given scale, returning the last
// assigned virtual date. Like rubis.Seed it is idempotent (marker row in
// awc_meta) and runs under the driver's bootstrap lock when conn implements
// datasource.Bootstrapper, so cluster nodes sharing one database seed it
// exactly once.
func Seed(ctx context.Context, conn datasource.Conn, s Scale) (lastDate int64, err error) {
	if s.Items <= 0 || s.Authors <= 0 || s.Customers <= 0 {
		return 0, fmt.Errorf("tpcw: scale must be positive: %+v", s)
	}
	run := func(c datasource.Conn) error {
		var err error
		lastDate, err = seedLocked(ctx, c, s)
		return err
	}
	if b, ok := conn.(datasource.Bootstrapper); ok {
		err = b.Bootstrap(ctx, run)
	} else {
		err = run(conn)
	}
	if err != nil {
		return 0, err
	}
	return lastDate, nil
}

// seedLocked bootstraps the schema and, unless a previous seeding left its
// marker, generates the dataset. The caller holds the bootstrap lock.
func seedLocked(ctx context.Context, db datasource.Conn, s Scale) (int64, error) {
	for _, spec := range Tables() {
		for _, ddl := range spec.DDL() {
			if _, err := db.Exec(ctx, ddl); err != nil {
				return 0, err
			}
		}
	}
	if _, err := db.Exec(ctx, "CREATE TABLE IF NOT EXISTS awc_meta (k TEXT, v TEXT)"); err != nil {
		return 0, err
	}
	seeded, err := db.Query(ctx, "SELECT v FROM awc_meta WHERE k = ?", metaKey)
	if err != nil {
		return 0, err
	}
	if seeded.Len() > 0 {
		return strconv.ParseInt(seeded.Str(0, 0), 10, 64)
	}
	rng := rand.New(rand.NewSource(s.Seed))
	date := int64(baseDate)
	next := func() int64 { date++; return date }

	for i := 1; i <= s.Countries; i++ {
		if _, err := db.Exec(ctx, "INSERT INTO country (co_name, co_currency) VALUES (?, ?)",
			fmt.Sprintf("Country-%d", i), "CUR"); err != nil {
			return 0, err
		}
	}
	for i := 1; i <= s.Authors; i++ {
		if _, err := db.Exec(ctx, "INSERT INTO author (a_fname, a_lname) VALUES (?, ?)",
			fmt.Sprintf("AFirst%d", i), fmt.Sprintf("ALast%d", i)); err != nil {
			return 0, err
		}
	}
	for i := 1; i <= s.Items; i++ {
		if _, err := db.Exec(ctx,
			"INSERT INTO item (i_title, i_a_id, i_pub_date, i_subject, i_desc, i_cost, i_stock) VALUES (?, ?, ?, ?, ?, ?, ?)",
			fmt.Sprintf("Book %d about %s", i, Subjects[i%len(Subjects)]),
			1+rng.Intn(s.Authors), next(), Subjects[rng.Intn(len(Subjects))],
			fmt.Sprintf("Description of book %d", i),
			float64(5+rng.Intn(95)), 10+rng.Intn(100)); err != nil {
			return 0, err
		}
	}
	for i := 1; i <= s.Customers; i++ {
		if _, err := db.Exec(ctx,
			"INSERT INTO address (addr_street, addr_city, addr_zip, addr_co_id) VALUES (?, ?, ?, ?)",
			fmt.Sprintf("%d Main St", i), "Springfield", fmt.Sprintf("%05d", i), 1+rng.Intn(s.Countries)); err != nil {
			return 0, err
		}
		if _, err := db.Exec(ctx,
			"INSERT INTO customer (c_uname, c_fname, c_lname, c_since, c_discount, c_addr_id) VALUES (?, ?, ?, ?, ?, ?)",
			fmt.Sprintf("cust%d", i), fmt.Sprintf("CFirst%d", i), fmt.Sprintf("CLast%d", i),
			next(), float64(rng.Intn(5)), int64(i)); err != nil {
			return 0, err
		}
	}
	for o := 1; o <= s.Orders; o++ {
		total := 0.0
		lines := 1 + rng.Intn(s.LinesPerOrder)
		res, err := db.Exec(ctx,
			"INSERT INTO orders (o_c_id, o_date, o_total, o_status) VALUES (?, ?, ?, ?)",
			1+rng.Intn(s.Customers), next(), 0.0, "SHIPPED")
		if err != nil {
			return 0, err
		}
		for l := 0; l < lines; l++ {
			item := 1 + rng.Intn(s.Items)
			qty := 1 + rng.Intn(4)
			total += float64(qty) * 10
			if _, err := db.Exec(ctx,
				"INSERT INTO order_line (ol_o_id, ol_i_id, ol_qty) VALUES (?, ?, ?)",
				res.LastInsertID, item, qty); err != nil {
				return 0, err
			}
		}
		if _, err := db.Exec(ctx, "UPDATE orders SET o_total = ? WHERE o_id = ?", total, res.LastInsertID); err != nil {
			return 0, err
		}
		if _, err := db.Exec(ctx,
			"INSERT INTO cc_xacts (cx_o_id, cx_type, cx_amount, cx_date) VALUES (?, ?, ?, ?)",
			res.LastInsertID, "VISA", total, next()); err != nil {
			return 0, err
		}
	}
	if _, err := db.Exec(ctx, "INSERT INTO awc_meta (k, v) VALUES (?, ?)",
		metaKey, strconv.FormatInt(date, 10)); err != nil {
		return 0, err
	}
	return date, nil
}
