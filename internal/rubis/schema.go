// Package rubis is a Go port of the RUBiS auction-site benchmark [1] used
// in the paper's evaluation: an eBay-like application with 26 web
// interactions over a 7-table database — selling, browsing, bidding, buying
// and commenting. Handlers issue SQL through a memdb.Conn, so the weave
// package can capture their queries exactly as the paper's aspects capture
// JDBC calls.
//
// [1] Amza et al., "Specification and Implementation of Dynamic Web Site
// Benchmarks", WWC-5, 2002. http://rubis.objectweb.org
package rubis

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"

	"autowebcache/internal/datasource"
	"autowebcache/internal/memdb"
)

// Scale sizes the generated dataset. The paper fixes the database size and
// varies client load; these defaults keep a full experiment run fast while
// preserving the relative cost structure (searches scan, views probe).
type Scale struct {
	Regions         int
	Categories      int
	Users           int
	Items           int
	BidsPerItem     int
	CommentsPerUser int
	BuyNows         int
	Seed            int64
}

// DefaultScale is the dataset used by the experiments.
func DefaultScale() Scale {
	return Scale{
		Regions:         10,
		Categories:      20,
		Users:           200,
		Items:           600,
		BidsPerItem:     4,
		CommentsPerUser: 2,
		BuyNows:         100,
		Seed:            1,
	}
}

// Tables returns the RUBiS schema.
func Tables() []memdb.TableSpec {
	return []memdb.TableSpec{
		{
			Name: "regions",
			Columns: []memdb.Column{
				{Name: "id", Type: memdb.TypeInt, AutoIncrement: true},
				{Name: "name", Type: memdb.TypeString},
			},
		},
		{
			Name: "categories",
			Columns: []memdb.Column{
				{Name: "id", Type: memdb.TypeInt, AutoIncrement: true},
				{Name: "name", Type: memdb.TypeString},
			},
		},
		{
			Name: "users",
			Columns: []memdb.Column{
				{Name: "id", Type: memdb.TypeInt, AutoIncrement: true},
				{Name: "firstname", Type: memdb.TypeString},
				{Name: "lastname", Type: memdb.TypeString},
				{Name: "nickname", Type: memdb.TypeString},
				{Name: "password", Type: memdb.TypeString},
				{Name: "email", Type: memdb.TypeString},
				{Name: "rating", Type: memdb.TypeInt},
				{Name: "balance", Type: memdb.TypeFloat},
				{Name: "creation_date", Type: memdb.TypeInt},
				{Name: "region", Type: memdb.TypeInt},
			},
			Indexed: []string{"region", "nickname"},
		},
		{
			Name: "items",
			Columns: []memdb.Column{
				{Name: "id", Type: memdb.TypeInt, AutoIncrement: true},
				{Name: "name", Type: memdb.TypeString},
				{Name: "description", Type: memdb.TypeString},
				{Name: "quantity", Type: memdb.TypeInt},
				{Name: "initial_price", Type: memdb.TypeFloat},
				{Name: "reserve_price", Type: memdb.TypeFloat},
				{Name: "buy_now", Type: memdb.TypeFloat},
				{Name: "nb_of_bids", Type: memdb.TypeInt},
				{Name: "max_bid", Type: memdb.TypeFloat},
				{Name: "start_date", Type: memdb.TypeInt},
				{Name: "end_date", Type: memdb.TypeInt},
				{Name: "seller", Type: memdb.TypeInt},
				{Name: "category", Type: memdb.TypeInt},
			},
			Indexed: []string{"seller,end_date", "category,end_date"},
		},
		{
			Name: "bids",
			Columns: []memdb.Column{
				{Name: "id", Type: memdb.TypeInt, AutoIncrement: true},
				{Name: "user_id", Type: memdb.TypeInt},
				{Name: "item_id", Type: memdb.TypeInt},
				{Name: "qty", Type: memdb.TypeInt},
				{Name: "bid", Type: memdb.TypeFloat},
				{Name: "max_bid", Type: memdb.TypeFloat},
				{Name: "date", Type: memdb.TypeInt},
			},
			Indexed: []string{"user_id,date", "item_id,date"},
		},
		{
			Name: "comments",
			Columns: []memdb.Column{
				{Name: "id", Type: memdb.TypeInt, AutoIncrement: true},
				{Name: "from_user_id", Type: memdb.TypeInt},
				{Name: "to_user_id", Type: memdb.TypeInt},
				{Name: "item_id", Type: memdb.TypeInt},
				{Name: "rating", Type: memdb.TypeInt},
				{Name: "date", Type: memdb.TypeInt},
				{Name: "comment", Type: memdb.TypeString},
			},
			Indexed: []string{"to_user_id,date", "from_user_id"},
		},
		{
			Name: "buy_now",
			Columns: []memdb.Column{
				{Name: "id", Type: memdb.TypeInt, AutoIncrement: true},
				{Name: "buyer_id", Type: memdb.TypeInt},
				{Name: "item_id", Type: memdb.TypeInt},
				{Name: "qty", Type: memdb.TypeInt},
				{Name: "date", Type: memdb.TypeInt},
			},
			Indexed: []string{"buyer_id,date", "item_id"},
		},
	}
}

// baseDate is the synthetic epoch the generator assigns to the oldest rows.
const baseDate = 1_000_000

// Load creates the RUBiS schema in db and populates it with a deterministic
// dataset of the given scale. It returns the highest date assigned, which
// the application uses to continue the virtual clock.
func Load(db *memdb.DB, s Scale) (lastDate int64, err error) {
	return Seed(context.Background(), db, s)
}

// metaKey marks a seeded RUBiS dataset in the shared awc_meta table; its
// value records the last generated date.
const metaKey = "rubis_last_date"

// Seed creates the RUBiS schema on any datasource backend and populates it
// with the deterministic dataset of the given scale, returning the highest
// date assigned. It is idempotent — a marker row in the awc_meta table
// records a completed seeding, and re-seeding returns the recorded date
// without touching data — and when conn implements
// datasource.Bootstrapper the whole operation runs under the driver's
// bootstrap lock, so N cluster nodes racing to seed one shared database
// seed it exactly once.
func Seed(ctx context.Context, conn datasource.Conn, s Scale) (lastDate int64, err error) {
	if s.Regions <= 0 || s.Categories <= 0 || s.Users <= 0 || s.Items <= 0 {
		return 0, fmt.Errorf("rubis: scale must be positive: %+v", s)
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

	for i := 1; i <= s.Regions; i++ {
		if _, err := db.Exec(ctx, "INSERT INTO regions (name) VALUES (?)", fmt.Sprintf("Region-%d", i)); err != nil {
			return 0, err
		}
	}
	for i := 1; i <= s.Categories; i++ {
		if _, err := db.Exec(ctx, "INSERT INTO categories (name) VALUES (?)", fmt.Sprintf("Category-%d", i)); err != nil {
			return 0, err
		}
	}
	for i := 1; i <= s.Users; i++ {
		if _, err := db.Exec(ctx,
			"INSERT INTO users (firstname, lastname, nickname, password, email, rating, balance, creation_date, region) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
			fmt.Sprintf("First%d", i), fmt.Sprintf("Last%d", i), fmt.Sprintf("user%d", i),
			fmt.Sprintf("pw%d", i), fmt.Sprintf("user%d@example.org", i),
			rng.Intn(10), float64(rng.Intn(1000)), next(), 1+rng.Intn(s.Regions)); err != nil {
			return 0, err
		}
	}
	for i := 1; i <= s.Items; i++ {
		initial := float64(1 + rng.Intn(100))
		if _, err := db.Exec(ctx,
			"INSERT INTO items (name, description, quantity, initial_price, reserve_price, buy_now, nb_of_bids, max_bid, start_date, end_date, seller, category) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
			fmt.Sprintf("Item-%d", i), descriptionFor(rng, i), 1+rng.Intn(10),
			initial, initial*1.2, initial*2,
			0, 0.0, next(), date+100000,
			1+rng.Intn(s.Users), 1+rng.Intn(s.Categories)); err != nil {
			return 0, err
		}
	}
	// Bids reference existing items and users; keep items.nb_of_bids and
	// max_bid consistent with the bids table.
	for item := 1; item <= s.Items; item++ {
		n := rng.Intn(s.BidsPerItem + 1)
		maxBid := 0.0
		for b := 0; b < n; b++ {
			bid := float64(1 + rng.Intn(200))
			if bid > maxBid {
				maxBid = bid
			}
			if _, err := db.Exec(ctx,
				"INSERT INTO bids (user_id, item_id, qty, bid, max_bid, date) VALUES (?, ?, ?, ?, ?, ?)",
				1+rng.Intn(s.Users), item, 1, bid, bid, next()); err != nil {
				return 0, err
			}
		}
		if n > 0 {
			if _, err := db.Exec(ctx, "UPDATE items SET nb_of_bids = ?, max_bid = ? WHERE id = ?", n, maxBid, item); err != nil {
				return 0, err
			}
		}
	}
	for u := 1; u <= s.Users; u++ {
		for k := 0; k < s.CommentsPerUser; k++ {
			if _, err := db.Exec(ctx,
				"INSERT INTO comments (from_user_id, to_user_id, item_id, rating, date, comment) VALUES (?, ?, ?, ?, ?, ?)",
				1+rng.Intn(s.Users), u, 1+rng.Intn(s.Items), rng.Intn(6), next(),
				fmt.Sprintf("Comment %d about user %d", k, u)); err != nil {
				return 0, err
			}
		}
	}
	for i := 0; i < s.BuyNows; i++ {
		if _, err := db.Exec(ctx,
			"INSERT INTO buy_now (buyer_id, item_id, qty, date) VALUES (?, ?, ?, ?)",
			1+rng.Intn(s.Users), 1+rng.Intn(s.Items), 1, next()); err != nil {
			return 0, err
		}
	}
	if _, err := db.Exec(ctx, "INSERT INTO awc_meta (k, v) VALUES (?, ?)",
		metaKey, strconv.FormatInt(date, 10)); err != nil {
		return 0, err
	}
	return date, nil
}

func descriptionFor(rng *rand.Rand, i int) string {
	words := []string{"vintage", "rare", "mint", "boxed", "classic", "signed", "limited", "restored"}
	return fmt.Sprintf("%s %s collectible number %d",
		words[rng.Intn(len(words))], words[rng.Intn(len(words))], i)
}
