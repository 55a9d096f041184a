package autowebcache_test

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"time"

	"autowebcache"
)

// Example adds AutoWebCache to a tiny guestbook. The handlers contain no
// caching code: the cache is woven around them, and a write invalidates
// exactly the pages it affects.
func Example() {
	// A database with one table.
	db := autowebcache.NewDB()
	check(db.CreateTable(autowebcache.TableSpec{
		Name: "entries",
		Columns: []autowebcache.Column{
			{Name: "id", Type: autowebcache.TypeInt, AutoIncrement: true},
			{Name: "author", Type: autowebcache.TypeString},
			{Name: "message", Type: autowebcache.TypeString},
		},
		Indexed: []string{"author"},
	}))

	// A runtime: analysis engine, page cache and the recording connection
	// the handlers query through.
	rt, err := autowebcache.New(db, autowebcache.Config{Strategy: autowebcache.ExtraQuery})
	check(err)
	defer rt.Close()
	conn := rt.Conn()

	// Ordinary handlers, no caching code anywhere.
	handlers := []autowebcache.HandlerInfo{
		{Name: "Guestbook", Path: "/guestbook", Fn: func(w http.ResponseWriter, r *http.Request) {
			author := r.URL.Query().Get("author")
			rows, err := conn.Query(r.Context(),
				"SELECT id, message FROM entries WHERE author = ? ORDER BY id ASC", author)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			fmt.Fprintf(w, "Messages from %s:\n", author)
			for i := 0; i < rows.Len(); i++ {
				fmt.Fprintf(w, "  %d. %s\n", rows.Int(i, 0), rows.Str(i, 1))
			}
		}},
		{Name: "Sign", Path: "/sign", Write: true, Fn: func(w http.ResponseWriter, r *http.Request) {
			q := r.URL.Query()
			if _, err := conn.Exec(r.Context(), "INSERT INTO entries (author, message) VALUES (?, ?)",
				q.Get("author"), q.Get("message")); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			fmt.Fprintln(w, "signed!")
		}},
	}

	// Weave the caching aspect around the handlers.
	app, err := rt.Weave(handlers, autowebcache.Rules{})
	check(err)

	show := func(what, target string) {
		_, outcome := fetch(app, target)
		fmt.Printf("%-29s %s\n", what+":", outcome)
	}
	fetch(app, "/sign?author=ada&message=hello")
	show("ada's page, first view", "/guestbook?author=ada")
	show("ada's page, second view", "/guestbook?author=ada")
	show("bob's page, first view", "/guestbook?author=bob")
	// The write touches only ada's rows: her page is invalidated, bob's
	// survives (the AC-extraQuery precision).
	fetch(app, "/sign?author=ada&message=again")
	show("ada's page after her write", "/guestbook?author=ada")
	show("bob's page after ada's write", "/guestbook?author=bob")

	st := rt.Cache().Snapshot()
	fmt.Printf("hits=%d misses=%d invalidations=%d\n", st.Hits, st.Misses, st.Invalidations)
	// Output:
	// ada's page, first view:       miss
	// ada's page, second view:      hit
	// bob's page, first view:       miss
	// ada's page after her write:   miss
	// bob's page after ada's write: hit
	// hits=2 misses=3 invalidations=1
}

// ExampleRules_semantic contrasts strong consistency, AutoWebCache's
// default, with a semantic window, the time-lagged consistency of the TTL
// caches the paper's §8 discusses. Both read handlers render the same
// rows. After a write the strong page regenerates at once, while the
// lagged page serves the old rows until its window ends.
func ExampleRules_semantic() {
	rt, err := autowebcache.New(stockDB("anvil"), autowebcache.Config{})
	check(err)
	defer rt.Close()
	handlers := stockHandlers(rt.Conn())
	handlers = append(handlers, autowebcache.HandlerInfo{
		Name: "LaggedStock", Path: "/lagged-stock", Fn: handlers[0].Fn,
	})
	const window = 500 * time.Millisecond
	app, err := rt.Weave(handlers, autowebcache.Rules{
		Semantic: map[string]time.Duration{"LaggedStock": window},
	})
	check(err)

	show := func(target string) {
		body, outcome := fetch(app, target)
		fmt.Printf("%-30s %-12s %s", target, outcome, body)
	}
	fetch(app, "/stock?product=anvil")
	fetch(app, "/lagged-stock?product=anvil")
	show("/restock?product=anvil&units=3")
	show("/stock?product=anvil")
	show("/lagged-stock?product=anvil")
	time.Sleep(window + 100*time.Millisecond)
	show("/lagged-stock?product=anvil")
	// Output:
	// /restock?product=anvil&units=3 write        ok
	// /stock?product=anvil           miss         anvil: 3 units
	// /lagged-stock?product=anvil    semantic-hit anvil: 10 units
	// /lagged-stock?product=anvil    miss         anvil: 3 units
}

// ExampleRules_fragments caches a product page fragment by fragment, in
// the manner of ESI, so one personalised region no longer makes the whole
// page uncacheable. The page is a template of two cacheable fragments,
// each with its own key and dependencies, around an uncacheable "signed in
// as" hole. Different users share every fragment and only the hole runs
// for each, while a write invalidates exactly the fragment whose query it
// intersects.
func ExampleRules_fragments() {
	db := autowebcache.NewDB()
	for _, spec := range []autowebcache.TableSpec{
		{Name: "products", Columns: []autowebcache.Column{
			{Name: "id", Type: autowebcache.TypeInt, AutoIncrement: true},
			{Name: "name", Type: autowebcache.TypeString},
			{Name: "price", Type: autowebcache.TypeInt},
		}},
		{Name: "reviews", Columns: []autowebcache.Column{
			{Name: "id", Type: autowebcache.TypeInt, AutoIncrement: true},
			{Name: "product_id", Type: autowebcache.TypeInt},
			{Name: "text", Type: autowebcache.TypeString},
		}, Indexed: []string{"product_id"}},
	} {
		check(db.CreateTable(spec))
	}
	ctx := context.Background()
	_, err := db.Exec(ctx, "INSERT INTO products (name, price) VALUES (?, ?)", "widget", 42)
	check(err)
	_, err = db.Exec(ctx, "INSERT INTO reviews (product_id, text) VALUES (?, ?)", 1, "great")
	check(err)

	rt, err := autowebcache.New(db, autowebcache.Config{})
	check(err)
	defer rt.Close()
	conn := rt.Conn()

	// The fragments vary by the product id only: the user parameter is not
	// part of their keys, so every signed-in user shares them.
	details := autowebcache.Segment{ID: "details", Vary: []string{"id"}, Gen: func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseInt(r.URL.Query().Get("id"), 10, 64)
		rows, err := conn.Query(r.Context(), "SELECT name, price FROM products WHERE id = ?", id)
		if err != nil || rows.Len() == 0 {
			http.Error(w, "no such product", http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, "<h1>%s</h1><p>price %d</p>", rows.Str(0, 0), rows.Int(0, 1))
	}}
	greeting := autowebcache.Segment{Gen: func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "<p>signed in as %s</p>", r.URL.Query().Get("user"))
	}}
	reviews := autowebcache.Segment{ID: "reviews", Vary: []string{"id"}, Gen: func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseInt(r.URL.Query().Get("id"), 10, 64)
		rows, err := conn.Query(r.Context(), "SELECT text FROM reviews WHERE product_id = ?", id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, "<ul>")
		for i := 0; i < rows.Len(); i++ {
			fmt.Fprintf(w, "<li>%s</li>", rows.Str(i, 0))
		}
		fmt.Fprint(w, "</ul>")
	}}

	handlers := []autowebcache.HandlerInfo{
		{Name: "Product", Path: "/product",
			Fragments: []autowebcache.Segment{details, greeting, reviews}},
		{Name: "Review", Path: "/review", Write: true, Fn: func(w http.ResponseWriter, r *http.Request) {
			if _, err := conn.Exec(r.Context(), "INSERT INTO reviews (product_id, text) VALUES (?, ?)",
				1, r.URL.Query().Get("text")); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			fmt.Fprintln(w, "thanks")
		}},
	}
	app, err := rt.Weave(handlers, autowebcache.Rules{Fragments: true})
	check(err)

	show := func(target string) {
		rr := httptest.NewRecorder()
		app.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, target, nil))
		fmt.Printf("%-12s %-4s %s\n", rr.Header().Get("X-Autowebcache"),
			rr.Header().Get("X-Autowebcache-Fragments"), rr.Body.String())
	}
	show("/product?id=1&user=alice") // every fragment generated and cached
	show("/product?id=1&user=bob")   // bob shares alice's fragments
	fetch(app, "/review?text=solid") // invalidates only the reviews fragment
	show("/product?id=1&user=carol") // details from the cache, reviews regenerated
	show("/product?id=1&user=dave")
	// Output:
	// miss         0/2  <h1>widget</h1><p>price 42</p><p>signed in as alice</p><ul><li>great</li></ul>
	// fragment-hit 2/2  <h1>widget</h1><p>price 42</p><p>signed in as bob</p><ul><li>great</li></ul>
	// assembled    1/2  <h1>widget</h1><p>price 42</p><p>signed in as carol</p><ul><li>great</li><li>solid</li></ul>
	// fragment-hit 2/2  <h1>widget</h1><p>price 42</p><p>signed in as dave</p><ul><li>great</li><li>solid</li></ul>
}

// ExampleRuntime_Cluster joins three nodes over one shared database into
// one logical cache: a consistent-hash ring assigns each page an owner, a
// miss is resolved at the owner, and a write on any node invalidates the
// page on every node before its response is released. The nodes run in
// one process but talk over loopback TCP, as three machines would. Which
// node owns the page depends on the ports the nodes draw, so the example
// prints only what holds for every owner.
func ExampleRuntime_Cluster() {
	db := stockDB("anvil")
	var generated atomic.Int64 // handler runs, cluster-wide
	var apps []*autowebcache.Woven
	var caches []*autowebcache.PageCache
	var peers []*autowebcache.ClusterNode
	for range 3 {
		rt, err := autowebcache.New(db, autowebcache.Config{})
		check(err)
		defer rt.Close()
		handlers := stockHandlers(rt.Conn())
		stock := handlers[0].Fn
		handlers[0].Fn = func(w http.ResponseWriter, r *http.Request) {
			generated.Add(1)
			stock(w, r)
		}
		app, err := rt.Weave(handlers, autowebcache.Rules{})
		check(err)
		peer, err := rt.Cluster(app, autowebcache.ClusterConfig{ListenPeer: "127.0.0.1:0"})
		check(err)
		defer peer.Close()
		apps, caches, peers = append(apps, app), append(caches, rt.Cache()), append(peers, peer)
	}
	for i, n := range peers {
		var others []string
		for j, m := range peers {
			if j != i {
				others = append(others, m.Addr())
			}
		}
		n.SetPeers(others)
	}

	const page = "/stock?product=anvil"
	a, b, c := apps[0], apps[1], apps[2]
	fetch(a, page)
	// Node B is served from its own cache if it owns the page and from
	// the owner's otherwise; either way the handler does not run again.
	_, outcome := fetch(b, page)
	fmt.Println("node B served from a cache:", outcome == "hit" || outcome == "remote-hit")
	fmt.Println("handler runs:", generated.Load())

	fetch(c, "/restock?product=anvil&units=3")
	held := 0
	for _, pc := range caches {
		if pc.Contains(page) {
			held++
		}
	}
	fmt.Println("nodes holding the page after node C's write:", held)
	body, _ := fetch(c, page)
	fmt.Print("next read: ", body)
	fmt.Println("handler runs:", generated.Load())
	// Output:
	// node B served from a cache: true
	// handler runs: 1
	// nodes holding the page after node C's write: 0
	// next read: anvil: 3 units
	// handler runs: 2
}

// stockDB creates a database whose stock table holds 10 units of each
// product.
func stockDB(products ...string) *autowebcache.DB {
	db := autowebcache.NewDB()
	check(db.CreateTable(autowebcache.TableSpec{
		Name: "stock",
		Columns: []autowebcache.Column{
			{Name: "id", Type: autowebcache.TypeInt, AutoIncrement: true},
			{Name: "product", Type: autowebcache.TypeString},
			{Name: "units", Type: autowebcache.TypeInt},
		},
	}))
	for _, p := range products {
		_, err := db.Exec(context.Background(), "INSERT INTO stock (product, units) VALUES (?, ?)", p, 10)
		check(err)
	}
	return db
}

// stockHandlers are a shop's two interactions over stockDB's table: Stock
// reads one product's units and Restock sets them.
func stockHandlers(conn autowebcache.Conn) []autowebcache.HandlerInfo {
	return []autowebcache.HandlerInfo{
		{Name: "Stock", Path: "/stock", Fn: func(w http.ResponseWriter, r *http.Request) {
			product := r.URL.Query().Get("product")
			rows, err := conn.Query(r.Context(), "SELECT units FROM stock WHERE product = ?", product)
			if err != nil || rows.Len() == 0 {
				http.Error(w, "no such product", http.StatusNotFound)
				return
			}
			fmt.Fprintf(w, "%s: %d units\n", product, rows.Int(0, 0))
		}},
		{Name: "Restock", Path: "/restock", Write: true, Fn: func(w http.ResponseWriter, r *http.Request) {
			q := r.URL.Query()
			if _, err := conn.Exec(r.Context(), "UPDATE stock SET units = ? WHERE product = ?",
				q.Get("units"), q.Get("product")); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			fmt.Fprintln(w, "ok")
		}},
	}
}

// fetch serves one GET in-process and returns the body and the outcome
// the weave reports in the X-Autowebcache header.
func fetch(h http.Handler, target string) (body, outcome string) {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, target, nil))
	return rr.Body.String(), rr.Header().Get("X-Autowebcache")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
