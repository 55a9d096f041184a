// Fragment-granular (ESI-style) caching: one personalised region no longer
// makes a whole page uncacheable. A product page is decomposed into an
// ordered template of cacheable fragments — each with its own cache key,
// vary dimensions and dependency set — plus an uncacheable hole for the
// "signed in as" banner. Different users then SHARE every fragment and only
// the hole regenerates, while a write still invalidates exactly the
// fragment whose queries it intersects.
//
// Run with: go run ./examples/fragments
package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"

	"autowebcache"
)

func main() {
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
		if err := db.CreateTable(spec); err != nil {
			log.Fatal(err)
		}
	}
	ctx := context.Background()
	if _, err := db.Exec(ctx, "INSERT INTO products (name, price) VALUES (?, ?)", "widget", 42); err != nil {
		log.Fatal(err)
	}
	if _, err := db.Exec(ctx, "INSERT INTO reviews (product_id, text) VALUES (?, ?)", 1, "great"); err != nil {
		log.Fatal(err)
	}

	rt, err := autowebcache.New(db, autowebcache.Config{})
	if err != nil {
		log.Fatal(err)
	}
	conn := rt.Conn()

	// The page template: [details fragment][greeting hole][reviews fragment].
	// The fragments vary by the product id only — the user parameter is NOT
	// part of their keys — so every signed-in user shares them.
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
		fmt.Fprintf(w, "<ul>")
		for i := 0; i < rows.Len(); i++ {
			fmt.Fprintf(w, "<li>%s</li>", rows.Str(i, 0))
		}
		fmt.Fprintf(w, "</ul>")
	}}

	handlers := []autowebcache.HandlerInfo{
		{Name: "Product", Path: "/product",
			Fragments: []autowebcache.Segment{details, greeting, reviews}},
		{Name: "Review", Path: "/review", Write: true, Fn: func(w http.ResponseWriter, r *http.Request) {
			if _, err := conn.Exec(r.Context(),
				"INSERT INTO reviews (product_id, text) VALUES (?, ?)",
				1, r.URL.Query().Get("text")); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			fmt.Fprintln(w, "thanks")
		}},
	}
	h, err := rt.Weave(handlers, autowebcache.Rules{Fragments: true})
	if err != nil {
		log.Fatal(err)
	}

	show := func(target string) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, target, nil))
		fmt.Printf("%-34s -> %-12s fragments=%-4s cached-bytes=%-4s %s\n",
			target,
			rr.Header().Get("X-Autowebcache"),
			rr.Header().Get("X-Autowebcache-Fragments"),
			rr.Header().Get("X-Autowebcache-Cached-Bytes"),
			rr.Body.String())
	}

	show("/product?id=1&user=alice") // miss: every fragment generated + cached
	show("/product?id=1&user=bob")   // fragment-hit: bob shares alice's fragments
	show("/review?text=solid")       // write: invalidates ONLY the reviews fragment
	show("/product?id=1&user=carol") // assembled: details from cache, reviews regenerated
	show("/product?id=1&user=dave")  // fragment-hit again

	st := rt.Cache().Snapshot()
	fmt.Printf("\ncache: %d entries, %d hits, %d inserts, %d invalidations\n",
		st.Entries, st.Hits, st.Inserts, st.Invalidations)
}
