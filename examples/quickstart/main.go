// Quickstart: add AutoWebCache to a tiny guestbook application in ~100
// lines. The handlers contain no caching code at all — the cache is woven
// around them, and writes invalidate exactly the pages they affect.
package main

import (
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"

	"autowebcache"
)

func main() {
	// 1. A database with one table.
	db := autowebcache.NewDB()
	if err := db.CreateTable(autowebcache.TableSpec{
		Name: "entries",
		Columns: []autowebcache.Column{
			{Name: "id", Type: autowebcache.TypeInt, AutoIncrement: true},
			{Name: "author", Type: autowebcache.TypeString},
			{Name: "message", Type: autowebcache.TypeString},
		},
		Indexed: []string{"author"},
	}); err != nil {
		log.Fatal(err)
	}

	// 2. A runtime: analysis engine + page cache + recording connection.
	rt, err := autowebcache.New(db, autowebcache.Config{Strategy: autowebcache.ExtraQuery})
	if err != nil {
		log.Fatal(err)
	}
	conn := rt.Conn() // handlers query through this

	// 3. Ordinary handlers, no caching code anywhere.
	handlers := []autowebcache.HandlerInfo{
		{
			Name: "Guestbook", Path: "/guestbook",
			Fn: func(w http.ResponseWriter, r *http.Request) {
				author := r.URL.Query().Get("author")
				rows, err := conn.Query(r.Context(),
					"SELECT id, message FROM entries WHERE author = ? ORDER BY id ASC", author)
				if err != nil {
					http.Error(w, err.Error(), 500)
					return
				}
				fmt.Fprintf(w, "Messages from %s:\n", author)
				for i := 0; i < rows.Len(); i++ {
					fmt.Fprintf(w, "  %d. %s\n", rows.Int(i, 0), rows.Str(i, 1))
				}
			},
		},
		{
			Name: "Sign", Path: "/sign", Write: true,
			Fn: func(w http.ResponseWriter, r *http.Request) {
				q := r.URL.Query()
				if _, err := conn.Exec(r.Context(),
					"INSERT INTO entries (author, message) VALUES (?, ?)",
					q.Get("author"), q.Get("message")); err != nil {
					http.Error(w, err.Error(), 500)
					return
				}
				fmt.Fprintln(w, "signed!")
			},
		},
	}

	// 4. Weave the caching aspect around the handlers.
	app, err := rt.Weave(handlers, autowebcache.Rules{})
	if err != nil {
		log.Fatal(err)
	}

	// Drive it in-process to show what happens.
	get := func(target string) string {
		rr := httptest.NewRecorder()
		app.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, target, nil))
		return rr.Header().Get("X-Autowebcache")
	}
	get("/sign?author=ada&message=hello")
	fmt.Println("first view of ada's page:  ", get("/guestbook?author=ada")) // miss
	fmt.Println("second view of ada's page: ", get("/guestbook?author=ada")) // hit
	fmt.Println("first view of bob's page:  ", get("/guestbook?author=bob")) // miss
	get("/sign?author=ada&message=again")
	// The write touched only ada's rows: her page is invalidated, bob's
	// page survives (the AC-extraQuery precision).
	fmt.Println("ada's page after her write:", get("/guestbook?author=ada"))   // miss
	fmt.Println("bob's page after ada's write:", get("/guestbook?author=bob")) // hit
	fmt.Printf("cache stats: %+v\n", rt.Cache().Snapshot())
}
