package tpcw

import (
	"net/http"

	"autowebcache/internal/servlet"
)

// Fragment decompositions for the mixed TPC-W pages. The flagship case is
// Home: the paper must mark the whole interaction uncacheable because of
// its random advertisement banner (§4.3 hidden state) — with fragments the
// banner becomes a hole and everything else caches, recovering the page's
// shareable majority. BestSellers keeps its semantic freshness window, now
// scoped to the fragment that actually aggregates sales.

// adHole renders the random advertisement banner — hidden state that must
// regenerate on every request, which is exactly what a hole is.
func (a *App) adHole() servlet.Segment {
	return servlet.Segment{Gen: func(w http.ResponseWriter, r *http.Request) {
		p := servlet.NewPartial()
		p.Text("Advertisement banner #%d", a.adBanner())
		p.WriteFragment(w)
	}}
}

// homeSegments decomposes Home: static shell, uncacheable ad hole, a
// per-customer welcome fragment and the promotions list (whose subject the
// benchmark derives from the customer id).
func (a *App) homeSegments() []servlet.Segment {
	head := servlet.Segment{ID: "head", Gen: func(w http.ResponseWriter, r *http.Request) {
		servlet.NewPage("TPC-W — Home").WriteFragment(w)
	}}
	welcome := servlet.Segment{ID: "welcome", Vary: []string{"c_id"}, Gen: func(w http.ResponseWriter, r *http.Request) {
		custID := servlet.ParamInt(r, "c_id", 0)
		if custID <= 0 {
			return
		}
		cust, err := a.conn.Query(r.Context(),
			"SELECT c_fname, c_lname FROM customer WHERE c_id = ?", custID)
		if err != nil {
			servlet.ServerError(w, err)
			return
		}
		if cust.Len() == 0 {
			return
		}
		p := servlet.NewPartial()
		p.Text("Welcome back, %s %s.", cust.Str(0, 0), cust.Str(0, 1))
		p.WriteFragment(w)
	}}
	promos := servlet.Segment{ID: "promos", Vary: []string{"c_id"}, Gen: func(w http.ResponseWriter, r *http.Request) {
		custID := servlet.ParamInt(r, "c_id", 0)
		promos, err := a.conn.Query(r.Context(),
			"SELECT i_id, i_title, i_cost FROM item WHERE i_subject = ? ORDER BY i_pub_date DESC, i_id ASC LIMIT ?",
			Subjects[int(custID)%len(Subjects)], 5)
		if err != nil {
			servlet.ServerError(w, err)
			return
		}
		p := servlet.NewPartial()
		p.H2("Promotions")
		p.Table([]string{"Id", "Title", "Cost"}, promos)
		p.WriteFragment(w)
	}}
	return []servlet.Segment{head, a.adHole(), welcome, promos, servlet.TailSegment()}
}

// newProductsSegments decomposes NewProducts: one expensive join fragment
// varying by subject.
func (a *App) newProductsSegments() []servlet.Segment {
	list := servlet.Segment{ID: "list", Vary: []string{"subject"}, Gen: func(w http.ResponseWriter, r *http.Request) {
		subject := servlet.Param(r, "subject")
		if subject == "" {
			subject = Subjects[0]
		}
		rows, err := a.conn.Query(r.Context(),
			"SELECT item.i_id, item.i_title, author.a_fname, author.a_lname, item.i_pub_date, item.i_cost FROM item JOIN author ON item.i_a_id = author.a_id WHERE item.i_subject = ? ORDER BY item.i_pub_date DESC, item.i_id ASC LIMIT ?",
			subject, 50)
		if err != nil {
			servlet.ServerError(w, err)
			return
		}
		p := servlet.NewPage("TPC-W — New products in " + subject)
		p.Table([]string{"Id", "Title", "Author first", "Author last", "Published", "Cost"}, rows)
		p.WriteFragment(w)
	}}
	return []servlet.Segment{list, servlet.TailSegment()}
}

// bestSellersSegments decomposes BestSellers: the aggregation fragment
// varies by subject and inherits the interaction's semantic window (the
// paper's 30 s dirty-read allowance), now fragment-scoped.
func (a *App) bestSellersSegments() []servlet.Segment {
	list := servlet.Segment{ID: "list", Vary: []string{"subject"}, Gen: func(w http.ResponseWriter, r *http.Request) {
		subject := servlet.Param(r, "subject")
		if subject == "" {
			subject = Subjects[0]
		}
		rows, err := a.conn.Query(r.Context(),
			"SELECT item.i_id, item.i_title, author.a_fname, author.a_lname, SUM(order_line.ol_qty) AS total_sold FROM order_line JOIN item ON order_line.ol_i_id = item.i_id JOIN author ON item.i_a_id = author.a_id WHERE item.i_subject = ? GROUP BY item.i_id, item.i_title, author.a_fname, author.a_lname ORDER BY total_sold DESC, item.i_id ASC LIMIT ?",
			subject, 50)
		if err != nil {
			servlet.ServerError(w, err)
			return
		}
		p := servlet.NewPage("TPC-W — Best sellers in " + subject)
		p.Table([]string{"Id", "Title", "Author first", "Author last", "Sold"}, rows)
		p.WriteFragment(w)
	}}
	return []servlet.Segment{list, servlet.TailSegment()}
}

// productDetailSegments decomposes ProductDetail: the item sheet and the
// author credit are separate fragments varying by i_id — an author-table
// write regenerates the credit line without touching the item sheet.
func (a *App) productDetailSegments() []servlet.Segment {
	item := servlet.Segment{ID: "item", Vary: []string{"i_id"}, Gen: func(w http.ResponseWriter, r *http.Request) {
		itemID := servlet.ParamInt(r, "i_id", 0)
		item, err := a.conn.Query(r.Context(),
			"SELECT i_id, i_title, i_a_id, i_pub_date, i_subject, i_desc, i_cost, i_stock FROM item WHERE i_id = ?", itemID)
		if err != nil {
			servlet.ServerError(w, err)
			return
		}
		if item.Len() == 0 {
			servlet.ClientError(w, "no such item")
			return
		}
		p := servlet.NewPage("TPC-W — " + item.Str(0, 1))
		p.Table([]string{"Id", "Title", "Author id", "Published", "Subject", "Description", "Cost", "Stock"}, item)
		p.WriteFragment(w)
	}}
	author := servlet.Segment{ID: "author", Vary: []string{"i_id"}, Gen: func(w http.ResponseWriter, r *http.Request) {
		itemID := servlet.ParamInt(r, "i_id", 0)
		item, err := a.conn.Query(r.Context(), "SELECT i_a_id FROM item WHERE i_id = ?", itemID)
		if err != nil || item.Len() == 0 {
			return // the item fragment already reported the page-level error
		}
		author, err := a.conn.Query(r.Context(),
			"SELECT a_fname, a_lname FROM author WHERE a_id = ?", item.Int(0, 0))
		if err != nil {
			servlet.ServerError(w, err)
			return
		}
		if author.Len() == 0 {
			return
		}
		p := servlet.NewPartial()
		p.Text("By %s %s", author.Str(0, 0), author.Str(0, 1))
		p.WriteFragment(w)
	}}
	return []servlet.Segment{item, author, servlet.TailSegment()}
}
