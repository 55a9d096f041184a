package tpcw

import (
	"fmt"
	"net/http"

	"autowebcache/internal/servlet"
)

// home, newProducts, bestSellers and productDetail live in fragments.go as
// segment decompositions (fragment-granular caching); their monolithic
// forms are the in-order composition of their segments. Home's random ad
// banner — the §4.3 hidden state that forces the whole-page Uncacheable
// rule — is a hole there.

// searchRequest renders the search form. Like Home it carries a random ad
// banner and is therefore uncacheable.
func (a *App) searchRequest(w http.ResponseWriter, r *http.Request) {
	p := servlet.NewPage("TPC-W — Search")
	p.Text("Advertisement banner #%d", a.adBanner())
	p.Text("Search by author, title or subject via /executeSearch.")
	p.WriteHTML(w)
}

func (a *App) executeSearch(w http.ResponseWriter, r *http.Request) {
	kind := servlet.Param(r, "type")
	term := servlet.Param(r, "search")
	p := servlet.NewPage(fmt.Sprintf("TPC-W — Search results for %q (%s)", term, kind))
	switch kind {
	case "author":
		rows, err := a.conn.Query(r.Context(),
			"SELECT item.i_id, item.i_title, author.a_fname, author.a_lname, item.i_cost FROM item JOIN author ON item.i_a_id = author.a_id WHERE author.a_lname LIKE ? ORDER BY item.i_id ASC LIMIT ?",
			"%"+term+"%", 50)
		if err != nil {
			servlet.ServerError(w, err)
			return
		}
		p.Table([]string{"Id", "Title", "Author first", "Author last", "Cost"}, rows)
	case "subject":
		rows, err := a.conn.Query(r.Context(),
			"SELECT i_id, i_title, i_cost FROM item WHERE i_subject = ? ORDER BY i_id ASC LIMIT ?",
			term, 50)
		if err != nil {
			servlet.ServerError(w, err)
			return
		}
		p.Table([]string{"Id", "Title", "Cost"}, rows)
	default: // title
		rows, err := a.conn.Query(r.Context(),
			"SELECT i_id, i_title, i_cost FROM item WHERE i_title LIKE ? ORDER BY i_id ASC LIMIT ?",
			"%"+term+"%", 50)
		if err != nil {
			servlet.ServerError(w, err)
			return
		}
		p.Table([]string{"Id", "Title", "Cost"}, rows)
	}
	p.WriteHTML(w)
}

func (a *App) orderInquiry(w http.ResponseWriter, r *http.Request) {
	p := servlet.NewPage("TPC-W — Order inquiry")
	p.Text("Enter your username and password to display your last order.")
	p.WriteHTML(w)
}

func (a *App) orderDisplay(w http.ResponseWriter, r *http.Request) {
	custID := servlet.ParamInt(r, "c_id", 0)
	order, err := a.conn.Query(r.Context(),
		"SELECT o_id, o_date, o_total, o_status FROM orders WHERE o_c_id = ? ORDER BY o_date DESC, o_id DESC LIMIT 1", custID)
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	p := servlet.NewPage(fmt.Sprintf("TPC-W — Last order of customer %d", custID))
	if order.Len() == 0 {
		p.Text("No orders on file.")
		p.WriteHTML(w)
		return
	}
	p.Table([]string{"Order", "Date", "Total", "Status"}, order)
	lines, err := a.conn.Query(r.Context(),
		"SELECT order_line.ol_i_id, item.i_title, order_line.ol_qty, item.i_cost FROM order_line JOIN item ON order_line.ol_i_id = item.i_id WHERE order_line.ol_o_id = ? ORDER BY order_line.ol_id ASC",
		order.Int(0, 0))
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	p.H2("Lines")
	p.Table([]string{"Item", "Title", "Qty", "Cost"}, lines)
	p.WriteHTML(w)
}

// relatedBooks lists the books bought together with the given one: every
// item sharing an order with it, joined to its author. The JOIN plus nested
// IN-subquery over order_line means the read template spans item, author and
// order_line — a new order line for the book invalidates exactly this page.
func (a *App) relatedBooks(w http.ResponseWriter, r *http.Request) {
	itemID := servlet.ParamInt(r, "i_id", 0)
	rows, err := a.conn.Query(r.Context(),
		"SELECT item.i_id, item.i_title, author.a_fname, author.a_lname, item.i_cost FROM item JOIN author ON item.i_a_id = author.a_id WHERE item.i_id IN (SELECT ol_i_id FROM order_line WHERE ol_o_id IN (SELECT ol_o_id FROM order_line WHERE ol_i_id = ?)) AND item.i_id <> ? ORDER BY item.i_id ASC LIMIT ?",
		itemID, itemID, 25)
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	p := servlet.NewPage(fmt.Sprintf("TPC-W — Books bought together with item %d", itemID))
	p.Table([]string{"Id", "Title", "Author first", "Author last", "Cost"}, rows)
	p.WriteHTML(w)
}

func (a *App) adminRequest(w http.ResponseWriter, r *http.Request) {
	itemID := servlet.ParamInt(r, "i_id", 0)
	item, err := a.conn.Query(r.Context(),
		"SELECT i_id, i_title, i_subject, i_cost, i_stock FROM item WHERE i_id = ?", itemID)
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	if item.Len() == 0 {
		servlet.ClientError(w, "no such item")
		return
	}
	p := servlet.NewPage(fmt.Sprintf("TPC-W — Admin view of item %d", itemID))
	p.Table([]string{"Id", "Title", "Subject", "Cost", "Stock"}, item)
	p.Text("Submit changes to /adminConfirm.")
	p.WriteHTML(w)
}
