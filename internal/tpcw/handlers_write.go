package tpcw

import (
	"fmt"
	"net/http"

	"autowebcache/internal/servlet"
)

// shoppingCart adds an item to (or creates) the session's cart and displays
// its contents — a write interaction in TPC-W's classification.
func (a *App) shoppingCart(w http.ResponseWriter, r *http.Request) {
	cartID := servlet.ParamInt(r, "sc_id", 0)
	itemID := servlet.ParamInt(r, "i_id", 0)
	qty := servlet.ParamInt(r, "qty", 1)
	if cartID == 0 {
		servlet.ClientError(w, "sc_id required")
		return
	}
	ctx := r.Context()
	cart, err := a.conn.Query(ctx, "SELECT sc_id FROM shopping_cart WHERE sc_id = ?", cartID)
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	if cart.Len() == 0 {
		if _, err := a.conn.Exec(ctx,
			"INSERT INTO shopping_cart (sc_id, sc_date) VALUES (?, ?)", cartID, a.nextDate()); err != nil {
			servlet.ServerError(w, err)
			return
		}
	}
	if itemID > 0 {
		line, err := a.conn.Query(ctx,
			"SELECT scl_qty FROM shopping_cart_line WHERE scl_sc_id = ? AND scl_i_id = ?", cartID, itemID)
		if err != nil {
			servlet.ServerError(w, err)
			return
		}
		if line.Len() == 0 {
			_, err = a.conn.Exec(ctx,
				"INSERT INTO shopping_cart_line (scl_sc_id, scl_i_id, scl_qty) VALUES (?, ?, ?)",
				cartID, itemID, qty)
		} else {
			_, err = a.conn.Exec(ctx,
				"UPDATE shopping_cart_line SET scl_qty = scl_qty + ? WHERE scl_sc_id = ? AND scl_i_id = ?",
				qty, cartID, itemID)
		}
		if err != nil {
			servlet.ServerError(w, err)
			return
		}
	}
	lines, err := a.conn.Query(ctx,
		"SELECT shopping_cart_line.scl_i_id, item.i_title, shopping_cart_line.scl_qty, item.i_cost FROM shopping_cart_line JOIN item ON shopping_cart_line.scl_i_id = item.i_id WHERE shopping_cart_line.scl_sc_id = ? ORDER BY shopping_cart_line.scl_id ASC",
		cartID)
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	p := servlet.NewPage(fmt.Sprintf("TPC-W — Shopping cart %d", cartID))
	p.Table([]string{"Item", "Title", "Qty", "Cost"}, lines)
	p.WriteHTML(w)
}

// customerRegistration creates a new customer with an address — a write in
// the Wisconsin implementation the paper used.
func (a *App) customerRegistration(w http.ResponseWriter, r *http.Request) {
	uname := servlet.Param(r, "uname")
	if uname == "" {
		servlet.ClientError(w, "uname required")
		return
	}
	ctx := r.Context()
	addr, err := a.conn.Exec(ctx,
		"INSERT INTO address (addr_street, addr_city, addr_zip, addr_co_id) VALUES (?, ?, ?, ?)",
		"1 New St", "Newtown", "00000", 1)
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	res, err := a.conn.Exec(ctx,
		"INSERT INTO customer (c_uname, c_fname, c_lname, c_since, c_discount, c_addr_id) VALUES (?, ?, ?, ?, ?, ?)",
		uname, "New", uname, a.nextDate(), 0.0, addr.LastInsertID)
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	p := servlet.NewPage("TPC-W — Registered")
	p.Text("Welcome %s, your customer id is %d.", uname, res.LastInsertID)
	p.WriteHTML(w)
}

// buyRequest shows the order summary for a cart and updates the customer's
// billing profile (a write interaction, as in the Wisconsin implementation).
func (a *App) buyRequest(w http.ResponseWriter, r *http.Request) {
	custID := servlet.ParamInt(r, "c_id", 0)
	cartID := servlet.ParamInt(r, "sc_id", 0)
	discount := servlet.ParamInt(r, "discount", 0)
	if custID == 0 || cartID == 0 {
		servlet.ClientError(w, "c_id and sc_id required")
		return
	}
	ctx := r.Context()
	if _, err := a.conn.Exec(ctx,
		"UPDATE customer SET c_discount = ? WHERE c_id = ?", discount, custID); err != nil {
		servlet.ServerError(w, err)
		return
	}
	lines, err := a.conn.Query(ctx,
		"SELECT shopping_cart_line.scl_i_id, item.i_title, shopping_cart_line.scl_qty, item.i_cost FROM shopping_cart_line JOIN item ON shopping_cart_line.scl_i_id = item.i_id WHERE shopping_cart_line.scl_sc_id = ? ORDER BY shopping_cart_line.scl_id ASC",
		cartID)
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	p := servlet.NewPage(fmt.Sprintf("TPC-W — Buy request for cart %d", cartID))
	p.Table([]string{"Item", "Title", "Qty", "Cost"}, lines)
	p.Text("Confirm your purchase at /buyConfirm.")
	p.WriteHTML(w)
}

// buyConfirm turns the cart into an order: insert orders/order_line/
// cc_xacts rows, decrement stock, clear the cart.
func (a *App) buyConfirm(w http.ResponseWriter, r *http.Request) {
	custID := servlet.ParamInt(r, "c_id", 0)
	cartID := servlet.ParamInt(r, "sc_id", 0)
	if custID == 0 || cartID == 0 {
		servlet.ClientError(w, "c_id and sc_id required")
		return
	}
	ctx := r.Context()
	lines, err := a.conn.Query(ctx,
		"SELECT shopping_cart_line.scl_i_id, shopping_cart_line.scl_qty, item.i_cost FROM shopping_cart_line JOIN item ON shopping_cart_line.scl_i_id = item.i_id WHERE shopping_cart_line.scl_sc_id = ?",
		cartID)
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	total := 0.0
	for i := 0; i < lines.Len(); i++ {
		total += float64(lines.Int(i, 1)) * lines.Float(i, 2)
	}
	order, err := a.conn.Exec(ctx,
		"INSERT INTO orders (o_c_id, o_date, o_total, o_status) VALUES (?, ?, ?, ?)",
		custID, a.nextDate(), total, "PENDING")
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	for i := 0; i < lines.Len(); i++ {
		itemID := lines.Int(i, 0)
		qty := lines.Int(i, 1)
		if _, err := a.conn.Exec(ctx,
			"INSERT INTO order_line (ol_o_id, ol_i_id, ol_qty) VALUES (?, ?, ?)",
			order.LastInsertID, itemID, qty); err != nil {
			servlet.ServerError(w, err)
			return
		}
		if _, err := a.conn.Exec(ctx,
			"UPDATE item SET i_stock = i_stock - ? WHERE i_id = ?", qty, itemID); err != nil {
			servlet.ServerError(w, err)
			return
		}
	}
	if _, err := a.conn.Exec(ctx,
		"INSERT INTO cc_xacts (cx_o_id, cx_type, cx_amount, cx_date) VALUES (?, ?, ?, ?)",
		order.LastInsertID, "VISA", total, a.nextDate()); err != nil {
		servlet.ServerError(w, err)
		return
	}
	if _, err := a.conn.Exec(ctx,
		"DELETE FROM shopping_cart_line WHERE scl_sc_id = ?", cartID); err != nil {
		servlet.ServerError(w, err)
		return
	}
	p := servlet.NewPage("TPC-W — Order confirmed")
	p.Text("Order %d placed for a total of %.2f.", order.LastInsertID, total)
	p.WriteHTML(w)
}

// adminConfirm updates an item's price and publication date — the
// administrative write that invalidates catalogue pages.
func (a *App) adminConfirm(w http.ResponseWriter, r *http.Request) {
	itemID := servlet.ParamInt(r, "i_id", 0)
	cost := float64(servlet.ParamInt(r, "cost", 10))
	if itemID == 0 {
		servlet.ClientError(w, "i_id required")
		return
	}
	if _, err := a.conn.Exec(r.Context(),
		"UPDATE item SET i_cost = ?, i_pub_date = ? WHERE i_id = ?",
		cost, a.nextDate(), itemID); err != nil {
		servlet.ServerError(w, err)
		return
	}
	p := servlet.NewPage("TPC-W — Item updated")
	p.Text("Item %d now costs %.2f.", itemID, cost)
	p.WriteHTML(w)
}
