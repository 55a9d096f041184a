package rubis

import (
	"fmt"
	"net/http"

	"autowebcache/internal/servlet"
)

// storeBid records a bid (INSERT INTO bids) and refreshes the item's bid
// summary (UPDATE items). This is the hot write of the bidding mix.
func (a *App) storeBid(w http.ResponseWriter, r *http.Request) {
	userID := servlet.ParamInt(r, "userId", 0)
	itemID := servlet.ParamInt(r, "itemId", 0)
	qty := servlet.ParamInt(r, "qty", 1)
	bid := float64(servlet.ParamInt(r, "bid", 1))
	if userID == 0 || itemID == 0 {
		servlet.ClientError(w, "userId and itemId required")
		return
	}
	cur, err := a.conn.Query(r.Context(), "SELECT max_bid FROM items WHERE id = ?", itemID)
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	if cur.Len() == 0 {
		servlet.ClientError(w, "no such item")
		return
	}
	maxBid := cur.Float(0, 0)
	if bid > maxBid {
		maxBid = bid
	}
	if _, err := a.conn.Exec(r.Context(),
		"INSERT INTO bids (user_id, item_id, qty, bid, max_bid, date) VALUES (?, ?, ?, ?, ?, ?)",
		userID, itemID, qty, bid, maxBid, a.nextDate()); err != nil {
		servlet.ServerError(w, err)
		return
	}
	if _, err := a.conn.Exec(r.Context(),
		"UPDATE items SET nb_of_bids = nb_of_bids + 1, max_bid = ? WHERE id = ?",
		maxBid, itemID); err != nil {
		servlet.ServerError(w, err)
		return
	}
	p := servlet.NewPage("RUBiS — Bid recorded")
	p.Text("Your bid of %g on item %d was recorded.", bid, itemID)
	p.WriteHTML(w)
}

// storeBuyNow performs an immediate purchase: decrement stock, record the
// purchase.
func (a *App) storeBuyNow(w http.ResponseWriter, r *http.Request) {
	userID := servlet.ParamInt(r, "userId", 0)
	itemID := servlet.ParamInt(r, "itemId", 0)
	qty := servlet.ParamInt(r, "qty", 1)
	if userID == 0 || itemID == 0 {
		servlet.ClientError(w, "userId and itemId required")
		return
	}
	if _, err := a.conn.Exec(r.Context(),
		"UPDATE items SET quantity = quantity - ? WHERE id = ?", qty, itemID); err != nil {
		servlet.ServerError(w, err)
		return
	}
	if _, err := a.conn.Exec(r.Context(),
		"INSERT INTO buy_now (buyer_id, item_id, qty, date) VALUES (?, ?, ?, ?)",
		userID, itemID, qty, a.nextDate()); err != nil {
		servlet.ServerError(w, err)
		return
	}
	p := servlet.NewPage("RUBiS — Purchase complete")
	p.Text("You bought %d of item %d.", qty, itemID)
	p.WriteHTML(w)
}

// storeComment records a comment and adjusts the target user's rating.
func (a *App) storeComment(w http.ResponseWriter, r *http.Request) {
	fromID := servlet.ParamInt(r, "from", 0)
	toID := servlet.ParamInt(r, "to", 0)
	itemID := servlet.ParamInt(r, "itemId", 0)
	rating := servlet.ParamInt(r, "rating", 0)
	if fromID == 0 || toID == 0 {
		servlet.ClientError(w, "from and to required")
		return
	}
	if _, err := a.conn.Exec(r.Context(),
		"INSERT INTO comments (from_user_id, to_user_id, item_id, rating, date, comment) VALUES (?, ?, ?, ?, ?, ?)",
		fromID, toID, itemID, rating, a.nextDate(),
		fmt.Sprintf("comment from %d about item %d", fromID, itemID)); err != nil {
		servlet.ServerError(w, err)
		return
	}
	if _, err := a.conn.Exec(r.Context(),
		"UPDATE users SET rating = rating + ? WHERE id = ?", rating, toID); err != nil {
		servlet.ServerError(w, err)
		return
	}
	p := servlet.NewPage("RUBiS — Comment stored")
	p.Text("Comment about user %d stored.", toID)
	p.WriteHTML(w)
}

// storeRegisterUser creates a new user account.
func (a *App) storeRegisterUser(w http.ResponseWriter, r *http.Request) {
	nickname := servlet.Param(r, "nickname")
	region := servlet.ParamInt(r, "region", 1)
	if nickname == "" {
		servlet.ClientError(w, "nickname required")
		return
	}
	res, err := a.conn.Exec(r.Context(),
		"INSERT INTO users (firstname, lastname, nickname, password, email, rating, balance, creation_date, region) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
		"First-"+nickname, "Last-"+nickname, nickname, "pw-"+nickname,
		nickname+"@example.org", 0, 0.0, a.nextDate(), region)
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	p := servlet.NewPage("RUBiS — User registered")
	p.Text("Welcome %s, your user id is %d.", nickname, res.LastInsertID)
	p.WriteHTML(w)
}

// storeRegisterItem puts a new item up for auction.
func (a *App) storeRegisterItem(w http.ResponseWriter, r *http.Request) {
	name := servlet.Param(r, "name")
	seller := servlet.ParamInt(r, "userId", 0)
	category := servlet.ParamInt(r, "category", 1)
	initial := float64(servlet.ParamInt(r, "initialPrice", 10))
	qty := servlet.ParamInt(r, "qty", 1)
	if name == "" || seller == 0 {
		servlet.ClientError(w, "name and userId required")
		return
	}
	start := a.nextDate()
	res, err := a.conn.Exec(r.Context(),
		"INSERT INTO items (name, description, quantity, initial_price, reserve_price, buy_now, nb_of_bids, max_bid, start_date, end_date, seller, category) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
		name, "listed by user "+fmt.Sprint(seller), qty,
		initial, initial*1.2, initial*2, 0, 0.0, start, start+100000, seller, category)
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	p := servlet.NewPage("RUBiS — Item registered")
	p.Text("Item %q listed with id %d in category %d.", name, res.LastInsertID, category)
	p.WriteHTML(w)
}
