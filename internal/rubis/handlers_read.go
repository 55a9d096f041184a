package rubis

import (
	"fmt"
	"net/http"

	"autowebcache/internal/servlet"
)

const pageSize = 25

// --- navigation pages (no queries) -----------------------------------------

func (a *App) home(w http.ResponseWriter, r *http.Request) {
	p := servlet.NewPage("RUBiS — Welcome")
	p.Text("Welcome to RUBiS, the auction site benchmark.")
	p.Link("/browse", "Browse")
	p.Link("/sell", "Sell")
	p.Link("/aboutMe?userId=1", "About me")
	p.WriteHTML(w)
}

func (a *App) browse(w http.ResponseWriter, r *http.Request) {
	p := servlet.NewPage("RUBiS — Browse")
	p.Link("/browseCategories", "Browse categories")
	p.Link("/browseRegions", "Browse regions")
	p.WriteHTML(w)
}

func (a *App) sell(w http.ResponseWriter, r *http.Request) {
	p := servlet.NewPage("RUBiS — Sell")
	p.Link("/selectCategory", "Select a category to sell in")
	p.WriteHTML(w)
}

func (a *App) registerUserForm(w http.ResponseWriter, r *http.Request) {
	p := servlet.NewPage("RUBiS — Register user")
	p.Text("Fill in your details and submit to /storeRegisterUser.")
	p.WriteHTML(w)
}

func (a *App) putBidAuth(w http.ResponseWriter, r *http.Request) {
	p := servlet.NewPage("RUBiS — Bid authentication")
	p.Text("Provide nickname and password to bid on item %d.", servlet.ParamInt(r, "itemId", 0))
	p.WriteHTML(w)
}

func (a *App) putCommentAuth(w http.ResponseWriter, r *http.Request) {
	p := servlet.NewPage("RUBiS — Comment authentication")
	p.Text("Provide nickname and password to comment on user %d.", servlet.ParamInt(r, "to", 0))
	p.WriteHTML(w)
}

func (a *App) buyNowAuth(w http.ResponseWriter, r *http.Request) {
	p := servlet.NewPage("RUBiS — Buy-now authentication")
	p.Text("Provide nickname and password to buy item %d.", servlet.ParamInt(r, "itemId", 0))
	p.WriteHTML(w)
}

// --- browsing and searching -------------------------------------------------

func (a *App) browseCategories(w http.ResponseWriter, r *http.Request) {
	rows, err := a.conn.Query(r.Context(), "SELECT id, name FROM categories ORDER BY id ASC")
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	p := servlet.NewPage("RUBiS — Categories")
	p.Table([]string{"Id", "Category"}, rows)
	p.WriteHTML(w)
}

func (a *App) browseRegions(w http.ResponseWriter, r *http.Request) {
	rows, err := a.conn.Query(r.Context(), "SELECT id, name FROM regions ORDER BY id ASC")
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	p := servlet.NewPage("RUBiS — Regions")
	p.Table([]string{"Id", "Region"}, rows)
	p.WriteHTML(w)
}

// browseCategoriesByRegion lists only the categories with at least one item
// on sale by a seller from the requested region — the real RUBiS semantics.
// The nested IN-subquery makes the page's read template span three tables
// (categories, items, users), so a new item or user registration in the
// region invalidates exactly this page.
func (a *App) browseCategoriesByRegion(w http.ResponseWriter, r *http.Request) {
	region := servlet.ParamInt(r, "region", 1)
	rows, err := a.conn.Query(r.Context(),
		"SELECT id, name FROM categories WHERE id IN (SELECT category FROM items WHERE seller IN (SELECT id FROM users WHERE region = ?)) ORDER BY id ASC",
		region)
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	p := servlet.NewPage(fmt.Sprintf("RUBiS — Categories in region %d", region))
	p.Table([]string{"Id", "Category"}, rows)
	p.WriteHTML(w)
}

// regionStats summarises the auction activity of one region: per-category
// item count, bid volume and average asking price. A GROUP-BY aggregate over
// an IN-subquery — a shape the analyzer previously rejected, which forced
// the page to stay uncacheable.
func (a *App) regionStats(w http.ResponseWriter, r *http.Request) {
	region := servlet.ParamInt(r, "region", 1)
	rows, err := a.conn.Query(r.Context(),
		"SELECT category, COUNT(id) AS items, SUM(nb_of_bids) AS bids, AVG(initial_price) AS avg_price FROM items WHERE seller IN (SELECT id FROM users WHERE region = ?) GROUP BY category ORDER BY category ASC",
		region)
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	p := servlet.NewPage(fmt.Sprintf("RUBiS — Auction activity in region %d", region))
	p.Table([]string{"Category", "Items", "Bids", "Avg price"}, rows)
	p.WriteHTML(w)
}

// searchItemsByCategory, viewItem, viewUserInfo and viewBidHistory live in
// fragments.go as segment decompositions (fragment-granular caching); their
// monolithic forms are the in-order composition of their segments.

func (a *App) searchItemsByRegion(w http.ResponseWriter, r *http.Request) {
	region := servlet.ParamInt(r, "region", 1)
	category := servlet.ParamInt(r, "category", 1)
	page := servlet.ParamInt(r, "page", 0)
	rows, err := a.conn.Query(r.Context(),
		"SELECT items.id, items.name, items.initial_price, items.max_bid, items.nb_of_bids, items.end_date FROM items JOIN users ON items.seller = users.id WHERE users.region = ? AND items.category = ? ORDER BY items.end_date ASC, items.id ASC LIMIT ? OFFSET ?",
		region, category, pageSize, page*pageSize)
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	p := servlet.NewPage(fmt.Sprintf("RUBiS — Items in category %d, region %d", category, region))
	p.Table([]string{"Id", "Name", "Initial", "Max bid", "Bids", "Ends"}, rows)
	p.WriteHTML(w)
}

// --- item and user views ----------------------------------------------------

func (a *App) aboutMe(w http.ResponseWriter, r *http.Request) {
	userID := servlet.ParamInt(r, "userId", 0)
	user, err := a.conn.Query(r.Context(),
		"SELECT nickname, rating, balance FROM users WHERE id = ?", userID)
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	if user.Len() == 0 {
		servlet.ClientError(w, "no such user")
		return
	}
	myBids, err := a.conn.Query(r.Context(),
		"SELECT items.id, items.name, bids.bid, bids.qty, bids.date FROM bids JOIN items ON bids.item_id = items.id WHERE bids.user_id = ? ORDER BY bids.date DESC, bids.id DESC LIMIT ?",
		userID, pageSize)
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	mySales, err := a.conn.Query(r.Context(),
		"SELECT id, name, initial_price, max_bid, nb_of_bids, end_date FROM items WHERE seller = ? ORDER BY end_date DESC, id ASC LIMIT ?",
		userID, pageSize)
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	myComments, err := a.conn.Query(r.Context(),
		"SELECT rating, date, comment FROM comments WHERE to_user_id = ? ORDER BY date DESC, id DESC LIMIT ?",
		userID, pageSize)
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	myBuys, err := a.conn.Query(r.Context(),
		"SELECT buy_now.qty, buy_now.date, items.name FROM buy_now JOIN items ON buy_now.item_id = items.id WHERE buy_now.buyer_id = ? ORDER BY buy_now.date DESC, buy_now.id DESC LIMIT ?",
		userID, pageSize)
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	p := servlet.NewPage(fmt.Sprintf("RUBiS — About %s", user.Str(0, 0)))
	p.Text("Rating %d, balance %s", user.Int(0, 1), user.Str(0, 2))
	p.H2("My bids")
	p.Table([]string{"Item", "Name", "Bid", "Qty", "Date"}, myBids)
	p.H2("Items I am selling")
	p.Table([]string{"Id", "Name", "Initial", "Max bid", "Bids", "Ends"}, mySales)
	p.H2("Comments about me")
	p.Table([]string{"Rating", "Date", "Comment"}, myComments)
	p.H2("My buy-now purchases")
	p.Table([]string{"Qty", "Date", "Item"}, myBuys)
	p.WriteHTML(w)
}

// --- query-backed forms -----------------------------------------------------

func (a *App) putBid(w http.ResponseWriter, r *http.Request) {
	itemID := servlet.ParamInt(r, "itemId", 0)
	item, err := a.conn.Query(r.Context(),
		"SELECT name, initial_price, max_bid, nb_of_bids FROM items WHERE id = ?", itemID)
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	if item.Len() == 0 {
		servlet.ClientError(w, "no such item")
		return
	}
	p := servlet.NewPage(fmt.Sprintf("RUBiS — Bid on %s", item.Str(0, 0)))
	p.Text("Initial price %s, current max bid %s over %d bids.",
		item.Str(0, 1), item.Str(0, 2), item.Int(0, 3))
	p.WriteHTML(w)
}

func (a *App) buyNow(w http.ResponseWriter, r *http.Request) {
	itemID := servlet.ParamInt(r, "itemId", 0)
	item, err := a.conn.Query(r.Context(),
		"SELECT name, buy_now, quantity FROM items WHERE id = ?", itemID)
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	if item.Len() == 0 {
		servlet.ClientError(w, "no such item")
		return
	}
	p := servlet.NewPage(fmt.Sprintf("RUBiS — Buy %s now", item.Str(0, 0)))
	p.Text("Buy-now price %s, %d available.", item.Str(0, 1), item.Int(0, 2))
	p.WriteHTML(w)
}

func (a *App) putComment(w http.ResponseWriter, r *http.Request) {
	toID := servlet.ParamInt(r, "to", 0)
	itemID := servlet.ParamInt(r, "itemId", 0)
	user, err := a.conn.Query(r.Context(), "SELECT nickname FROM users WHERE id = ?", toID)
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	item, err := a.conn.Query(r.Context(), "SELECT name FROM items WHERE id = ?", itemID)
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	if user.Len() == 0 || item.Len() == 0 {
		servlet.ClientError(w, "no such user or item")
		return
	}
	p := servlet.NewPage(fmt.Sprintf("RUBiS — Comment on %s about %s", user.Str(0, 0), item.Str(0, 0)))
	p.Text("Write your comment and submit to /storeComment.")
	p.WriteHTML(w)
}

func (a *App) selectCategoryToSellItem(w http.ResponseWriter, r *http.Request) {
	rows, err := a.conn.Query(r.Context(), "SELECT id, name FROM categories ORDER BY id ASC")
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	p := servlet.NewPage("RUBiS — Choose a category to sell in")
	p.Table([]string{"Id", "Category"}, rows)
	p.WriteHTML(w)
}

func (a *App) sellItemForm(w http.ResponseWriter, r *http.Request) {
	category := servlet.ParamInt(r, "category", 1)
	cat, err := a.conn.Query(r.Context(), "SELECT name FROM categories WHERE id = ?", category)
	if err != nil {
		servlet.ServerError(w, err)
		return
	}
	if cat.Len() == 0 {
		servlet.ClientError(w, "no such category")
		return
	}
	p := servlet.NewPage(fmt.Sprintf("RUBiS — Sell an item in %s", cat.Str(0, 0)))
	p.Text("Describe your item and submit to /storeRegisterItem.")
	p.WriteHTML(w)
}
