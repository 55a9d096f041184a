package rubis

import (
	"fmt"
	"net/http"

	"autowebcache/internal/servlet"
)

// Fragment decompositions for the mixed shared/personalised RUBiS pages:
// each page becomes an ordered template of cacheable fragments (each with
// its own vary dimensions and dependency set) plus uncacheable holes. The
// `session` request parameter models the logged-in identity a real site
// carries per user: the session hole renders it fresh on every request,
// while the surrounding fragments — item details, bid stats, search tables —
// stay shared across sessions. Under whole-page caching the same parameter
// poisons the page key and every user misses; that contrast is the -fig F
// experiment.

// sessionHole renders the personalised "signed in as" banner. It is a hole:
// regenerated per request, never cached, and its reads are not recorded as
// page dependencies.
func (a *App) sessionHole() servlet.Segment {
	return servlet.Segment{Gen: func(w http.ResponseWriter, r *http.Request) {
		s := servlet.ParamInt(r, "session", 0)
		if s <= 0 {
			servlet.WriteFragment(w, "<p>Browsing anonymously.</p>")
			return
		}
		u, err := a.conn.Query(r.Context(), "SELECT nickname, rating FROM users WHERE id = ?", s)
		if err != nil || u.Len() == 0 {
			servlet.WriteFragment(w, "<p>Browsing anonymously.</p>")
			return
		}
		p := servlet.NewPartial()
		p.Text("Signed in as %s (rating %d).", u.Str(0, 0), u.Int(0, 1))
		p.WriteFragment(w)
	}}
}

// viewItemSegments decomposes ViewItem: the item sheet and the bid stats
// are separate fragments varying by itemId — a StoreComment or user write
// leaves both untouched — and the greeting is a hole.
func (a *App) viewItemSegments() []servlet.Segment {
	item := servlet.Segment{ID: "item", Vary: []string{"itemId"}, Gen: func(w http.ResponseWriter, r *http.Request) {
		itemID := servlet.ParamInt(r, "itemId", 0)
		item, err := a.conn.Query(r.Context(), "SELECT * FROM items WHERE id = ?", itemID)
		if err != nil {
			servlet.ServerError(w, err)
			return
		}
		if item.Len() == 0 {
			servlet.ClientError(w, "no such item")
			return
		}
		seller, err := a.conn.Query(r.Context(), "SELECT nickname FROM users WHERE id = ?", item.Int(0, 11))
		if err != nil {
			servlet.ServerError(w, err)
			return
		}
		p := servlet.NewPage(fmt.Sprintf("RUBiS — Item %d", itemID))
		p.Table([]string{"Id", "Name", "Description", "Qty", "Initial", "Reserve", "BuyNow", "Bids", "MaxBid", "Start", "End", "Seller", "Category"}, item)
		if seller.Len() > 0 {
			p.Text("Sold by %s", seller.Str(0, 0))
		}
		p.WriteFragment(w)
	}}
	bids := servlet.Segment{ID: "bids", Vary: []string{"itemId"}, Gen: func(w http.ResponseWriter, r *http.Request) {
		itemID := servlet.ParamInt(r, "itemId", 0)
		nBids, err := a.conn.Query(r.Context(), "SELECT COUNT(*) FROM bids WHERE item_id = ?", itemID)
		if err != nil {
			servlet.ServerError(w, err)
			return
		}
		maxBid, err := a.conn.Query(r.Context(), "SELECT MAX(bid) FROM bids WHERE item_id = ?", itemID)
		if err != nil {
			servlet.ServerError(w, err)
			return
		}
		p := servlet.NewPartial()
		p.Text("Bids: %d, best bid: %s", nBids.Int(0, 0), maxBid.Str(0, 0))
		p.WriteFragment(w)
	}}
	return []servlet.Segment{item, a.sessionHole(), bids, servlet.TailSegment()}
}

// searchByCategorySegments decomposes SearchItemsByCategory: the result
// table varies by category and page only, so every session shares it.
func (a *App) searchByCategorySegments() []servlet.Segment {
	items := servlet.Segment{ID: "items", Vary: []string{"category", "page"}, Gen: func(w http.ResponseWriter, r *http.Request) {
		category := servlet.ParamInt(r, "category", 1)
		page := servlet.ParamInt(r, "page", 0)
		rows, err := a.conn.Query(r.Context(),
			"SELECT id, name, initial_price, max_bid, nb_of_bids, end_date FROM items WHERE category = ? ORDER BY end_date ASC, id ASC LIMIT ? OFFSET ?",
			category, pageSize, page*pageSize)
		if err != nil {
			servlet.ServerError(w, err)
			return
		}
		p := servlet.NewPage(fmt.Sprintf("RUBiS — Items in category %d (page %d)", category, page))
		p.Table([]string{"Id", "Name", "Initial", "Max bid", "Bids", "Ends"}, rows)
		p.WriteFragment(w)
	}}
	return []servlet.Segment{items, a.sessionHole(), servlet.TailSegment()}
}

// viewUserSegments decomposes ViewUserInfo: profile and comments are
// separate fragments varying by userId, so a comment on the user
// regenerates the comment list without touching unrelated fragments.
func (a *App) viewUserSegments() []servlet.Segment {
	user := servlet.Segment{ID: "user", Vary: []string{"userId"}, Gen: func(w http.ResponseWriter, r *http.Request) {
		userID := servlet.ParamInt(r, "userId", 0)
		user, err := a.conn.Query(r.Context(),
			"SELECT nickname, rating, creation_date, region FROM users WHERE id = ?", userID)
		if err != nil {
			servlet.ServerError(w, err)
			return
		}
		if user.Len() == 0 {
			servlet.ClientError(w, "no such user")
			return
		}
		p := servlet.NewPage(fmt.Sprintf("RUBiS — User %s", user.Str(0, 0)))
		p.Text("Rating %d, member since %d, region %d", user.Int(0, 1), user.Int(0, 2), user.Int(0, 3))
		p.WriteFragment(w)
	}}
	comments := servlet.Segment{ID: "comments", Vary: []string{"userId"}, Gen: func(w http.ResponseWriter, r *http.Request) {
		userID := servlet.ParamInt(r, "userId", 0)
		comments, err := a.conn.Query(r.Context(),
			"SELECT comments.rating, comments.date, comments.comment, users.nickname FROM comments JOIN users ON comments.from_user_id = users.id WHERE comments.to_user_id = ? ORDER BY comments.date DESC, comments.id DESC LIMIT ?",
			userID, pageSize)
		if err != nil {
			servlet.ServerError(w, err)
			return
		}
		p := servlet.NewPartial()
		p.H2("Comments")
		p.Table([]string{"Rating", "Date", "Comment", "From"}, comments)
		p.WriteFragment(w)
	}}
	return []servlet.Segment{user, a.sessionHole(), comments, servlet.TailSegment()}
}

// viewBidsSegments decomposes ViewBidHistory: the item heading and the bid
// table vary by itemId; only bid-table writes invalidate the history list.
func (a *App) viewBidsSegments() []servlet.Segment {
	head := servlet.Segment{ID: "head", Vary: []string{"itemId"}, Gen: func(w http.ResponseWriter, r *http.Request) {
		itemID := servlet.ParamInt(r, "itemId", 0)
		item, err := a.conn.Query(r.Context(), "SELECT name FROM items WHERE id = ?", itemID)
		if err != nil {
			servlet.ServerError(w, err)
			return
		}
		name := "unknown item"
		if item.Len() > 0 {
			name = item.Str(0, 0)
		}
		servlet.NewPage(fmt.Sprintf("RUBiS — Bid history for %s", name)).WriteFragment(w)
	}}
	bids := servlet.Segment{ID: "bids", Vary: []string{"itemId"}, Gen: func(w http.ResponseWriter, r *http.Request) {
		itemID := servlet.ParamInt(r, "itemId", 0)
		bids, err := a.conn.Query(r.Context(),
			"SELECT bids.qty, bids.bid, bids.date, users.nickname FROM bids JOIN users ON bids.user_id = users.id WHERE bids.item_id = ? ORDER BY bids.date DESC, bids.id DESC LIMIT ?",
			itemID, pageSize)
		if err != nil {
			servlet.ServerError(w, err)
			return
		}
		p := servlet.NewPartial()
		p.Table([]string{"Qty", "Bid", "Date", "Bidder"}, bids)
		p.WriteFragment(w)
	}}
	return []servlet.Segment{head, a.sessionHole(), bids, servlet.TailSegment()}
}
