package cluster

import (
	"fmt"
	"testing"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
)

// newGovNode builds one bare cluster member (no HTTP layer) whose page
// cache uses the given governance options (and a schema-less WhereMatch
// engine unless opts.Engine is set).
func newGovNode(t *testing.T, opts cache.Options) (*cache.Cache, *Node) {
	t.Helper()
	if opts.Engine == nil {
		eng, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
		if err != nil {
			t.Fatal(err)
		}
		opts.Engine = eng
	}
	opts.Shards = 2
	c, err := cache.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{Listen: "127.0.0.1:0", Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return c, n
}

// join links two bare nodes into one ring.
func join(a, b *Node) {
	a.SetPeers([]string{b.Addr()})
	b.SetPeers([]string{a.Addr()})
}

// keyOwnedBy finds a page key the given node owns under the current ring.
func keyOwnedBy(t *testing.T, ring *Ring, owner string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("/page?x=%d", i)
		if ring.Owner(key) == owner {
			return key
		}
	}
	t.Fatal("no key found for owner")
	return ""
}

// TestOfferRespectsOwnerBudget: an owner whose byte budget cannot fit a
// replica refuses the Offer instead of storing it — the offering node's
// counters record the rejection, and the owner's accounted bytes stay
// within budget.
func TestOfferRespectsOwnerBudget(t *testing.T) {
	const budget = 2048
	_, a := newGovNode(t, cache.Options{})
	cb, b := newGovNode(t, cache.Options{MaxBytes: budget})
	join(a, b)

	key := keyOwnedBy(t, a.Ring(), b.Addr())

	// A replica bigger than B's whole budget: must be refused outright.
	big := make([]byte, budget+1)
	a.Offer(key, big, "text/html", nil, 0)
	if st := a.Snapshot(); st.OffersRejected != 1 || st.OffersSent != 0 {
		t.Fatalf("offering node stats: %+v", st)
	}
	if st := b.Snapshot(); st.PutsRejected != 1 || st.PutsApplied != 0 {
		t.Fatalf("owner stats: %+v", st)
	}
	if cb.Len() != 0 || cb.Bytes() != 0 {
		t.Fatalf("owner stored the oversize replica: len=%d bytes=%d", cb.Len(), cb.Bytes())
	}
	if st := cb.Snapshot(); st.OversizeRejects != 1 {
		t.Fatalf("owner cache stats: %+v", st)
	}

	// A replica that fits is accepted and accounted.
	small := make([]byte, 256)
	a.Offer(key, small, "text/html", nil, 0)
	if st := a.Snapshot(); st.OffersSent != 1 {
		t.Fatalf("offering node stats after small offer: %+v", st)
	}
	if st := b.Snapshot(); st.PutsApplied != 1 {
		t.Fatalf("owner stats after small offer: %+v", st)
	}
	if cb.Len() != 1 || cb.Bytes() > budget {
		t.Fatalf("owner after small offer: len=%d bytes=%d", cb.Len(), cb.Bytes())
	}
}

// TestOfferLosesAdmissionDuel: with the owner's budget full of pages whose
// frequency is proven, a replica offer for a never-requested key loses the
// TinyLFU duel and is refused; the owner's hot set survives intact.
func TestOfferRejectedByAdmission(t *testing.T) {
	body := make([]byte, 512)
	// Budget sized for two pages.
	const budget = 2 * (512 + 64 + 160)
	_, a := newGovNode(t, cache.Options{})
	cb, b := newGovNode(t, cache.Options{MaxBytes: budget, Admission: true})
	join(a, b)

	// Two locally hot pages fill B's budget.
	hot := []string{"/hot?i=1", "/hot?i=2"}
	for _, k := range hot {
		for i := 0; i < 8; i++ {
			cb.Lookup(k)
		}
		if _, stored := cb.TryInsert(k, body, "text/html", nil, 0); !stored {
			t.Fatalf("hot page %s not stored", k)
		}
	}

	// A cold replica offer under full budget: B has never seen the key, so
	// the admission filter sides with the resident victims.
	key := keyOwnedBy(t, a.Ring(), b.Addr())
	a.Offer(key, body, "text/html", nil, 0)
	if st := b.Snapshot(); st.PutsRejected == 0 {
		t.Fatalf("cold offer was not rejected: %+v", st)
	}
	for _, k := range hot {
		if _, ok := cb.Lookup(k); !ok {
			t.Fatalf("hot page %s displaced by cold replica", k)
		}
	}
	if cb.Bytes() > budget {
		t.Fatalf("owner over budget: %d > %d", cb.Bytes(), budget)
	}
}
