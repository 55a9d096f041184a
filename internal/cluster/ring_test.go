package cluster

import (
	"fmt"
	"testing"
)

func TestRingEmpty(t *testing.T) {
	r := NewRing(nil, 0)
	if r.Len() != 0 {
		t.Fatalf("Len = %d", r.Len())
	}
	if got := r.Owner("k"); got != "" {
		t.Fatalf("Owner on empty ring = %q", got)
	}
}

func TestRingSingleNodeOwnsEverything(t *testing.T) {
	r := NewRing([]string{"a"}, 8)
	for i := 0; i < 100; i++ {
		if got := r.Owner(fmt.Sprintf("key-%d", i)); got != "a" {
			t.Fatalf("key-%d owned by %q", i, got)
		}
	}
}

func TestRingDeduplicatesAndIgnoresEmpty(t *testing.T) {
	r := NewRing([]string{"a", "", "b", "a", "b"}, 4)
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
}

// TestRingOwnerUnchanged pins key placement: the table was generated with
// the N-owner ring walk this single-owner Owner replaced (its first owner),
// so a key must land on exactly the node it always did — mixed-version
// nodes must agree on ownership. The wrap-* keys hash past the ring's last
// point (owned by 10.0.0.2) or before its first (10.0.0.1), covering the
// clockwise wrap. Owner runs on every miss, so it must not allocate.
func TestRingOwnerUnchanged(t *testing.T) {
	r := NewRing([]string{"10.0.0.1:7000", "10.0.0.2:7000", "10.0.0.3:7000"}, 0)
	for _, tc := range []struct{ key, owner string }{
		{"", "10.0.0.1:7000"},
		{"k", "10.0.0.2:7000"},
		{"a", "10.0.0.2:7000"},
		{"/", "10.0.0.1:7000"},
		{"/viewItem?itemId=1", "10.0.0.1:7000"},
		{"/viewItem?itemId=2", "10.0.0.3:7000"},
		{"/viewItem?itemId=3", "10.0.0.1:7000"},
		{"/viewUserInfo?userId=7", "10.0.0.1:7000"},
		{"/browseCategories", "10.0.0.2:7000"},
		{"/searchItemsByCategory?category=4&page=0", "10.0.0.1:7000"},
		{"/stock?product=p0", "10.0.0.1:7000"},
		{"/stock?product=p1", "10.0.0.1:7000"},
		{"/page?x=0", "10.0.0.2:7000"},
		{"/page?x=1", "10.0.0.1:7000"},
		{"/page?x=2", "10.0.0.3:7000"},
		{"/page?x=3", "10.0.0.1:7000"},
		{"/page?x=42", "10.0.0.3:7000"},
		{"/page?x=999", "10.0.0.1:7000"},
		{"key-0", "10.0.0.2:7000"},
		{"key-1", "10.0.0.1:7000"},
		{"key-17", "10.0.0.1:7000"},
		{"key-199", "10.0.0.2:7000"},
		{"GET /about", "10.0.0.1:7000"},
		{"\xff\xff\xff\xff", "10.0.0.3:7000"},
		{"wrap-467", "10.0.0.1:7000"},
		{"wrap-822", "10.0.0.1:7000"},
		{"wrap-298", "10.0.0.1:7000"},
	} {
		if got := r.Owner(tc.key); got != tc.owner {
			t.Errorf("Owner(%q) = %s, want %s", tc.key, got, tc.owner)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Owner("/viewItem?itemId=1") }); allocs != 0 {
		t.Fatalf("Owner allocates %.1f times per call, want 0", allocs)
	}
}

func TestRingBalance(t *testing.T) {
	nodes := []string{"n1", "n2", "n3", "n4"}
	r := NewRing(nodes, 0) // DefaultVNodes
	counts := make(map[string]int)
	const keys = 8000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("/page?x=%d", i))]++
	}
	for _, n := range nodes {
		share := float64(counts[n]) / keys
		// With 64 vnodes per node a 4-node ring stays well inside 2x of the
		// fair share; the bound here is deliberately loose to stay
		// hash-stable across platforms.
		if share < 0.10 || share > 0.45 {
			t.Fatalf("node %s owns %.1f%% of the keyspace: %v", n, 100*share, counts)
		}
	}
}

// TestRingMinimalDisruption is the consistent-hashing property the tier
// exists for: removing a node moves ONLY that node's keys; keys owned by
// survivors keep their owner, so a membership change does not flush the
// cluster's worth of cache placement.
func TestRingMinimalDisruption(t *testing.T) {
	before := NewRing([]string{"a", "b", "c"}, 64)
	after := NewRing([]string{"a", "b"}, 64)
	moved, kept := 0, 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%d", i)
		was, is := before.Owner(key), after.Owner(key)
		if was == "c" {
			if is == "c" {
				t.Fatalf("%s still owned by removed node", key)
			}
			moved++
			continue
		}
		if was != is {
			t.Fatalf("%s moved %s -> %s although its owner survived", key, was, is)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
}

func TestRingStableAcrossConstruction(t *testing.T) {
	// Node order must not matter: the ring is a pure function of the set.
	r1 := NewRing([]string{"a", "b", "c"}, 16)
	r2 := NewRing([]string{"c", "a", "b"}, 16)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		if r1.Owner(key) != r2.Owner(key) {
			t.Fatalf("%s: owner differs across construction order", key)
		}
	}
}

// TestRingIdentity: the ring identity must be the exact string peers dial —
// a silent mismatch would make nodes disagree on key ownership.
func TestRingIdentity(t *testing.T) {
	// Concrete configured address wins verbatim (not the resolved form).
	id, err := ringIdentity(Config{Listen: "127.0.0.1:9091"}, "127.0.0.1:9091")
	if err != nil || id != "127.0.0.1:9091" {
		t.Fatalf("id=%q err=%v", id, err)
	}
	// Advertise overrides everything.
	id, err = ringIdentity(Config{Listen: ":9091", Advertise: "node1:9091"}, "[::]:9091")
	if err != nil || id != "node1:9091" {
		t.Fatalf("id=%q err=%v", id, err)
	}
	// Unspecified host with peers and no Advertise is an error, not a
	// silently wrong ring.
	if _, err := ringIdentity(Config{Listen: ":9091", Peers: []string{"127.0.0.1:9092"}}, "[::]:9091"); err == nil {
		t.Fatal("expected error for unroutable identity")
	}
	if _, err := ringIdentity(Config{Listen: "0.0.0.0:9091", Peers: []string{"x:1"}}, "0.0.0.0:9091"); err == nil {
		t.Fatal("expected error for 0.0.0.0 identity")
	}
	// Solo node on an unspecified host is fine (local mode).
	if _, err := ringIdentity(Config{Listen: ":9091"}, "[::]:9091"); err != nil {
		t.Fatal(err)
	}
	// Port 0 (tests): resolved address.
	id, err = ringIdentity(Config{Listen: "127.0.0.1:0"}, "127.0.0.1:41234")
	if err != nil || id != "127.0.0.1:41234" {
		t.Fatalf("id=%q err=%v", id, err)
	}
	// Garbage listen string.
	if _, err := ringIdentity(Config{Listen: "no-port"}, "x"); err == nil {
		t.Fatal("expected error for bad listen address")
	}
}

func TestParsePeerList(t *testing.T) {
	if got := ParsePeerList(" a:1, b:2 ,,c:3 "); len(got) != 3 || got[0] != "a:1" || got[2] != "c:3" {
		t.Fatalf("got %v", got)
	}
	if got := ParsePeerList(" , ,"); got != nil {
		t.Fatalf("got %v", got)
	}
}
