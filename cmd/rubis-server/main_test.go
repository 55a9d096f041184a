package main

import (
	"net/http"
	"testing"

	"autowebcache"
	"autowebcache/internal/serverutil"
)

func TestParseStrategy(t *testing.T) {
	cases := map[string]bool{
		"columnonly": true, "WhereMatch": true, "extraquery": true,
		"AC-extraQuery": true, "bogus": false, "": false,
	}
	for in, ok := range cases {
		_, err := serverutil.ParseStrategy(in)
		if ok && err != nil {
			t.Errorf("%q: %v", in, err)
		}
		if !ok && err == nil {
			t.Errorf("%q: expected error", in)
		}
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-nosuch"}); err == nil {
		t.Fatal("expected flag error")
	}
	if err := run([]string{"-strategy", "bogus"}); err == nil {
		t.Fatal("expected strategy error")
	}
}

// TestClusterBoot covers the cluster flag plumbing through the facade:
// disabled, misused and properly booted.
func TestClusterBoot(t *testing.T) {
	db := autowebcache.NewDB()
	rt, err := autowebcache.New(db, autowebcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	handler, err := rt.Weave([]autowebcache.HandlerInfo{{
		Name: "Home", Path: "/", Fn: func(w http.ResponseWriter, r *http.Request) {},
	}}, autowebcache.Rules{})
	if err != nil {
		t.Fatal(err)
	}

	// Disabled: no -listen-peer, no node.
	if node, err := rt.Cluster(handler, autowebcache.ClusterConfig{}); err != nil || node != nil {
		t.Fatalf("disabled: node=%v err=%v", node, err)
	}
	// -peers without -listen-peer is a configuration error.
	if _, err := rt.Cluster(handler, autowebcache.ClusterConfig{
		Peers: []string{"127.0.0.1:9999"}}); err == nil {
		t.Fatal("expected error for -peers without -listen-peer")
	}
	// A clustered baseline is contradictory.
	baseline, err := autowebcache.New(autowebcache.NewDB(), autowebcache.Config{Disabled: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := baseline.Cluster(handler, autowebcache.ClusterConfig{
		ListenPeer: "127.0.0.1:0"}); err == nil {
		t.Fatal("expected error for clustering with -nocache")
	}
	// Properly booted, local mode (no peers yet).
	node, err := rt.Cluster(handler, autowebcache.ClusterConfig{
		ListenPeer: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if node.Addr() == "" || node.Ring().Len() != 1 {
		t.Fatalf("node addr=%q ring=%d", node.Addr(), node.Ring().Len())
	}
}
