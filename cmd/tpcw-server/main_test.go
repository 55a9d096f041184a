package main

import (
	"net/http"
	"testing"

	"autowebcache"
)

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-nosuch"}); err == nil {
		t.Fatal("expected flag error")
	}
	if err := run([]string{"-peers", "127.0.0.1:9999"}); err == nil {
		t.Fatal("expected error for -peers without -listen-peer")
	}
}

// TestClusterBootTPCW covers this binary's cluster wiring through the
// shared facade entry point.
func TestClusterBootTPCW(t *testing.T) {
	rt, err := autowebcache.New(autowebcache.NewDB(), autowebcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	handler, err := rt.Weave([]autowebcache.HandlerInfo{{
		Name: "Home", Path: "/", Fn: func(w http.ResponseWriter, r *http.Request) {},
	}}, autowebcache.Rules{})
	if err != nil {
		t.Fatal(err)
	}
	if node, err := rt.Cluster(handler, autowebcache.ClusterConfig{}); err != nil || node != nil {
		t.Fatalf("disabled: node=%v err=%v", node, err)
	}
	node, err := rt.Cluster(handler, autowebcache.ClusterConfig{
		ListenPeer: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if node.Addr() == "" {
		t.Fatal("no resolved peer address")
	}
}
