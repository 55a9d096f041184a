package serverutil

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"autowebcache"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, ":0")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestConfigMapsServeFlags(t *testing.T) {
	f := parse(t, "-encodings", "gzip, identity", "-etag", "-max-bytes", "64k")
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Serve.Encodings; len(got) != 2 || got[0] != "gzip" || got[1] != "identity" {
		t.Fatalf("Encodings = %v", got)
	}
	if !cfg.Serve.ETags {
		t.Fatal("-etag not mapped")
	}
	if cfg.PageCache.MaxBytes != 64<<10 {
		t.Fatalf("MaxBytes = %d", cfg.PageCache.MaxBytes)
	}
}

func TestConfigDefaultsIdentityOnly(t *testing.T) {
	cfg, err := parse(t).Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Serve.Encodings != nil || cfg.Serve.ETags {
		t.Fatalf("serving knobs should default off: %+v", cfg.Serve)
	}
}

func TestConfigBadByteSize(t *testing.T) {
	if _, err := parse(t, "-max-bytes", "lots").Config(); err == nil {
		t.Fatal("bad -max-bytes accepted")
	}
}

func TestClusterConfigMapsFlags(t *testing.T) {
	f := parse(t, "-listen-peer", "127.0.0.1:9080", "-peers", "a:1, b:2", "-failure-threshold", "5")
	cc := f.ClusterConfig()
	if cc.ListenPeer != "127.0.0.1:9080" || len(cc.Peers) != 2 || cc.FailureThreshold != 5 {
		t.Fatalf("ClusterConfig = %+v", cc)
	}
}

// benchmarkLines are the rubis-server command lines of the end-to-end
// benchmark's workloads (benchmark/workload.go: each workload's Flags after
// the harness's -addr/-metrics-listen/-db prefix, plus the
// -listen-peer/-peers pair it appends to clustered nodes). The harness
// parses them with Register and feeds Config and ClusterConfig to the
// facade, so a flag change that breaks one breaks the benchmark. {dir}
// stands for the run's private directory.
var benchmarkLines = map[string][]string{
	"browse-warm": {"-addr", "127.0.0.1:0", "-metrics-listen", "127.0.0.1:0", "-db", "memdb",
		"-encodings", "gzip", "-etag"},
	"bid-mix": {"-addr", "127.0.0.1:0", "-metrics-listen", "127.0.0.1:0", "-db", "memdb"},
	"bid-tiered": {"-addr", "127.0.0.1:0", "-metrics-listen", "127.0.0.1:0", "-db", "sqlite:{dir}/db",
		"-max-bytes", "256k", "-admission", "-l2", "{dir}/l2-0", "-l2-max-bytes", "64m"},
	"bid-cluster3": {"-addr", "127.0.0.1:0", "-metrics-listen", "127.0.0.1:0", "-db", "sqlite:{dir}/db",
		"-invalidation", "strong", "-replication", "1",
		"-listen-peer", "127.0.0.1:0", "-peers", "127.0.0.1:1,127.0.0.1:2"},
}

// TestBenchmarkFlagsBoot parses every benchmark command line and takes it
// through Config, ClusterConfig and the facade boot Serve performs before
// serving (Runtime, Weave, Cluster). The removed peer-tier modes must fail
// at Config, naming the removal.
func TestBenchmarkFlagsBoot(t *testing.T) {
	for name, line := range benchmarkLines {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			args := make([]string, len(line))
			for i, a := range line {
				args[i] = strings.ReplaceAll(a, "{dir}", dir)
			}
			f := parse(t, args...)
			cfg, err := f.Config()
			if err != nil {
				t.Fatal(err)
			}
			rt, err := autowebcache.New(autowebcache.NewDB(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			h, err := rt.Weave([]autowebcache.HandlerInfo{{
				Name: "Home", Path: "/", Fn: func(http.ResponseWriter, *http.Request) {},
			}}, autowebcache.Rules{})
			if err != nil {
				t.Fatal(err)
			}
			node, err := rt.Cluster(h, f.ClusterConfig())
			if err != nil {
				t.Fatal(err)
			}
			if node != nil {
				node.Close()
			}
		})
	}
	for _, removed := range [][]string{
		{"-invalidation", "async"},
		{"-replication", "2"},
	} {
		_, err := parse(t, removed...).Config()
		if err == nil || !strings.Contains(err.Error(), "removed") {
			t.Fatalf("%v: err = %v, want a removed-mode error", removed, err)
		}
	}
}

// TestEveryConfigFieldHasAFlag is the knob gate: a facade Config field that
// no server flag sets is a knob nothing deploys or measures. It parses every
// shared flag away from its default, walks the Config that Flags.Config
// returns and fails on any field left at its zero value. The one exemption
// is Strategy, which cmd/rubis-server's own -strategy flag sets.
func TestEveryConfigFieldHasAFlag(t *testing.T) {
	exempt := map[string]bool{"Strategy": true}
	line := []string{
		"-addr", "127.0.0.1:1", "-db", "memdb:gate", "-nocache", "-fragments",
		"-max-bytes", "64k", "-admission", "-l2", t.TempDir(), "-l2-max-bytes", "1m",
		"-encodings", "gzip", "-etag", "-metrics-listen", "127.0.0.1:2",
		"-listen-peer", "127.0.0.1:3", "-peers", "127.0.0.1:4",
		"-probe-interval", "1s", "-failure-threshold", "5",
		// These two accept only their defaults.
		"-invalidation", "strong", "-replication", "1",
	}
	fs := flag.NewFlagSet("gate", flag.ContinueOnError)
	f := Register(fs, ":0")
	if err := fs.Parse(line); err != nil {
		t.Fatal(err)
	}
	set := make(map[string]bool)
	fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	fs.VisitAll(func(fl *flag.Flag) {
		if !set[fl.Name] {
			t.Errorf("shared flag -%s is missing from the gate's command line", fl.Name)
		}
	})
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			name, fv := prefix+v.Type().Field(i).Name, v.Field(i)
			switch {
			case exempt[name]:
			case fv.Kind() == reflect.Struct:
				walk(name+".", fv)
			case fv.IsZero():
				t.Errorf("Config.%s is left zero by every server flag: no deployment sets it", name)
			}
		}
	}
	walk("", reflect.ValueOf(cfg))
}

// TestShutdownClosesStalledClients: a client that pipelines requests for
// large pages and never reads holds a response write open past the
// shutdown grace period.
// Serve must then close its connection, still run Runtime.Close — which
// spills the cache into the disk tier, emptying memory — and return the
// overrun within the grace period plus a bounded margin.
func TestShutdownClosesStalledClients(t *testing.T) {
	defer func(g time.Duration) { shutdownGrace = g }(shutdownGrace)
	shutdownGrace = 300 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	f := parse(t, "-addr", addr, "-l2", t.TempDir())
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := autowebcache.New(autowebcache.NewDB(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), 1<<20)
	serving := make(chan struct{}, 1)
	h, err := rt.Weave([]autowebcache.HandlerInfo{
		{Name: "Small", Path: "/small", Fn: func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("small")) }},
		{Name: "Big", Path: "/big", Uncacheable: true, Fn: func(w http.ResponseWriter, _ *http.Request) {
			select {
			case serving <- struct{}{}:
			default:
			}
			for i := 0; i < 64; i++ { // far more than the socket buffers hold
				w.Write(big)
			}
		}},
	}, autowebcache.Rules{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- f.Serve(rt, h, "serving") }()
	var resp *http.Response
	for i := 0; ; i++ {
		if resp, err = http.Get("http://" + addr + "/small"); err == nil {
			break
		}
		if i == 200 {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if n := rt.Cache().Len(); n != 1 {
		t.Fatalf("%d pages cached, want 1", n)
	}
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	go stalled.Write(bytes.Repeat([]byte("GET /big HTTP/1.1\r\nHost: x\r\n\r\n"), 4))
	<-serving // the signal handler is installed before the first request is served
	begin := time.Now()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err = <-done:
	case <-time.After(shutdownGrace + 10*time.Second):
		t.Fatal("Serve did not return")
	}
	if elapsed, bound := time.Since(begin), shutdownGrace+drainGrace+2*time.Second; elapsed > bound {
		t.Errorf("shutdown took %v, want at most %v", elapsed, bound)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Serve returned %v, want the grace period's overrun", err)
	}
	if n := rt.Cache().Len(); n != 0 {
		t.Errorf("%d pages still in memory: Runtime.Close never spilled the cache", n)
	}
}
