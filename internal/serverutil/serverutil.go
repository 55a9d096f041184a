// Package serverutil is the shared boot wiring of the benchmark servers
// (cmd/rubis-server, cmd/tpcw-server): the common flag set, the translation
// from flags to facade configuration, and the serve loop with cluster
// attachment, admin surface, signal handling and exit statistics. Each
// server keeps only its application-specific pieces — seeding, weave rules
// and any extra flags (rubis: -strategy, tpcw: -bestseller-window).
package serverutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"autowebcache"
	"autowebcache/internal/cluster"
)

// Flags is the flag set shared by the benchmark servers. Register declares
// every flag exactly once; server-specific flags are added by the caller on
// the same FlagSet.
type Flags struct {
	Addr      *string
	DB        *string
	NoCache   *bool
	MaxBytes  *string
	Admission *bool
	Fragments *bool
	// L2 and L2MaxBytes configure the disk cache tier: a directory for
	// demoted pages (warm restarts) and its file-footprint budget.
	L2         *string
	L2MaxBytes *string
	// Encodings and ETag select the serve-path representation: which
	// content-encoding variants the cache builds at insert, and whether
	// entries carry strong validators for 304 revalidation.
	Encodings *string
	ETag      *bool

	ListenPeer       *string
	Peers            *string
	ProbeInterval    *time.Duration
	FailureThreshold *int
	// Invalidation and Replication only keep existing command lines
	// parsing: the peer tier is strong and single-owner, so Config accepts
	// "strong" and 1 and rejects everything else.
	Invalidation *string
	Replication  *int

	MetricsListen *string
}

// Register declares the shared flags on fs.
func Register(fs *flag.FlagSet, defaultAddr string) *Flags {
	return &Flags{
		Addr:       fs.String("addr", defaultAddr, "listen address"),
		DB:         fs.String("db", "memdb", "database backend DSN: memdb, memdb:<name>, or sqlite:<path> (file shared across processes)"),
		NoCache:    fs.Bool("nocache", false, "serve the uncached baseline"),
		MaxBytes:   fs.String("max-bytes", "", "page-cache memory budget (e.g. 64m, 1gib; empty = unbounded)"),
		Admission:  fs.Bool("admission", false, "gate inserts with a TinyLFU admission filter under byte-budget pressure; with -l2 a refused page goes to disk (requires -max-bytes)"),
		Fragments:  fs.Bool("fragments", false, "fragment-granular (ESI-style) caching: assemble pages from per-fragment cache hits"),
		L2:         fs.String("l2", "", "disk cache tier directory: evicted pages demote to disk, pages memory refuses spill there, and restarts boot warm (empty disables)"),
		L2MaxBytes: fs.String("l2-max-bytes", "", "disk tier file budget (e.g. 2gib; empty = unbounded); requires -l2"),
		Encodings:  fs.String("encodings", "", "comma-separated content-encodings to cache and serve (e.g. gzip); empty = identity only"),
		ETag:       fs.Bool("etag", false, "precompute strong ETags at insert and answer If-None-Match revalidations with 304"),

		ListenPeer:       fs.String("listen-peer", "", "cluster peer-protocol listen address (enables the peer tier)"),
		Peers:            fs.String("peers", "", "comma-separated peer addresses of the other cluster nodes"),
		ProbeInterval:    fs.Duration("probe-interval", 0, "cluster peer health-probe cadence (0 = 250ms, negative disables)"),
		FailureThreshold: fs.Int("failure-threshold", 0, "consecutive peer-call failures before the circuit breaker opens (0 = 3)"),
		Invalidation:     fs.String("invalidation", "strong", "cluster invalidation mode: only strong (async was removed)"),
		Replication:      fs.Int("replication", 1, "owner nodes per key: only 1 (replication above 1 was removed)"),

		MetricsListen: fs.String("metrics-listen", "", "admin listen address serving /metrics (Prometheus), /statsz, /healthz and /debug/pprof (empty disables)"),
	}
}

// Config translates the parsed shared flags into a facade Config. Callers
// set server-specific fields (e.g. Strategy) on the result.
func (f *Flags) Config() (autowebcache.Config, error) {
	budget, err := autowebcache.ParseByteSize(*f.MaxBytes)
	if err != nil {
		return autowebcache.Config{}, err
	}
	l2Budget, err := autowebcache.ParseByteSize(*f.L2MaxBytes)
	if err != nil {
		return autowebcache.Config{}, err
	}
	if *f.L2 == "" && *f.L2MaxBytes != "" {
		return autowebcache.Config{}, fmt.Errorf("-l2-max-bytes requires -l2")
	}
	if *f.Invalidation != "strong" {
		return autowebcache.Config{}, fmt.Errorf("-invalidation %s: only strong remains (async invalidation was removed)", *f.Invalidation)
	}
	if *f.Replication != 1 {
		return autowebcache.Config{}, fmt.Errorf("-replication %d: only 1 remains (replication above 1 was removed)", *f.Replication)
	}
	return autowebcache.Config{
		Disabled:  *f.NoCache,
		Admission: *f.Admission,
		PageCache: autowebcache.PageCacheConfig{
			MaxBytes:   budget,
			L2Path:     *f.L2,
			L2MaxBytes: l2Budget,
		},
		Serve: autowebcache.ServeConfig{
			Encodings: splitList(*f.Encodings),
			ETags:     *f.ETag,
		},
	}, nil
}

// ClusterConfig translates the parsed cluster flags.
func (f *Flags) ClusterConfig() autowebcache.ClusterConfig {
	return autowebcache.ClusterConfig{
		ListenPeer:       *f.ListenPeer,
		Peers:            cluster.ParsePeerList(*f.Peers),
		ProbeInterval:    *f.ProbeInterval,
		FailureThreshold: *f.FailureThreshold,
	}
}

func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// ParseStrategy maps the -strategy flag values to facade strategies.
func ParseStrategy(s string) (autowebcache.Strategy, error) {
	switch strings.ToLower(s) {
	case "columnonly":
		return autowebcache.ColumnOnly, nil
	case "wherematch":
		return autowebcache.WhereMatch, nil
	case "extraquery", "ac-extraquery":
		return autowebcache.ExtraQuery, nil
	}
	return 0, fmt.Errorf("unknown strategy %q", s)
}

// Serve runs the woven handler to completion: attaches the cluster peer
// tier and the admin surface per the flags, serves HTTP until SIGINT or a
// listener error, then logs cache and cluster statistics. banner is logged
// once serving starts.
func (f *Flags) Serve(rt *autowebcache.Runtime, handler *autowebcache.Woven, banner string) error {
	node, err := rt.Cluster(handler, f.ClusterConfig())
	if err != nil {
		return err
	}
	if node != nil {
		defer node.Close()
		log.Printf("cluster peer tier on %s (%d-node ring, strong invalidation)",
			node.Addr(), node.Ring().Len())
	}

	if *f.MetricsListen != "" {
		admin := autowebcache.NewAdmin().Watch(rt, handler, node)
		adminSrv := &http.Server{Addr: *f.MetricsListen, Handler: admin.Handler(), ReadHeaderTimeout: 5 * time.Second}
		defer adminSrv.Close()
		go func() {
			if err := adminSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("admin listener: %v", err)
			}
		}()
		log.Printf("admin surface on %s (/metrics, /statsz, /healthz, /debug/pprof)", *f.MetricsListen)
	}

	srv := &http.Server{Addr: *f.Addr, Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	// SIGTERM (the process supervisor's stop signal) must take the same
	// graceful path as Ctrl-C: with a disk cache tier attached, only a
	// graceful exit spills the in-memory tier and closes the journal, which
	// is what makes the next boot warm.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Print(banner)

	select {
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
	}
	if c := rt.Cache(); c != nil {
		log.Printf("cache stats at exit: %+v", c.Snapshot())
	}
	if node != nil {
		log.Printf("cluster stats at exit: %+v", node.Snapshot())
	}
	// Detach the peer tier before spilling: a peer invalidation landing
	// mid-spill would race the store shutdown. Node.Close is idempotent, so
	// the deferred close above stays as the error-path safety net.
	if node != nil {
		node.Close()
	}
	// Spill the cache into the disk tier (when one is attached), sync and
	// close its journal, and release the backend — the step that makes the
	// next boot warm.
	if err := rt.Close(); err != nil {
		log.Printf("runtime close: %v", err)
		return err
	}
	return nil
}
