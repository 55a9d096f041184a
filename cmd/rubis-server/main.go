// Command rubis-server serves the RUBiS auction-site benchmark over HTTP,
// with or without AutoWebCache in front of it.
//
// Usage:
//
//	rubis-server -addr :8080                 # cache-enabled (AC-extraQuery)
//	rubis-server -nocache                    # baseline
//	rubis-server -strategy columnonly        # pick an invalidation strategy
//	rubis-server -encodings gzip -etag       # gzip variants + 304 revalidation
//
// Clustered (one logical cache across N processes):
//
//	rubis-server -addr :8080 -listen-peer 127.0.0.1:9080 \
//	    -peers 127.0.0.1:9081,127.0.0.1:9082
//
// Observability (see docs/OPERATIONS.md and docs/METRICS.md):
//
//	rubis-server ... -metrics-listen 127.0.0.1:9190
//	curl http://127.0.0.1:9190/metrics   # Prometheus text format
//
// Visit / for the home page; /browseCategories, /viewItem?itemId=1, etc.
// Responses carry an X-Autowebcache header (hit/miss/remote-hit/write/...).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"autowebcache"
	"autowebcache/internal/rubis"
	"autowebcache/internal/serverutil"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal("rubis-server: ", err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rubis-server", flag.ContinueOnError)
	flags := serverutil.Register(fs, ":8080")
	strategy := fs.String("strategy", "extraquery", "invalidation strategy: columnonly, wherematch, extraquery")
	if err := fs.Parse(args); err != nil {
		return err
	}
	strat, err := serverutil.ParseStrategy(*strategy)
	if err != nil {
		return err
	}
	cfg, err := flags.Config()
	if err != nil {
		return err
	}
	cfg.Strategy = strat

	rt, err := autowebcache.Open(*flags.DB, cfg)
	if err != nil {
		return err
	}
	defer rt.Close()
	scale := rubis.DefaultScale()
	lastDate, err := rubis.Seed(context.Background(), rt.RawConn(), scale)
	if err != nil {
		return err
	}
	app := rubis.New(rt.Conn(), scale, lastDate)
	handler, err := rt.Weave(app.Handlers(), autowebcache.Rules{Fragments: *flags.Fragments})
	if err != nil {
		return err
	}
	return flags.Serve(rt, handler, fmt.Sprintf(
		"RUBiS serving on %s (cache=%v, strategy=%v, fragments=%v)",
		*flags.Addr, !*flags.NoCache, strat, *flags.Fragments))
}
