package bench

import (
	"context"
	"fmt"
	"time"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
	"autowebcache/internal/memdb"
	"autowebcache/internal/rubis"
	"autowebcache/internal/tpcw"
	"autowebcache/internal/weave"
	"autowebcache/internal/workload"
)

// Params scales the experiments. Full reproduces the paper's axes; Fast is
// small enough for testing.B benchmark iterations and CI.
type Params struct {
	RubisClients []int // client-count sweep for RUBiS figures
	TpcwClients  []int // client-count sweep for TPC-W figures

	Warmup  int // warm-up requests per data point (paper: 15 min)
	Measure int // measured requests per data point (paper: 30 min)

	Think time.Duration // mean client think time (paper: 7 s)

	// ReadLat/WriteLat simulate the per-statement base service time of the
	// paper's separate database server; RowCost adds a per-row-visited
	// component so scans cost proportionally more than index probes.
	ReadLat  time.Duration
	WriteLat time.Duration
	RowCost  time.Duration

	RubisScale rubis.Scale
	TpcwScale  tpcw.Scale

	Seed int64
}

// Full returns the experiment parameters `go run ./cmd/experiments` uses by
// default: the paper's client axes with scaled think time and dataset.
func Full() Params {
	return Params{
		RubisClients: []int{100, 250, 500, 750, 1000},
		TpcwClients:  []int{50, 100, 200, 300, 400},
		Warmup:       8000,
		Measure:      15000,
		Think:        2 * time.Millisecond,
		ReadLat:      60 * time.Microsecond,
		WriteLat:     40 * time.Microsecond,
		RowCost:      2 * time.Microsecond,
		RubisScale:   rubis.DefaultScale(),
		TpcwScale:    tpcw.DefaultScale(),
		Seed:         42,
	}
}

// Fast returns parameters small enough for unit tests and testing.B loops.
func Fast() Params {
	return Params{
		RubisClients: []int{10, 40},
		TpcwClients:  []int{10, 40},
		Warmup:       150,
		Measure:      600,
		Think:        0,
		ReadLat:      20 * time.Microsecond,
		WriteLat:     15 * time.Microsecond,
		RowCost:      time.Microsecond,
		RubisScale: rubis.Scale{
			Regions: 4, Categories: 8, Users: 50, Items: 120,
			BidsPerItem: 3, CommentsPerUser: 2, BuyNows: 30, Seed: 1,
		},
		TpcwScale: tpcw.Scale{
			Items: 150, Authors: 40, Customers: 60, Orders: 80,
			LinesPerOrder: 3, Countries: 10, Seed: 1,
		},
		Seed: 42,
	}
}

// SystemConfig selects one deployment configuration of the system under
// test.
type SystemConfig struct {
	// Cached enables AutoWebCache; false is the paper's "No cache"
	// baseline.
	Cached bool
	// Strategy is the invalidation strategy (default AC-extraQuery, as in
	// the paper).
	Strategy analysis.Strategy
	// ForceMiss makes every lookup miss, to measure lookup overhead.
	ForceMiss bool
	// MaxBytes bounds the cache (0 = unbounded; bounded caches evict by
	// segmented LRU); Admission adds the TinyLFU admission filter on top.
	MaxBytes  int64
	Admission bool
	// BestSellerWindow grants TPC-W BestSellers its semantic TTL.
	BestSellerWindow time.Duration
	// Fragments enables fragment-granular caching for handlers declaring a
	// segment decomposition.
	Fragments bool
	// Personalized switches RUBiS to the personalised bidding mix: the
	// fragmented pages carry a per-session parameter, splitting whole-page
	// cache keys per user while fragments stay shared.
	Personalized bool
}

func (cfg SystemConfig) label() string {
	switch {
	case !cfg.Cached:
		return "NoCache"
	case cfg.ForceMiss:
		return "ForcedMiss"
	case cfg.Fragments:
		return "AutoWebCache+Fragments"
	case cfg.BestSellerWindow > 0:
		return "AutoWebCache+Semantics"
	default:
		return "AutoWebCache"
	}
}

// deployment is one fully wired system under test.
type deployment struct {
	db    *memdb.DB
	eng   *analysis.Engine
	cache *cache.Cache
	woven *weave.Woven
	mix   workload.Source
}

func (cfg SystemConfig) strategyOrDefault() analysis.Strategy {
	if cfg.Strategy == 0 {
		return analysis.StrategyExtraQuery
	}
	return cfg.Strategy
}

// newRubis builds a RUBiS deployment with the bidding mix.
func newRubis(p Params, cfg SystemConfig) (*deployment, error) {
	db := memdb.New()
	lastDate, err := rubis.Load(db, p.RubisScale)
	if err != nil {
		return nil, fmt.Errorf("bench: loading RUBiS: %w", err)
	}
	db.SetLatency(p.ReadLat, p.WriteLat)
	db.SetRowCost(p.RowCost)
	eng, err := analysis.NewEngine(cfg.strategyOrDefault(), db)
	if err != nil {
		return nil, err
	}
	mix := rubis.BiddingMix(p.RubisScale)
	if cfg.Personalized {
		mix = rubis.PersonalizedMix(p.RubisScale)
	}
	d := &deployment{db: db, eng: eng, mix: mix}
	conn, err := d.buildConn(cfg)
	if err != nil {
		return nil, err
	}
	app := rubis.New(conn, p.RubisScale, lastDate)
	d.woven, err = weave.New(app.Handlers(), d.cache, weave.Rules{Fragments: cfg.Fragments})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// newTpcw builds a TPC-W deployment with the shopping mix and the paper's
// weaving rules (Home and SearchRequest uncacheable).
func newTpcw(p Params, cfg SystemConfig) (*deployment, error) {
	db := memdb.New()
	lastDate, err := tpcw.Load(db, p.TpcwScale)
	if err != nil {
		return nil, fmt.Errorf("bench: loading TPC-W: %w", err)
	}
	db.SetLatency(p.ReadLat, p.WriteLat)
	db.SetRowCost(p.RowCost)
	eng, err := analysis.NewEngine(cfg.strategyOrDefault(), db)
	if err != nil {
		return nil, err
	}
	d := &deployment{db: db, eng: eng, mix: tpcw.ShoppingMix(p.TpcwScale)}
	conn, err := d.buildConn(cfg)
	if err != nil {
		return nil, err
	}
	app := tpcw.New(conn, p.TpcwScale, lastDate)
	rules := tpcw.WeaveRules(cfg.BestSellerWindow)
	rules.Fragments = cfg.Fragments
	d.woven, err = weave.New(app.Handlers(), d.cache, rules)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// buildConn returns the connection the application runs over: the database
// itself, or, when the page cache is on, the recording connection feeding it.
func (d *deployment) buildConn(cfg SystemConfig) (memdb.Conn, error) {
	if !cfg.Cached {
		return d.db, nil
	}
	var err error
	d.cache, err = cache.New(cache.Options{
		Engine:    d.eng,
		MaxBytes:  cfg.MaxBytes,
		Admission: cfg.Admission,
		ForceMiss: cfg.ForceMiss,
	})
	if err != nil {
		return nil, err
	}
	return weave.NewConn(d.db, d.eng), nil
}

// run drives the deployment with the given client count and returns the
// measurement-phase result.
func (d *deployment) run(p Params, clients int) workload.Result {
	return workload.Run(context.Background(), d.woven, d.mix, d.woven.Stats(), workload.Config{
		Clients:         clients,
		ThinkTime:       p.Think,
		WarmupRequests:  p.Warmup,
		MeasureRequests: p.Measure,
		Seed:            p.Seed,
	})
}
