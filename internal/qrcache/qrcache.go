// Package qrcache implements the paper's §9 extension: a database
// query-result cache complementary to the web-page cache. It wraps a
// datasource.Conn and caches SELECT result sets keyed by (template, value
// vector), kept strongly consistent by the same query-analysis engine the
// page cache uses — the design of the Middleware 2000 result-set caching
// system the paper compares against ([8]), but driven by AutoWebCache's
// analysis instead of a compiler.
//
// It composes with the weave package: stack it under the RecordingConn
// (weave.NewConn(qrcache.New(db, engine, opts), engine)) so pages that the
// front-end cache cannot hold still skip the database on repeated queries.
// That stack is the experiments harness's PageCache+QueryCache
// configuration (internal/bench, -fig C), this package's only user: over
// an in-process database the extra layer costs more than the queries it
// saves, so the facade, the servers and the peer tier do not wire it.
//
// A cached result set is simply a page whose only dependency is itself, so
// the cache is a thin instantiation of the governed store the page cache is
// built on (cache.Store): the value is the snapshotted *datasource.Rows,
// the dependency set is the one query, the cost is resultCost. Budgets,
// eviction, admission, the write sweep and the epoch ring are the store's;
// this package adds canonicalisation and the Conn interposition.
package qrcache

import (
	"context"
	"fmt"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
	"autowebcache/internal/datasource"
)

// Stats are the result cache's counters: the store's own.
type Stats = cache.StoreStats

// Options bounds a Conn: the store's governance options (byte budget,
// admission filtering, stripe count). A bounded Conn evicts by segmented LRU.
type Options = cache.Governance

// entryOverhead approximates the bookkeeping cost of one cached result set
// beyond its payload: entry struct, map slots, dependency and probe-index
// slots.
const entryOverhead = 256

// resultCost is the accounted byte size of one cached result set: the full
// cache key, the snapshotted rows and the fixed overhead.
func resultCost(key string, rows *datasource.Rows) int64 {
	return entryOverhead + int64(len(key)) + rows.ByteSize()
}

// Conn is a caching connection. It is safe for concurrent use.
type Conn struct {
	base   datasource.Conn
	engine *analysis.Engine
	store  *cache.Store[*datasource.Rows]
}

var _ datasource.Conn = (*Conn)(nil)

// New wraps base with a result cache bounded by opts (the zero Options is
// unbounded). The engine decides write/read intersections.
func New(base datasource.Conn, engine *analysis.Engine, opts Options) (*Conn, error) {
	if base == nil || engine == nil {
		return nil, fmt.Errorf("qrcache: base connection and engine are required")
	}
	store, err := cache.NewStore[*datasource.Rows](cache.StoreOptions{
		Governance: opts,
		Engine:     engine,
		// Assume modest result sets when only the byte bound is known.
		AssumedEntryBytes: 1024,
	})
	if err != nil {
		return nil, err
	}
	return &Conn{base: base, engine: engine, store: store}, nil
}

// noStoreKey marks contexts whose queries may be served from the cache but
// must not be inserted — used for the engine's own pre-write extra queries,
// whose results are invalidated moments later by the very write that
// triggered them.
type noStoreKey struct{}

// Query serves a SELECT from the result cache when possible.
//
// Ownership contract: the result set is snapshotted exactly once, when it
// is inserted on a miss; every hit returns that shared immutable snapshot
// by reference, with no per-hit copy of columns or rows. Callers must
// treat the returned Rows as read-only — mutating them is a data race and
// corrupts the cache for every later reader. Invalidation removes whole
// entries and never rewrites rows in place, so a view obtained before an
// invalidation stays valid and self-consistent for as long as it is held.
func (c *Conn) Query(ctx context.Context, sql string, args ...any) (*datasource.Rows, error) {
	tmpl, err := c.engine.Canonical(sql)
	if err != nil {
		return c.base.Query(ctx, sql, args...) // let the base report the error
	}
	vals, err := datasource.NormalizeAll(args)
	if err != nil {
		return nil, err
	}
	// The full key — template, NUL, value vector — is rendered into a stack
	// buffer, so a lookup allocates it exactly once.
	var buf [128]byte
	key := string(datasource.AppendKeyOfValues(append(append(buf[:0], tmpl...), 0), vals))
	if it, ok := c.store.Get(key); ok {
		// Zero-copy hit: hand out the stored immutable snapshot.
		return it.Val, nil
	}
	// The epoch is read before the database is: a write whose sweep starts
	// after this point is visible to InsertSince below (§3.2 across the
	// read->insert window, exactly as the weave guards page inserts).
	epoch0 := c.store.Epoch()
	rows, err := c.base.Query(ctx, sql, args...)
	if err != nil {
		return nil, err
	}
	if ctx.Value(noStoreKey{}) != nil {
		return rows, nil
	}
	// The store's guard refuses rows a write overtook during the database
	// read or the insert; the caller still gets them — its read preceded the
	// write.
	deps := []analysis.Query{{SQL: tmpl, Args: vals}}
	c.store.InsertSince(epoch0, key, deps, func() {
		// The reservation precedes the snapshot copy: a result set the budget
		// refuses (oversize, or colder than every victim) is returned to the
		// caller uncopied and simply not cached.
		cost := resultCost(key, rows)
		if !c.store.Reserve(key, cost) {
			return
		}
		// Snapshot once at insert; the snapshot is both what the cache stores
		// and what this (missing) caller receives, so hits and the originating
		// miss all share the same immutable data.
		rows = rows.Snapshot()
		c.store.Commit(cache.Item[*datasource.Rows]{Key: key, Val: rows, Deps: deps, Cost: cost})
	})
	return rows, nil
}

// Exec forwards a write and invalidates every cached result set the write
// intersects. The capture runs before the write, as the extra-query
// strategy requires.
func (c *Conn) Exec(ctx context.Context, sql string, args ...any) (datasource.Result, error) {
	tmpl, cerr := c.engine.Canonical(sql)
	var capture analysis.WriteCapture
	captured := false
	if cerr == nil {
		if vals, nerr := datasource.NormalizeAll(args); nerr == nil {
			var err error
			// The extra query runs through the result cache itself (lookup
			// only): when a page-cache layer above has just captured the
			// same write, its identical SELECT is served from here instead
			// of hitting the database twice.
			capture, err = c.engine.CaptureWrite(context.WithValue(ctx, noStoreKey{}, true), c,
				analysis.Query{SQL: tmpl, Args: vals})
			captured = err == nil
		}
	}
	res, err := c.base.Exec(ctx, sql, args...)
	if err != nil {
		return res, err
	}
	if captured {
		_, err = c.store.InvalidateWrite(capture)
	}
	if !captured || err != nil {
		// Unanalysable write: flush, so no stale result is ever served —
		// over-invalidation is always sound.
		c.store.Flush()
	}
	return res, nil
}

// Snapshot returns a point-in-time copy of the counters — the canonical
// stats accessor shared by every layer; the telemetry collectors consume
// it.
func (c *Conn) Snapshot() Stats { return c.store.Snapshot() }
