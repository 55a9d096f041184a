// Package weave is the reproduction's substitute for the paper's AspectJ
// weaving (§4). Go has no aspect-oriented tooling, so the two join-point
// families the paper intercepts are reproduced as explicit interposition at
// the same interfaces, leaving application code untouched:
//
//   - servlet entry/exit (the doGet/doPost pointcuts of Figs. 9–11) become
//     http.Handler middleware: Around advice for read interactions (cache
//     check + insert) and After advice for write interactions (cache
//     invalidation);
//   - JDBC executeQuery/executeUpdate capture (Fig. 12) becomes a
//     RecordingConn wrapping the database connection, which reports each
//     query to a per-request recorder carried in context.Context.
//
// As in the paper, the weaving rules — which interactions are read or
// write, which are uncacheable, which get a semantic freshness window — are
// specified separately (Rules) from both the application and the caching
// library.
package weave

import (
	"context"
	"sync"

	"autowebcache/internal/analysis"
	"autowebcache/internal/datasource"
	"autowebcache/internal/sqlparser"
)

// Recorder accumulates the consistency information of one request: the
// dependency info of read queries (template + value vector, Fig. 5) and the
// invalidation info of write queries (Fig. 6).
type Recorder struct {
	mu      sync.Mutex
	reads   []analysis.Query
	writes  []analysis.WriteCapture
	readErr bool
}

// Reads returns the recorded read-query instances.
func (rec *Recorder) Reads() []analysis.Query {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([]analysis.Query(nil), rec.reads...)
}

// Writes returns the recorded write captures.
func (rec *Recorder) Writes() []analysis.WriteCapture {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([]analysis.WriteCapture(nil), rec.writes...)
}

// ReadFailed reports whether any read query failed during the request; such
// pages are not cached (§4.2: "If a read query is aborted during the
// formation of response for a client request, the corresponding web page is
// not stored in the cache").
func (rec *Recorder) ReadFailed() bool {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.readErr
}

func (rec *Recorder) addRead(q analysis.Query) {
	rec.mu.Lock()
	rec.reads = append(rec.reads, q)
	rec.mu.Unlock()
}

func (rec *Recorder) addWrite(w analysis.WriteCapture) {
	rec.mu.Lock()
	rec.writes = append(rec.writes, w)
	rec.mu.Unlock()
}

func (rec *Recorder) markReadError() {
	rec.mu.Lock()
	rec.readErr = true
	rec.mu.Unlock()
}

type recorderKey struct{}

// WithRecorder returns a context carrying a fresh Recorder, plus the
// recorder itself.
func WithRecorder(ctx context.Context) (context.Context, *Recorder) {
	rec := &Recorder{}
	return context.WithValue(ctx, recorderKey{}, rec), rec
}

// RecorderFrom extracts the request's recorder, if any.
func RecorderFrom(ctx context.Context) (*Recorder, bool) {
	rec, ok := ctx.Value(recorderKey{}).(*Recorder)
	return rec, ok
}

// RecordingConn interposes on the database connection — the reproduction of
// the paper's JDBC-call pointcut (Fig. 12). Queries executed with a context
// carrying a Recorder are reported to it; other queries pass through
// untouched.
type RecordingConn struct {
	base   datasource.Conn
	engine *analysis.Engine
}

var _ datasource.Conn = (*RecordingConn)(nil)

// NewConn wraps a database connection with query capture for the given
// analysis engine.
func NewConn(base datasource.Conn, engine *analysis.Engine) *RecordingConn {
	return &RecordingConn{base: base, engine: engine}
}

// Base returns the wrapped connection.
func (c *RecordingConn) Base() datasource.Conn { return c.base }

// Query executes a read query, recording its (template, value vector) as
// dependency information when the context carries a Recorder.
func (c *RecordingConn) Query(ctx context.Context, sql string, args ...any) (*datasource.Rows, error) {
	rec, recording := RecorderFrom(ctx)
	rows, err := c.base.Query(ctx, sql, args...)
	if !recording {
		return rows, err
	}
	if err != nil {
		rec.markReadError()
		return rows, err
	}
	tmpl, cerr := c.engine.Canonical(sql)
	if cerr != nil {
		// The base connection accepted what we cannot parse; treat the page
		// as uncacheable rather than fail the request.
		rec.markReadError()
		return rows, nil
	}
	vals, nerr := datasource.NormalizeAll(args)
	if nerr != nil {
		rec.markReadError()
		return rows, nil
	}
	rec.addRead(analysis.Query{SQL: tmpl, Args: vals})
	return rows, nil
}

// Exec executes a write query. When the context carries a Recorder, the
// write's invalidation information is captured BEFORE execution (the
// extra-query strategy needs the pre-write row values); writes that fail are
// not recorded (§4.2).
func (c *RecordingConn) Exec(ctx context.Context, sql string, args ...any) (datasource.Result, error) {
	rec, recording := RecorderFrom(ctx)
	if !recording {
		return c.base.Exec(ctx, sql, args...)
	}
	tmpl, cerr := c.engine.Canonical(sql)
	var capture analysis.WriteCapture
	captured := false
	if cerr == nil {
		vals, nerr := datasource.NormalizeAll(args)
		if nerr == nil {
			var err error
			capture, err = c.engine.CaptureWrite(ctx, c.base, analysis.Query{SQL: tmpl, Args: vals})
			captured = err == nil
		}
	}
	res, err := c.base.Exec(ctx, sql, args...)
	if err != nil {
		return res, err // failed writes are not considered for invalidation
	}
	if captured {
		// A single-row INSERT reveals its auto-increment key only after
		// execution; feed it back so the analysis can bind (and exonerate
		// on) the otherwise unknowable fresh key.
		if res.LastInsertID > 0 {
			if ti, terr := c.engine.Template(tmpl); terr == nil && ti.Kind == analysis.KindInsert {
				if ins, ok := ti.Stmt.(*sqlparser.InsertStmt); ok && len(ins.Rows) == 1 {
					capture.AutoID = res.LastInsertID
					capture.HasAutoID = true
				}
			}
		}
		rec.addWrite(capture)
	} else {
		// We executed a write we could not analyse: record a conservative
		// full-table capture is impossible without a template, so mark the
		// request so the weave can flush the cache (never under-invalidate).
		rec.addWrite(analysis.WriteCapture{})
	}
	return res, nil
}
