package analysis

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"autowebcache/internal/datasource"
	"autowebcache/internal/sqlparser"
)

// Strategy selects the cache invalidation policy (§3.2). Precision increases
// down the list; every strategy is sound (never misses a true intersection),
// less precise ones issue more false invalidations.
type Strategy int

// Strategies. Start at 1 so the zero value is invalid.
const (
	// StrategyColumnOnly invalidates whenever the read and write templates
	// share a table and overlapping columns.
	StrategyColumnOnly Strategy = iota + 1
	// StrategyWhereMatch additionally compares the constants bound to
	// equality predicates on common columns.
	StrategyWhereMatch
	// StrategyExtraQuery (the paper's "AC-extraQuery") additionally issues
	// extra SELECTs to fetch the rows affected by a write and tests the
	// read's predicate against them precisely.
	StrategyExtraQuery
)

func (s Strategy) String() string {
	switch s {
	case StrategyColumnOnly:
		return "ColumnOnly"
	case StrategyWhereMatch:
		return "WhereMatch"
	case StrategyExtraQuery:
		return "AC-extraQuery"
	}
	return "INVALID"
}

// Query is one executed query instance: a template (canonical SQL with `?`
// placeholders) plus its dynamic value vector.
type Query struct {
	SQL  string
	Args []datasource.Value
	// Window is what the run showed, for a template with a window
	// (TemplateInfo.WindowOf); nil otherwise, or when it is not known — a
	// dependency that crossed the peer wire or the disk tier carries none.
	Window *Window
}

// WriteCapture is a write query enriched with the consistency information
// captured at execution time. For UPDATE/DELETE under StrategyExtraQuery,
// Affected snapshots the to-be-written rows — fetched *before* the write
// executes, since afterwards deleted rows are gone and updated columns have
// lost their old values.
type WriteCapture struct {
	Query
	// Affected holds the pre-write values of the rows the write touches
	// (full rows, column names in Cols). nil when not captured.
	Affected *datasource.Rows
	// joined holds, for an INSERT under StrategyExtraQuery, the rows of
	// other tables its new row references by key (see CaptureJoined).
	joined []joinedRows
	// AutoID is the auto-increment key assigned to a single-row INSERT,
	// learned after execution. It lets the analysis bind the otherwise
	// unknowable key column — and, because the value is fresh, exonerate
	// reads that join on it.
	AutoID    int64
	HasAutoID bool
}

// Stats is a snapshot of engine counters. PairCache* reproduce the paper's
// Figure 4 query-analysis cache statistics.
type Stats struct {
	Templates       int    // distinct templates analysed
	PairCacheSize   int    // distinct (read, write) template pairs analysed
	PairCacheHits   uint64 // pair analyses served from the cache
	PairCacheMisses uint64 // pair analyses computed
	ExtraQueries    uint64 // extra SELECTs issued (AC-extraQuery)
	Intersections   uint64 // Intersects calls returning true
	Exonerations    uint64 // Intersects calls returning false
}

// Engine is the query-analysis engine. It is safe for concurrent use.
type Engine struct {
	strategy Strategy
	schema   Schema

	mu        sync.RWMutex
	templates map[string]*TemplateInfo
	pairs     map[[2]string]bool // template-level possible-dependency results, keyed by {read, write}
	// joins maps a table to the join references analysed reads make on its
	// columns (see CaptureJoined).
	joins map[string][]joinRef
	// canon memoises raw SQL -> canonical template text; a sync.Map keeps
	// the per-query hot path lock-free once a statement has been seen.
	canon sync.Map
	// autoInc memoises table -> auto-increment column once the schema has
	// reported one, so preparing an INSERT never asks the datasource again.
	autoInc sync.Map

	pairHits      atomic.Uint64
	pairMisses    atomic.Uint64
	extraQueries  atomic.Uint64
	intersections atomic.Uint64
	exonerations  atomic.Uint64
}

// NewEngine creates an analysis engine. schema may be nil (unqualified
// columns in multi-table reads are then attributed conservatively).
func NewEngine(strategy Strategy, schema Schema) (*Engine, error) {
	switch strategy {
	case StrategyColumnOnly, StrategyWhereMatch, StrategyExtraQuery:
	default:
		return nil, fmt.Errorf("analysis: invalid strategy %d", int(strategy))
	}
	return &Engine{
		strategy:  strategy,
		schema:    schema,
		templates: make(map[string]*TemplateInfo),
		pairs:     make(map[[2]string]bool),
		joins:     make(map[string][]joinRef),
	}, nil
}

// Strategy returns the engine's configured strategy.
func (e *Engine) Strategy() Strategy { return e.strategy }

// Canonical maps raw SQL to the canonical template text that keys the
// dependency tables, so equivalent spellings share one template row. The
// memo belongs to the engine, so every layer built on one engine parses
// each statement once.
func (e *Engine) Canonical(sql string) (string, error) {
	if got, ok := e.canon.Load(sql); ok {
		return got.(string), nil
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return "", err
	}
	text := stmt.String()
	e.canon.Store(sql, text)
	return text, nil
}

// Template returns the memoised template metadata for sql.
func (e *Engine) Template(sql string) (*TemplateInfo, error) {
	e.mu.RLock()
	info, ok := e.templates[sql]
	e.mu.RUnlock()
	if ok {
		return info, nil
	}
	info, err := AnalyzeTemplate(sql, e.schema)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	if _, seen := e.templates[info.SQL]; !seen {
		e.registerJoins(info)
	}
	// Keep the canonical text as an additional key so repeated analyses of
	// equivalent spellings hit the cache.
	e.templates[sql] = info
	if info.SQL != sql {
		if _, dup := e.templates[info.SQL]; !dup {
			e.templates[info.SQL] = info
		}
	}
	e.mu.Unlock()
	return info, nil
}

// PossiblyDependent performs the template-level dependency test (shared
// table with overlapping columns), memoised in the pair cache.
func (e *Engine) PossiblyDependent(readSQL, writeSQL string) (bool, error) {
	key := [2]string{readSQL, writeSQL}
	e.mu.RLock()
	dep, ok := e.pairs[key]
	e.mu.RUnlock()
	if ok {
		e.pairHits.Add(1)
		return dep, nil
	}
	ri, err := e.Template(readSQL)
	if err != nil {
		return false, err
	}
	wi, err := e.Template(writeSQL)
	if err != nil {
		return false, err
	}
	dep = ColumnsOverlap(ri, wi)
	e.mu.Lock()
	e.pairs[key] = dep
	e.mu.Unlock()
	e.pairMisses.Add(1)
	return dep, nil
}

// CaptureWrite prepares the consistency information for a write query. Call
// it BEFORE the write executes: under StrategyExtraQuery it snapshots the
// affected rows of UPDATE/DELETE statements with an extra SELECT (the
// paper's §3.2 case 3).
func (e *Engine) CaptureWrite(ctx context.Context, conn datasource.Conn, q Query) (WriteCapture, error) {
	wc := WriteCapture{Query: q}
	if e.strategy != StrategyExtraQuery || conn == nil {
		return wc, nil
	}
	wi, err := e.Template(q.SQL)
	if err != nil {
		return wc, err
	}
	if wi.Kind != KindUpdate && wi.Kind != KindDelete {
		return wc, nil
	}
	table := wi.Tables[0]
	// The write's WHERE clause references placeholders numbered within the
	// full write statement; renumber them for the standalone SELECT and bind
	// the same argument values.
	var args []datasource.Value
	where, err := rebindArgs(wi.Where, q.Args, &args)
	if err != nil {
		return wc, fmt.Errorf("analysis: extra query for %q: %w", q.SQL, err)
	}
	sel := &sqlparser.SelectStmt{
		Items: []sqlparser.SelectItem{{Star: true}},
		From:  []sqlparser.TableRef{{Name: table}},
		Where: where,
	}
	rows, err := conn.Query(ctx, sel.String(), args...)
	if err != nil {
		return wc, fmt.Errorf("analysis: extra query for %q: %w", q.SQL, err)
	}
	e.extraQueries.Add(1)
	wc.Affected = rows
	return wc, nil
}

// Intersects decides whether the write invalidates the read instance,
// according to the engine's strategy. It never returns a false negative:
// when in doubt it reports an intersection.
func (e *Engine) Intersects(read Query, write WriteCapture) (bool, error) {
	pw, err := e.PrepareWrite(write)
	if err != nil {
		return false, err
	}
	return pw.Intersects(read)
}

// PreparedWrite is a write capture with its per-write analysis state
// precomputed, for testing many read instances against one write (the
// dependency-table sweep of a cache invalidation).
type PreparedWrite struct {
	e     *Engine
	w     WriteCapture
	wi    *TemplateInfo
	table string

	whereVals []colValue // write WHERE equality bindings
	autoCol   string     // fresh auto-increment column ("" if none)
	fresh     map[string]bool

	// An UPDATE's written keys on its table's key column keyCol, when
	// keysKnown (see prepareKeys); keyBuf holds one without allocating.
	keyCol    string
	keys      []int64
	keyBuf    [1]int64
	keysKnown bool
}

// colValue is one column bound to a value.
type colValue struct {
	col string
	v   datasource.Value
}

// PrepareWrite analyses the write once so repeated Intersects calls are
// cheap.
func (e *Engine) PrepareWrite(w WriteCapture) (*PreparedWrite, error) {
	wi, err := e.Template(w.SQL)
	if err != nil {
		return nil, err
	}
	if wi.Kind == KindSelect {
		return nil, fmt.Errorf("analysis: PrepareWrite on a SELECT")
	}
	pw := &PreparedWrite{e: e, w: w, wi: wi, table: wi.Tables[0]}
	pw.whereVals = eqValues(wi, w.Args)
	if wi.Kind == KindInsert && w.HasAutoID {
		if ai, ok := e.autoIncrementColumn(pw.table); ok {
			if _, explicit := wi.InsertVals[ai.name]; !explicit {
				pw.autoCol, pw.fresh = ai.name, ai.fresh
			}
		}
	}
	if wi.Kind == KindUpdate {
		if ai, ok := e.autoIncrementColumn(pw.table); ok {
			pw.prepareKeys(ai.name)
		}
	}
	return pw, nil
}

// colIndex locates col among the captured rows' columns.
func (pw *PreparedWrite) colIndex(col string) (int, bool) {
	i := slices.Index(pw.w.Affected.Columns, col)
	return i, i >= 0
}

// Table returns the table the write modifies.
func (pw *PreparedWrite) Table() string { return pw.table }

// Intersects decides whether the write invalidates the read instance.
func (pw *PreparedWrite) Intersects(read Query) (bool, error) {
	e := pw.e
	dep, err := e.PossiblyDependent(read.SQL, pw.w.SQL)
	if err != nil {
		return false, err
	}
	if !dep {
		e.exonerations.Add(1)
		return false, nil
	}
	ri, err := e.Template(read.SQL)
	if err != nil {
		return false, err
	}
	hit, _ := pw.IntersectsDependent(ri, read.Args, read.Window)
	return hit, nil
}

// IntersectsDependent is Intersects for an instance (args, and the window
// win a run of it showed, or nil) of read template ri that
// PossiblyDependent already found dependent on the write — the case of a
// sweep, whose candidates come from the write template's list (Reach) — so
// no template is looked up by its text. spared reports an instance the
// write provably leaves as its window shows it (see window.go). That test
// is a key lookup or one tuple comparison, so it runs before the value
// test, whose verdict it makes moot. ColumnOnly ignores windows, as it
// ignores values.
func (pw *PreparedWrite) IntersectsDependent(ri *TemplateInfo, args []datasource.Value, win *Window) (hit, spared bool) {
	e := pw.e
	if e.strategy != StrategyColumnOnly {
		if win != nil && ri.window != nil && pw.windowSpares(ri.window, win) {
			e.exonerations.Add(1)
			return false, true
		}
		if pw.intersectTri(ri, args) == False {
			e.exonerations.Add(1)
			return false, false
		}
	}
	e.intersections.Add(1)
	return true, false
}

// ExcludesTemplate reports whether no instance of the read template can
// intersect the write, whatever its arguments. The caller has already found
// the template possibly dependent on the write (Engine.PossiblyDependent);
// this is the value-level test with every read argument unknown, which is
// already False for an INSERT's fresh auto-increment key joined on by the
// read, or a WHERE binding the read's literals contradict. Three-valued
// evaluation only moves from Unknown towards a verdict as arguments become
// known, so then Intersects is false for every instance and a sweep may
// skip the template's instances unseen. Under ColumnOnly it is always
// false. It never counts an exoneration.
func (pw *PreparedWrite) ExcludesTemplate(ri *TemplateInfo) bool {
	return pw.e.strategy != StrategyColumnOnly && pw.intersectTri(ri, nil) == False
}

// insertBinding binds the inserted row's columns. Columns absent from the
// INSERT get auto-increment or NULL values the analysis cannot know; they
// bind as unknown — except the auto-increment key when the capture learned
// it post-insert.
func (pw *PreparedWrite) insertBinding(col string) (datasource.Value, bool) {
	if pw.autoCol != "" && col == pw.autoCol {
		return pw.w.AutoID, true
	}
	ref, present := pw.wi.InsertVals[col]
	if !present {
		return nil, false
	}
	return ref.Resolve(pw.w.Args)
}

// whereBinding binds columns guaranteed by the write's top-level WHERE
// equality predicates: rows touched by the write carry these values
// (pre-write).
func (pw *PreparedWrite) whereBinding(col string) (datasource.Value, bool) {
	for _, cv := range pw.whereVals {
		if cv.col == col {
			return cv.v, true
		}
	}
	return nil, false
}

// overlaySet wraps a binding so SET columns reflect their post-update
// values; SET expressions the analysis cannot resolve become unknown.
func (pw *PreparedWrite) overlaySet(base Binding) Binding {
	return func(col string) (datasource.Value, bool) {
		if ref, isSet := pw.wi.SetVals[col]; isSet {
			return ref.Resolve(pw.w.Args)
		}
		return base(col)
	}
}

// intersectTri performs the value-level intersection test. False means
// provably disjoint.
func (pw *PreparedWrite) intersectTri(ri *TemplateInfo, readArgs []datasource.Value) Tri {
	e := pw.e
	switch pw.wi.Kind {
	case KindInsert:
		// The inserted row's values are known from the template + args; a
		// learned auto-increment key additionally counts as fresh
		// (unreferenced by existing rows of other tables), and the rows it
		// joins by key were read after it (CaptureJoined).
		if ri.ReadPred == nil {
			return True
		}
		pe := &predEvaluator{read: ri, target: pw.table, args: readArgs, binding: pw.insertBinding,
			fresh: pw.fresh, schema: e.schema, insert: pw}
		return pe.tri(ri.ReadPred)

	case KindUpdate, KindDelete:
		// Precise path: test the read predicate against each captured row.
		if pw.w.Affected != nil {
			if pw.w.Affected.Len() == 0 {
				return False // the write touched no rows
			}
			for _, row := range pw.w.Affected.Data {
				row := row
				oldBinding := func(col string) (datasource.Value, bool) {
					ci, ok := pw.colIndex(col)
					if !ok {
						return nil, false
					}
					return row[ci], true
				}
				if EvalReadPred(ri, pw.table, readArgs, oldBinding, e.schema) != False {
					return True
				}
				if pw.wi.Kind == KindUpdate {
					if EvalReadPred(ri, pw.table, readArgs, pw.overlaySet(oldBinding), e.schema) != False {
						return True
					}
				}
			}
			return False
		}
		// Template-level path (WhereMatch): bind columns from the write's
		// WHERE equality predicates.
		old := EvalReadPred(ri, pw.table, readArgs, pw.whereBinding, e.schema)
		if pw.wi.Kind == KindDelete {
			return old
		}
		return old.Or(EvalReadPred(ri, pw.table, readArgs, pw.overlaySet(pw.whereBinding), e.schema))
	}
	return Unknown
}

// ProbeKeys returns the probe-key set the write can give column col of its
// table: a read instance whose probe predicate on this table binds col to a
// value outside this set provably does not intersect. ok is false when the
// write's effect on col cannot be bounded (the caller must then test every
// instance).
func (pw *PreparedWrite) ProbeKeys(col string) (keys []string, ok bool) {
	switch pw.wi.Kind {
	case KindInsert:
		if v, known := pw.insertBinding(col); known {
			return []string{ProbeKey(v)}, true
		}
		return nil, false
	case KindUpdate, KindDelete:
		var out []string
		if pw.w.Affected != nil {
			ci, present := pw.colIndex(col)
			if !present {
				return nil, false
			}
			seen := make(map[string]bool)
			for _, row := range pw.w.Affected.Data {
				k := ProbeKey(row[ci])
				if !seen[k] {
					seen[k] = true
					out = append(out, k)
				}
			}
		} else if v, known := pw.whereBinding(col); known {
			out = append(out, ProbeKey(v))
		} else {
			return nil, false
		}
		if pw.wi.Kind == KindUpdate {
			if ref, isSet := pw.wi.SetVals[col]; isSet {
				v, known := ref.Resolve(pw.w.Args)
				if !known {
					return nil, false // SET to an unknowable value
				}
				out = append(out, ProbeKey(v))
			}
		}
		return out, true
	}
	return nil, false
}

// ProbeKey renders a value for probe-index matching. Numeric strings
// collapse to their numeric key so that datasource.Compare-equal values share a
// key.
func ProbeKey(v datasource.Value) string {
	if s, isStr := v.(string); isStr {
		if f, err := strconv.ParseFloat(strings.TrimSpace(s), 64); err == nil {
			return datasource.KeyString(f)
		}
	}
	return datasource.KeyString(v)
}

// eqValues binds a write template's WHERE equality conjuncts to the
// write's arguments; a later conjunct on the same column wins.
func eqValues(wi *TemplateInfo, args []datasource.Value) []colValue {
	var vals []colValue
next:
	for _, eq := range wi.whereEq {
		v, known := eq.ref.Resolve(args)
		if !known {
			continue
		}
		for i := range vals {
			if vals[i].col == eq.col {
				vals[i].v = v
				continue next
			}
		}
		vals = append(vals, colValue{col: eq.col, v: v})
	}
	return vals
}

// whereEqRefs extracts a write statement's top-level WHERE equality
// conjuncts on columns of table.
func whereEqRefs(where sqlparser.Expr, table string) []eqRef {
	var refs []eqRef
	for _, c := range conjunctsOf(where) {
		b, ok := c.(*sqlparser.BinaryExpr)
		if !ok || b.Op != sqlparser.OpEq {
			continue
		}
		col, valSide := b.Left, b.Right
		cr, ok := col.(*sqlparser.ColumnRef)
		if !ok {
			cr, ok = valSide.(*sqlparser.ColumnRef)
			if !ok {
				continue
			}
			valSide = b.Left
		}
		if cr.Table != "" && cr.Table != table {
			continue
		}
		refs = append(refs, eqRef{col: cr.Name, ref: valueRefOf(valSide)})
	}
	return refs
}

// autoIncrementer is the optional schema capability exposing auto-increment
// key columns; *memdb.DB and the sql driver adapter implement it.
type autoIncrementer interface {
	AutoIncrementColumn(table string) (string, bool)
}

// autoIncCol is a table's auto-increment column, with the fresh-column set
// a learned key of it binds.
type autoIncCol struct {
	name  string
	fresh map[string]bool // shared, read-only
}

// autoIncrementColumn returns the table's auto-increment column when the
// schema can report it. A reported column is memoised: tables are never
// dropped and their key never changes. A "no" is asked again, since the
// table may not exist yet or the schema may have failed to answer.
func (e *Engine) autoIncrementColumn(table string) (autoIncCol, bool) {
	if ai, ok := e.autoInc.Load(table); ok {
		return ai.(autoIncCol), true
	}
	schema, ok := e.schema.(autoIncrementer)
	if !ok {
		return autoIncCol{}, false
	}
	col, ok := schema.AutoIncrementColumn(table)
	if !ok {
		return autoIncCol{}, false
	}
	ai := autoIncCol{name: col, fresh: map[string]bool{col: true}}
	e.autoInc.Store(table, ai)
	return ai, true
}

// rebindArgs returns a copy of e whose placeholders are numbered afresh in
// the order they render, appending the argument each one binds to bound.
// The copy then stands alone as the WHERE of a statement template whose
// arguments are bound, so every write of one template issues the same
// extra-query text, which the database parses and plans once.
func rebindArgs(e sqlparser.Expr, args []datasource.Value, bound *[]datasource.Value) (sqlparser.Expr, error) {
	switch v := e.(type) {
	case nil:
		return nil, nil
	case *sqlparser.Placeholder:
		if v.Index < 0 || v.Index >= len(args) {
			return nil, fmt.Errorf("placeholder %d out of range (%d args)", v.Index, len(args))
		}
		*bound = append(*bound, args[v.Index])
		return &sqlparser.Placeholder{Index: len(*bound) - 1}, nil
	case *sqlparser.Literal, *sqlparser.ColumnRef:
		return e, nil
	case *sqlparser.BinaryExpr:
		l, err := rebindArgs(v.Left, args, bound)
		if err != nil {
			return nil, err
		}
		r, err := rebindArgs(v.Right, args, bound)
		if err != nil {
			return nil, err
		}
		return &sqlparser.BinaryExpr{Op: v.Op, Left: l, Right: r}, nil
	case *sqlparser.NotExpr:
		inner, err := rebindArgs(v.Expr, args, bound)
		if err != nil {
			return nil, err
		}
		return &sqlparser.NotExpr{Expr: inner}, nil
	case *sqlparser.NegExpr:
		inner, err := rebindArgs(v.Expr, args, bound)
		if err != nil {
			return nil, err
		}
		return &sqlparser.NegExpr{Expr: inner}, nil
	case *sqlparser.InExpr:
		if v.Select != nil {
			// The subquery's membership list is not reconstructible from the
			// argument vector; the caller falls back to an uncaptured write
			// (flush-everything, sound).
			return nil, fmt.Errorf("cannot substitute into IN-subquery")
		}
		left, err := rebindArgs(v.Left, args, bound)
		if err != nil {
			return nil, err
		}
		out := &sqlparser.InExpr{Left: left, Not: v.Not}
		for _, item := range v.List {
			x, err := rebindArgs(item, args, bound)
			if err != nil {
				return nil, err
			}
			out.List = append(out.List, x)
		}
		return out, nil
	case *sqlparser.BetweenExpr:
		left, err := rebindArgs(v.Left, args, bound)
		if err != nil {
			return nil, err
		}
		lo, err := rebindArgs(v.Lo, args, bound)
		if err != nil {
			return nil, err
		}
		hi, err := rebindArgs(v.Hi, args, bound)
		if err != nil {
			return nil, err
		}
		return &sqlparser.BetweenExpr{Left: left, Lo: lo, Hi: hi, Not: v.Not}, nil
	case *sqlparser.LikeExpr:
		left, err := rebindArgs(v.Left, args, bound)
		if err != nil {
			return nil, err
		}
		pat, err := rebindArgs(v.Pattern, args, bound)
		if err != nil {
			return nil, err
		}
		return &sqlparser.LikeExpr{Left: left, Pattern: pat, Not: v.Not}, nil
	case *sqlparser.IsNullExpr:
		left, err := rebindArgs(v.Left, args, bound)
		if err != nil {
			return nil, err
		}
		return &sqlparser.IsNullExpr{Left: left, Not: v.Not}, nil
	case *sqlparser.FuncExpr:
		out := &sqlparser.FuncExpr{Name: v.Name, Star: v.Star, Distinct: v.Distinct}
		for _, a := range v.Args {
			x, err := rebindArgs(a, args, bound)
			if err != nil {
				return nil, err
			}
			out.Args = append(out.Args, x)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("cannot substitute into %T", e)
	}
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	// The template map is keyed by both raw and canonical spellings; count
	// distinct template objects.
	seen := make(map[*TemplateInfo]bool, len(e.templates))
	for _, info := range e.templates {
		seen[info] = true
	}
	nt := len(seen)
	np := len(e.pairs)
	e.mu.RUnlock()
	return Stats{
		Templates:       nt,
		PairCacheSize:   np,
		PairCacheHits:   e.pairHits.Load(),
		PairCacheMisses: e.pairMisses.Load(),
		ExtraQueries:    e.extraQueries.Load(),
		Intersections:   e.intersections.Load(),
		Exonerations:    e.exonerations.Load(),
	}
}
