package bench

// The window rule's soundness oracle. The dependency-matrix drive samples
// every read and write instance both applications issue; for each read with
// ORDER BY … LIMIT and each write that can reach it, the oracle runs the
// read on a freshly seeded database (recording its window through the
// weave's RecordingConn, as a page miss does), captures and applies the
// write, decides with the analysis, and runs the read again: whenever the
// rows differ, the write must have intersected. Besides the sampled writes
// it places writes at each window's edges — an INSERT tying or straddling
// its first and last rows, a DELETE of its first, last, next and (on a
// later page) an earlier row — where a rule that mishandles ties or OFFSET
// pages would spare a write that changes the page.

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"autowebcache/internal/analysis"
	"autowebcache/internal/datasource"
	"autowebcache/internal/memdb"
	"autowebcache/internal/sqlparser"
	"autowebcache/internal/weave"
)

// oracleJob is one write and the windowed read instances it can reach.
type oracleJob struct {
	write analysis.Query
	reads []analysis.Query
}

// windowOracle checks jobs against one strategy's engine.
type windowOracle struct {
	t   *testing.T
	a   *matrixApp
	eng *analysis.Engine
	// changed counts the (write, read) pairs whose rows the write changed;
	// spared those the window rule alone spared.
	pairs, changed, spared int
}

func TestWindowRuleOracle(t *testing.T) {
	for _, build := range []func(*testing.T) *matrixApp{rubisMatrixApp, tpcwMatrixApp} {
		a := build(t)
		t.Run(a.name, func(t *testing.T) {
			m := driveMatrix(t, a)
			for _, strategy := range []analysis.Strategy{analysis.StrategyWhereMatch, analysis.StrategyExtraQuery} {
				ref, err := a.fresh()
				if err != nil {
					t.Fatal(err)
				}
				eng, err := analysis.NewEngine(strategy, ref)
				if err != nil {
					t.Fatal(err)
				}
				o := &windowOracle{t: t, a: a, eng: eng}
				for _, j := range o.jobs(m) {
					o.check(j)
				}
				t.Logf("%s: %d (write, read) pairs, %d changed the rows, %d spared by the window rule",
					strategy, o.pairs, o.changed, o.spared)
				if o.spared == 0 {
					t.Errorf("%s: the window rule spared no pair; the oracle tests nothing", strategy)
				}
			}
		})
	}
}

// windowed returns the sampled instances of every read template with a
// window, by template, each followed by a narrow page of it: LIMIT 2 and,
// when the template takes an OFFSET, OFFSET 2. The applications' pages
// rarely fill on the small seeded databases; the narrow ones are full and,
// with an OFFSET, have rows before them.
func (o *windowOracle) windowed(m *depMatrix) map[string][]analysis.Query {
	ref, err := o.a.fresh()
	if err != nil {
		o.t.Fatal(err)
	}
	out := make(map[string][]analysis.Query)
	for _, rsql := range sortedKeys(m.reads) {
		info, err := o.eng.Template(rsql)
		if err != nil {
			o.t.Fatal(err)
		}
		if !info.Windowed() {
			continue
		}
		s, shaped := o.shapeOf(ref, rsql)
		for _, r := range m.reads[rsql] {
			out[rsql] = append(out[rsql], r)
			if !shaped || s.limitArg < 0 {
				continue
			}
			narrow := slices.Clone(r.Args)
			narrow[s.limitArg] = int64(2)
			if s.offsetArg >= 0 {
				narrow[s.offsetArg] = int64(2)
			}
			out[rsql] = append(out[rsql], analysis.Query{SQL: rsql, Args: narrow})
		}
	}
	return out
}

func (o *windowOracle) dependent(rsql, wsql string) bool {
	dep, err := o.eng.PossiblyDependent(rsql, wsql)
	if err != nil {
		o.t.Fatal(err)
	}
	return dep
}

// jobs lists every sampled write with the windowed reads it can reach, then
// the edge writes of every windowed read instance.
func (o *windowOracle) jobs(m *depMatrix) []oracleJob {
	reads := o.windowed(m)
	var jobs []oracleJob
	for _, wsql := range sortedKeys(m.writes) {
		var deps []analysis.Query
		for _, rsql := range sortedKeys(reads) {
			if o.dependent(rsql, wsql) {
				deps = append(deps, reads[rsql]...)
			}
		}
		if len(deps) == 0 {
			continue
		}
		for _, w := range m.writes[wsql] {
			jobs = append(jobs, oracleJob{write: w.Query, reads: deps})
		}
	}
	for _, rsql := range sortedKeys(reads) {
		for _, r := range reads[rsql] {
			for _, w := range o.edgeWrites(m, r) {
				jobs = append(jobs, oracleJob{write: w, reads: []analysis.Query{r}})
			}
		}
	}
	return jobs
}

// readShape is what edgeWrites needs of a windowed read's statement.
type readShape struct {
	table      string // the table of the leading ORDER BY column
	orderCol   string
	orderPos   int // its output position
	key        string
	keyPos     int // the table's key's output position, or -1
	limitArg   int // the LIMIT count's argument index, or -1
	offsetArg  int // the OFFSET's argument index, or -1
	boundByArg map[string]int
}

// shapeOf reads the leading ORDER BY column, the key and the argument
// positions of a windowed read; ok is false when its ORDER BY does not
// lead with a projected column of a known table.
func (o *windowOracle) shapeOf(db *memdb.DB, rsql string) (readShape, bool) {
	stmt, err := sqlparser.Parse(rsql)
	if err != nil {
		o.t.Fatal(err)
	}
	sel := stmt.(*sqlparser.SelectStmt)
	names := make(map[string]string)
	for _, tr := range sel.From {
		names[tr.RefName()] = tr.Name
	}
	for _, j := range sel.Joins {
		names[j.Table.RefName()] = j.Table.Name
	}
	owner := func(c *sqlparser.ColumnRef) string {
		if c.Table != "" {
			return names[c.Table]
		}
		if len(names) == 1 {
			return sel.From[0].Name
		}
		return ""
	}
	lead, ok := sel.OrderBy[0].Expr.(*sqlparser.ColumnRef)
	if !ok || owner(lead) == "" {
		return readShape{}, false
	}
	s := readShape{table: owner(lead), orderCol: lead.Name, orderPos: -1, keyPos: -1,
		limitArg: -1, offsetArg: -1, boundByArg: make(map[string]int)}
	s.key, _ = db.AutoIncrementColumn(s.table)
	for i, it := range sel.Items {
		c, ok := it.Expr.(*sqlparser.ColumnRef)
		if !ok || owner(c) != s.table {
			continue
		}
		switch c.Name {
		case s.orderCol:
			s.orderPos = i
		case s.key:
			s.keyPos = i
		}
		if c.Name == s.orderCol && c.Name == s.key {
			s.keyPos = i
		}
	}
	if s.orderPos < 0 {
		return readShape{}, false
	}
	if p, ok := sel.Limit.Count.(*sqlparser.Placeholder); ok {
		s.limitArg = p.Index
	}
	if p, ok := sel.Limit.Offset.(*sqlparser.Placeholder); ok {
		s.offsetArg = p.Index
	}
	var conj func(e sqlparser.Expr)
	conj = func(e sqlparser.Expr) {
		b, ok := e.(*sqlparser.BinaryExpr)
		if !ok {
			return
		}
		if b.Op == sqlparser.OpAnd {
			conj(b.Left)
			conj(b.Right)
			return
		}
		c, cok := b.Left.(*sqlparser.ColumnRef)
		p, pok := b.Right.(*sqlparser.Placeholder)
		if b.Op == sqlparser.OpEq && cok && pok && owner(c) == s.table {
			s.boundByArg[c.Name] = p.Index
		}
	}
	conj(sel.Where)
	return s, true
}

// edgeWrites places writes at the edges of r's window on a fresh database:
// DELETEs of the first and last rows shown, of the row after the window and,
// on a later page, of the first row of the first page; and, for every
// INSERT template that can reach r, its first sample bound to r's
// predicate with the leading ORDER BY value set to each of those rows'
// values and one past the last.
func (o *windowOracle) edgeWrites(m *depMatrix, r analysis.Query) []analysis.Query {
	db, err := o.a.fresh()
	if err != nil {
		o.t.Fatal(err)
	}
	s, ok := o.shapeOf(db, r.SQL)
	if !ok || s.limitArg < 0 {
		return nil
	}
	run := func(args []datasource.Value) [][]datasource.Value {
		rows, err := db.Query(context.Background(), r.SQL, args...)
		if err != nil {
			o.t.Fatal(err)
		}
		return rows.Data
	}
	shown := run(r.Args)
	if len(shown) == 0 {
		return nil
	}
	edges := [][]datasource.Value{shown[0], shown[len(shown)-1]}
	more := slices.Clone(r.Args)
	count, _ := r.Args[s.limitArg].(int64)
	more[s.limitArg] = count + 1
	if ext := run(more); len(ext) > len(shown) {
		edges = append(edges, ext[len(ext)-1])
	}
	if s.offsetArg >= 0 {
		if off, _ := r.Args[s.offsetArg].(int64); off > 0 {
			head := slices.Clone(r.Args)
			head[s.offsetArg] = int64(0)
			if h := run(head); len(h) > 0 {
				edges = append(edges, h[0])
			}
		}
	}
	var writes []analysis.Query
	if s.keyPos >= 0 {
		for _, row := range edges {
			writes = append(writes, analysis.Query{
				SQL:  fmt.Sprintf("DELETE FROM %s WHERE %s = ?", s.table, s.key),
				Args: []datasource.Value{row[s.keyPos]}})
		}
	}
	values := make([]datasource.Value, 0, len(edges)+1)
	for _, row := range edges {
		values = append(values, row[s.orderPos])
	}
	if last, ok := shown[len(shown)-1][s.orderPos].(int64); ok {
		values = append(values, last+1, last-1)
	}
	for _, wsql := range sortedKeys(m.writes) {
		stmt, err := sqlparser.Parse(wsql)
		if err != nil {
			o.t.Fatal(err)
		}
		ins, ok := stmt.(*sqlparser.InsertStmt)
		if !ok || ins.Table != s.table || len(ins.Rows) != 1 || !o.dependent(r.SQL, wsql) {
			continue
		}
		base := slices.Clone(m.writes[wsql][0].Args)
		orderArg := -1
		for i, col := range ins.Columns {
			p, ok := ins.Rows[0][i].(*sqlparser.Placeholder)
			if !ok {
				continue
			}
			if arg, bound := s.boundByArg[col]; bound {
				base[p.Index] = r.Args[arg]
			}
			if col == s.orderCol {
				orderArg = p.Index
			}
		}
		if orderArg < 0 {
			continue
		}
		for _, v := range values {
			args := slices.Clone(base)
			args[orderArg] = v
			writes = append(writes, analysis.Query{SQL: wsql, Args: args})
		}
	}
	return writes
}

// check applies one job on a fresh database and judges every read it
// reaches: rows that changed must have been intersected.
func (o *windowOracle) check(j oracleJob) {
	t := o.t
	db, err := o.a.fresh()
	if err != nil {
		t.Fatal(err)
	}
	conn := weave.NewConn(db, o.eng)
	ctx, rec := weave.WithRecorder(context.Background())
	before := make([][][]datasource.Value, len(j.reads))
	for i, r := range j.reads {
		rows, err := conn.Query(ctx, r.SQL, r.Args...)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = rows.Data
	}
	reads := rec.Reads()
	if _, err := conn.Exec(ctx, j.write.SQL, j.write.Args...); err != nil {
		return // a write the fresh database refuses changes nothing
	}
	captures := rec.Writes()
	capture := captures[len(captures)-1]
	if capture.SQL == "" {
		t.Fatalf("write %s was not captured", j.write.SQL)
	}
	pw, err := o.eng.PrepareWrite(capture)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reads {
		hit, err := pw.Intersects(r)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := pw.Intersects(analysis.Query{SQL: r.SQL, Args: r.Args})
		if err != nil {
			t.Fatal(err)
		}
		after, err := db.Query(ctx, r.SQL, r.Args...)
		if err != nil {
			t.Fatal(err)
		}
		o.pairs++
		if plain && !hit {
			o.spared++
		}
		if reflect.DeepEqual(before[i], after.Data) {
			continue
		}
		o.changed++
		if !hit {
			t.Errorf("%s %v spared\n  %s %v\nwhose rows it changed:\n  before %v\n  after  %v",
				j.write.SQL, j.write.Args, r.SQL, r.Args, before[i], after.Data)
		}
	}
}
