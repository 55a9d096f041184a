// Package analysis implements the paper's query-analysis engine (§3.2): it
// decides whether a write query (INSERT/UPDATE/DELETE) can invalidate the
// result of a read query (SELECT), under three invalidation strategies of
// increasing precision:
//
//   - ColumnOnly — invalidate whenever the templates share a table and the
//     write touches columns the read uses (many false positives);
//   - WhereMatch — additionally compare the constants bound to equality
//     predicates on common columns, so provably disjoint row sets are not
//     invalidated;
//   - ExtraQuery — when the write's WHERE clause does not constrain the
//     columns the read selects on, issue an extra SELECT to fetch the
//     affected rows and perform a precise intersection test. This is the
//     paper's "AC-extraQuery" strategy, its default.
//
// Template-pair analysis results are memoised in a pair cache whose
// statistics reproduce the paper's Figure 4.
package analysis

import (
	"fmt"

	"autowebcache/internal/datasource"
	"autowebcache/internal/sqlparser"
)

// StmtKind discriminates statement kinds for template metadata.
type StmtKind int

// Statement kinds. Start at 1 so the zero value is invalid.
const (
	KindSelect StmtKind = iota + 1
	KindInsert
	KindUpdate
	KindDelete
)

func (k StmtKind) String() string {
	switch k {
	case KindSelect:
		return "SELECT"
	case KindInsert:
		return "INSERT"
	case KindUpdate:
		return "UPDATE"
	case KindDelete:
		return "DELETE"
	}
	return "INVALID"
}

// ValueRef locates the source of a dynamic value inside a template: either a
// `?` placeholder (resolved from the instance's argument vector at run time)
// or a literal baked into the template. Known is false when the value comes
// from an expression the analysis cannot evaluate statically (e.g. `col+1`).
type ValueRef struct {
	Known         bool
	IsPlaceholder bool
	Index         int              // placeholder index when IsPlaceholder
	Lit           datasource.Value // literal value otherwise
}

// Resolve returns the concrete value for an instance's argument vector.
// ok is false when the reference is not statically known.
func (r ValueRef) Resolve(args []datasource.Value) (datasource.Value, bool) {
	if !r.Known {
		return nil, false
	}
	if r.IsPlaceholder {
		if r.Index < 0 || r.Index >= len(args) {
			return nil, false
		}
		return args[r.Index], true
	}
	return r.Lit, true
}

// valueRefOf classifies an expression as a statically-resolvable value.
func valueRefOf(e sqlparser.Expr) ValueRef {
	switch v := e.(type) {
	case *sqlparser.Literal:
		return ValueRef{Known: true, Lit: v.Value()}
	case *sqlparser.Placeholder:
		return ValueRef{Known: true, IsPlaceholder: true, Index: v.Index}
	default:
		return ValueRef{}
	}
}

// TemplateInfo is the static metadata extracted from one query template.
type TemplateInfo struct {
	Kind StmtKind
	// SQL is the canonical template text.
	SQL string

	// Stmt is the parsed statement (shared; treat as immutable).
	Stmt sqlparser.Statement

	// Tables lists the real table names the statement touches. For SELECT
	// this covers FROM and JOIN clauses; for DML it is the single target.
	Tables []string

	// aliases maps reference names (alias or table name) to real table
	// names, for SELECT statements.
	aliases map[string]string

	// ReadCols maps table -> set of column names the read uses (select
	// list, WHERE, JOIN ON, GROUP BY, HAVING, ORDER BY). The special column
	// "*" means all columns.
	ReadCols map[string]map[string]bool

	// WriteCols maps table -> set of columns the write modifies. For UPDATE
	// this is the SET list; for INSERT and DELETE it is "*" (the row set
	// itself changes, affecting reads on any column).
	WriteCols map[string]map[string]bool

	// SetVals maps SET column -> value source for UPDATE templates.
	SetVals map[string]ValueRef

	// InsertVals maps column -> value source for (single-row) INSERT
	// templates. Multi-row inserts record only columns whose value source
	// is identical across rows.
	InsertVals map[string]ValueRef

	// Where is the statement's WHERE clause (nil for INSERT or when
	// absent).
	Where sqlparser.Expr

	// ReadPred is, for SELECT templates, the conjunction of the WHERE
	// clause and every JOIN ... ON condition: the full predicate deciding
	// which rows of each table participate in the result. nil means "all
	// rows".
	ReadPred sqlparser.Expr

	// Probes maps a table name to the template's probe predicate on that
	// table: a top-level conjunct of the form `table.col = ?`. Because it
	// is conjunctive, a row of that table participates in the result only
	// when its col equals the instance's bound argument — which lets the
	// dependency table index instances by that value and skip, soundly,
	// every instance whose probe value a write cannot touch.
	Probes map[string]Probe

	// whereEq lists, for UPDATE and DELETE templates, the top-level WHERE
	// equality conjuncts binding a column of the target table to a value
	// source, in order: what every row the write touches carries.
	whereEq []eqRef
}

// eqRef is one `col = value` conjunct of a write's WHERE clause.
type eqRef struct {
	col string
	ref ValueRef
}

// Probe identifies a template's indexable equality predicate on one table.
type Probe struct {
	Col      string
	ArgIndex int
}

// Schema exposes table column names to the analysis. *memdb.DB and the sql
// driver adapter satisfy it.
type Schema interface {
	ColumnNames(table string) ([]string, error)
}

// AnalyzeTemplate extracts template metadata from canonical SQL. The schema
// is used to resolve unqualified column references in multi-table reads; it
// may be nil, in which case unqualified columns in multi-table selects are
// attributed to every table (conservative).
func AnalyzeTemplate(sql string, schema Schema) (*TemplateInfo, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	info := &TemplateInfo{
		SQL:       stmt.String(),
		Stmt:      stmt,
		ReadCols:  make(map[string]map[string]bool),
		WriteCols: make(map[string]map[string]bool),
	}
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		info.Kind = KindSelect
		info.Where = s.Where
		info.aliases = make(map[string]string)
		for i := range s.From {
			info.Tables = append(info.Tables, s.From[i].Name)
			info.aliases[s.From[i].RefName()] = s.From[i].Name
		}
		for i := range s.Joins {
			info.Tables = append(info.Tables, s.Joins[i].Table.Name)
			info.aliases[s.Joins[i].Table.RefName()] = s.Joins[i].Table.Name
		}
		if err := info.collectReadCols(s, schema); err != nil {
			return nil, err
		}
		info.ReadPred = s.Where
		for i := range s.Joins {
			on := s.Joins[i].On
			if on == nil {
				continue
			}
			if info.ReadPred == nil {
				info.ReadPred = on
			} else {
				info.ReadPred = &sqlparser.BinaryExpr{Op: sqlparser.OpAnd, Left: info.ReadPred, Right: on}
			}
		}
		info.collectProbes(schema)
		if err := info.mergeSubqueryDeps(s, schema); err != nil {
			return nil, err
		}
	case *sqlparser.InsertStmt:
		info.Kind = KindInsert
		info.Tables = []string{s.Table}
		info.WriteCols[s.Table] = map[string]bool{"*": true}
		info.InsertVals = make(map[string]ValueRef)
		cols := s.Columns
		for _, row := range s.Rows {
			for i, e := range row {
				if i >= len(cols) {
					break
				}
				ref := valueRefOf(e)
				prev, seen := info.InsertVals[cols[i]]
				if !seen {
					info.InsertVals[cols[i]] = ref
				} else if prev != ref {
					info.InsertVals[cols[i]] = ValueRef{} // differing across rows
				}
			}
		}
	case *sqlparser.UpdateStmt:
		info.Kind = KindUpdate
		info.Tables = []string{s.Table}
		info.Where = s.Where
		wc := make(map[string]bool, len(s.Set))
		info.SetVals = make(map[string]ValueRef, len(s.Set))
		for i := range s.Set {
			wc[s.Set[i].Column] = true
			info.SetVals[s.Set[i].Column] = valueRefOf(s.Set[i].Value)
		}
		info.WriteCols[s.Table] = wc
		info.whereEq = whereEqRefs(s.Where, s.Table)
	case *sqlparser.DeleteStmt:
		info.Kind = KindDelete
		info.Tables = []string{s.Table}
		info.Where = s.Where
		info.WriteCols[s.Table] = map[string]bool{"*": true}
		info.whereEq = whereEqRefs(s.Where, s.Table)
	default:
		return nil, fmt.Errorf("analysis: unsupported statement %T", stmt)
	}
	return info, nil
}

// resolveColumn maps a column reference in a SELECT to its real table name.
// ok is false when the owner cannot be determined.
func (info *TemplateInfo) resolveColumn(c *sqlparser.ColumnRef, schema Schema) (string, bool) {
	if c.Table != "" {
		if real, ok := info.aliases[c.Table]; ok {
			return real, true
		}
		return "", false
	}
	if len(info.Tables) == 1 {
		return info.Tables[0], true
	}
	if schema == nil {
		return "", false
	}
	owner := ""
	for ref, real := range info.aliases {
		_ = ref
		cols, err := schema.ColumnNames(real)
		if err != nil {
			continue
		}
		for _, name := range cols {
			if name == c.Name {
				if owner != "" && owner != real {
					return "", false // ambiguous
				}
				owner = real
			}
		}
	}
	if owner == "" {
		return "", false
	}
	return owner, true
}

func (info *TemplateInfo) addReadCol(table, col string) {
	m := info.ReadCols[table]
	if m == nil {
		m = make(map[string]bool)
		info.ReadCols[table] = m
	}
	m[col] = true
}

// collectReadCols fills ReadCols from every expression of the select.
func (info *TemplateInfo) collectReadCols(s *sqlparser.SelectStmt, schema Schema) error {
	addExpr := func(e sqlparser.Expr) {
		sqlparser.WalkExprs(e, func(x sqlparser.Expr) bool {
			c, ok := x.(*sqlparser.ColumnRef)
			if !ok {
				return true
			}
			if table, ok := info.resolveColumn(c, schema); ok {
				info.addReadCol(table, c.Name)
			} else {
				// Unknown owner: attribute to all tables (conservative).
				for _, t := range info.Tables {
					info.addReadCol(t, c.Name)
				}
			}
			return true
		})
	}
	for i := range s.Items {
		if s.Items[i].Star {
			if s.Items[i].Table != "" {
				if real, ok := info.aliases[s.Items[i].Table]; ok {
					info.addReadCol(real, "*")
					continue
				}
			}
			for _, t := range info.Tables {
				info.addReadCol(t, "*")
			}
			continue
		}
		addExpr(s.Items[i].Expr)
	}
	for i := range s.Joins {
		addExpr(s.Joins[i].On)
	}
	addExpr(s.Where)
	for _, g := range s.GroupBy {
		addExpr(g)
	}
	addExpr(s.Having)
	for i := range s.OrderBy {
		addExpr(s.OrderBy[i].Expr)
	}
	return nil
}

// mergeSubqueryDeps folds the dependency footprint of every uncorrelated
// IN-subquery into the outer template. A write to a table the subquery reads
// can change the membership list and thereby the outer result, so each
// contributing table (and its read columns) joins the outer dependency set —
// the precise alternative to flushing such reads as unanalysable. Each inner
// select is analysed with its own alias scope; nested subqueries recurse
// through AnalyzeTemplate. Probes are not merged: a probe is an equality on
// the outer result's rows, which a subquery table does not constrain.
//
// Run this after collectReadCols/collectProbes: appending subquery tables to
// info.Tables would otherwise divert the outer pass's single-table and
// all-tables column attribution.
func (info *TemplateInfo) mergeSubqueryDeps(s *sqlparser.SelectStmt, schema Schema) error {
	var firstErr error
	sqlparser.StatementExprs(s, func(e sqlparser.Expr) {
		sqlparser.WalkExprs(e, func(x sqlparser.Expr) bool {
			in, ok := x.(*sqlparser.InExpr)
			if !ok || in.Select == nil {
				return true
			}
			inner, err := AnalyzeTemplate(in.Select.String(), schema)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return false
			}
			for _, t := range inner.Tables {
				seen := false
				for _, have := range info.Tables {
					if have == t {
						seen = true
						break
					}
				}
				if !seen {
					info.Tables = append(info.Tables, t)
				}
			}
			for table, cols := range inner.ReadCols {
				for col := range cols {
					info.addReadCol(table, col)
				}
			}
			return true
		})
	})
	return firstErr
}

// collectProbes extracts one `table.col = ?` top-level conjunct per table
// from the read predicate.
func (info *TemplateInfo) collectProbes(schema Schema) {
	if info.ReadPred == nil {
		return
	}
	for _, c := range conjunctsOf(info.ReadPred) {
		b, ok := c.(*sqlparser.BinaryExpr)
		if !ok || b.Op != sqlparser.OpEq {
			continue
		}
		col, val := b.Left, b.Right
		cr, ok := col.(*sqlparser.ColumnRef)
		if !ok {
			cr, ok = val.(*sqlparser.ColumnRef)
			if !ok {
				continue
			}
			val = b.Left
		}
		ph, ok := val.(*sqlparser.Placeholder)
		if !ok {
			continue
		}
		owner, ok := info.resolveColumn(cr, schema)
		if !ok {
			continue
		}
		if info.Probes == nil {
			info.Probes = make(map[string]Probe)
		}
		if _, exists := info.Probes[owner]; !exists {
			info.Probes[owner] = Probe{Col: cr.Name, ArgIndex: ph.Index}
		}
	}
}

// conjunctsOf flattens an AND tree.
func conjunctsOf(e sqlparser.Expr) []sqlparser.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sqlparser.BinaryExpr); ok && b.Op == sqlparser.OpAnd {
		return append(conjunctsOf(b.Left), conjunctsOf(b.Right)...)
	}
	return []sqlparser.Expr{e}
}

// ColumnsOverlap reports whether the write template's modified columns
// intersect the read template's referenced columns — the paper's first
// (template-level) dependency component.
func ColumnsOverlap(read, write *TemplateInfo) bool {
	for table, wcols := range write.WriteCols {
		rcols, ok := read.ReadCols[table]
		if !ok {
			continue
		}
		if wcols["*"] || rcols["*"] {
			return true
		}
		for c := range wcols {
			if rcols[c] {
				return true
			}
		}
	}
	return false
}
