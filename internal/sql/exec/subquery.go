package exec

import (
	"errors"
	"fmt"

	"ironsafe/internal/schema"
	"ironsafe/internal/sql/ast"
	"ironsafe/internal/value"
)

// subEval evaluates one subquery expression (EXISTS, IN, or scalar).
//
// A subquery that names no column of the enclosing operator's input runs
// once and is memoized. Any other subquery is decorrelated: equality
// conjuncts linking inner columns to outer expressions become hash keys, the
// inner side (FROM plus inner-only predicates) is materialized once and
// grouped by those keys, and any remaining outer-referencing conjuncts are
// evaluated per candidate row at lookup time. A subquery whose only outer
// references sit in its select list decorrelates on zero keys: one group.
// This turns the paper's TPC-H correlated subqueries (q2, q4, q21, ...) from
// per-row re-execution into a single build plus O(1) probes. The shapes the
// build cannot express — GROUP BY, HAVING, DISTINCT or LIMIT, or an outer
// reference nested in an inner-only predicate — re-execute in full for
// every outer row.
//
// The row-at-a-time evaluator (evalSubquery) and the batch probe
// (evalVecSubquery) both reach the subquery through probe, so its semantics
// are written once.
type subEval struct {
	b   *builder
	sel *ast.Select

	uncorrelated bool
	rerun        bool    // correlated, but executed in full per outer row
	cached       *Result // memoized full execution (uncorrelated)
	inSet        map[string]bool
	inHasNull    bool

	inner     *Result // materialized FROM + inner-only filter, full width
	keysInner []ast.Expr
	keysOuter []ast.Expr
	residual  ast.Expr
	groups    map[string][]schema.Row

	// outerEnv binds the enclosing operator's current row: its schema is
	// fixed per operator, only Row changes. ictx evaluates the residual and
	// the select item against one inner row under it.
	outerEnv *Env
	ictx     *evalCtx

	// memoizable: a correlated scalar depends on the outer row only through
	// its correlation key, so its value is cached per key.
	memoizable  bool
	scalarCache map[string]value.Value

	// Batch-probe totals for the EXPLAIN trace: outer rows probed, batches
	// probed, and rows that found a match.
	probeRows, probeBatches, probeMatches int
}

// subquerySelect returns the body of a subquery node, or nil for any other
// expression.
func subquerySelect(x ast.Expr) *ast.Select {
	switch q := x.(type) {
	case *ast.Exists:
		return q.Subquery
	case *ast.InSubquery:
		return q.Subquery
	case *ast.ScalarSubquery:
		return q.Subquery
	}
	return nil
}

// walkSubqueries calls fn, in a fixed order, for every subquery node in
// exprs. It does not descend into subquery bodies, but does descend into an
// IN subquery's left-hand side, which may hold subqueries of its own.
func walkSubqueries(exprs []ast.Expr, fn func(node ast.Expr, sel *ast.Select) error) error {
	var err error
	for _, e := range exprs {
		ast.Walk(e, func(x ast.Expr) bool {
			if err != nil {
				return false
			}
			if sel := subquerySelect(x); sel != nil {
				err = fn(x, sel)
			}
			return err == nil
		})
	}
	return err
}

// prepareSubqueries walks exprs and builds a subEval for every subquery node
// found, given the enclosing operator's input schema and environment.
func (b *builder) prepareSubqueries(exprs []ast.Expr, outerSch *schema.Schema, env *Env) (map[ast.Expr]*subEval, error) {
	subs := map[ast.Expr]*subEval{}
	err := walkSubqueries(exprs, func(node ast.Expr, sel *ast.Select) error {
		se, err := b.prepareSub(sel, outerSch, env)
		if err != nil {
			return err
		}
		subs[node] = se
		return nil
	})
	return subs, err
}

// traceProbes adds one trace line per subquery in exprs that the batch probe
// evaluated, in the order prepareSubqueries found them.
func (b *builder) traceProbes(exprs []ast.Expr, subs map[ast.Expr]*subEval) {
	if b.trace == nil {
		return
	}
	_ = walkSubqueries(exprs, func(node ast.Expr, _ *ast.Select) error {
		if se := subs[node]; se != nil && se.probeBatches > 0 {
			b.trace.addf("subquery probe (vectorized): %s in %s -> %d match",
				countText(se.probeRows, "outer row", "outer rows"),
				countText(se.probeBatches, "batch", "batches"), se.probeMatches)
			se.probeBatches = 0 // a node listed twice is reported once
		}
		return nil
	})
}

// prepareSub analyses and (for the correlated case) materializes a subquery.
func (b *builder) prepareSub(sel *ast.Select, outerSch *schema.Schema, env *Env) (*subEval, error) {
	se := &subEval{b: b, sel: sel, scalarCache: map[string]value.Value{},
		outerEnv: &Env{Parent: env, Sch: outerSch}}

	// Determine the inner scope schema without executing joins yet.
	innerScope, err := b.scopeSchema(sel, env)
	if err != nil {
		return nil, err
	}

	conjs := ast.SplitConjuncts(sel.Where)
	var innerOnly, residual []ast.Expr
	for _, c := range conjs {
		switch {
		case resolvableIn(c, innerScope, nil, false):
			innerOnly = append(innerOnly, c)
		default:
			if eq, ok := c.(*ast.BinaryExpr); ok && eq.Op == ast.OpEq {
				l, r := eq.Left, eq.Right
				lInner := resolvableIn(l, innerScope, nil, false) && refsIn(l, innerScope)
				rInner := resolvableIn(r, innerScope, nil, false) && refsIn(r, innerScope)
				lOuter := resolvableIn(l, nil, se.outerEnv, true)
				rOuter := resolvableIn(r, nil, se.outerEnv, true)
				if lInner && rOuter {
					se.keysInner = append(se.keysInner, l)
					se.keysOuter = append(se.keysOuter, r)
					continue
				}
				if rInner && lOuter {
					se.keysInner = append(se.keysInner, r)
					se.keysOuter = append(se.keysOuter, l)
					continue
				}
			}
			if !resolvableIn(c, innerScope, se.outerEnv, true) {
				return nil, fmt.Errorf("exec: subquery predicate %s references unknown columns", c)
			}
			residual = append(residual, c)
		}
	}

	// Outer references beyond the key and residual conjuncts: in JOIN ON
	// conditions and subqueries nested in the inner-only conjuncts, which
	// the build cannot bind, and in the select list, GROUP BY, HAVING and
	// ORDER BY.
	scopes := []*schema.Schema{innerScope}
	innerLoose := b.namesOuter(append(joinConds(sel), innerOnly...), scopes, outerSch)
	loose := innerLoose || b.selectNamesOuter(sel, nil, scopes, outerSch)
	se.memoizable = len(residual) == 0 && !loose
	switch {
	case len(se.keysInner) == 0 && len(residual) == 0 && !loose:
		se.uncorrelated = true
		b.trace.addf("subquery: uncorrelated, executed once and cached")
		return se, nil // executed lazily on first use
	case innerLoose || len(sel.GroupBy) > 0 || sel.Having != nil || sel.Distinct || sel.Limit >= 0:
		se.rerun = true
		b.trace.addf("subquery: correlated, re-executed per outer row")
		return se, nil
	}

	// Correlated: materialize FROM + inner-only predicates at full width.
	innerSel := &ast.Select{
		Items: []ast.SelectItem{{Star: true}},
		From:  sel.From,
		Where: ast.JoinConjuncts(innerOnly),
		Limit: -1,
	}
	inner, err := b.buildSelect(innerSel, env)
	if err != nil {
		return nil, err
	}
	se.inner = inner
	se.residual = ast.JoinConjuncts(residual)
	if se.groups, err = b.hashTable(inner, se.keysInner, env); err != nil {
		return nil, err
	}
	b.trace.addf("subquery: decorrelated on %d key(s) [%s], %d inner rows in %d groups, residual=%v",
		len(se.keysInner), exprsText(se.keysInner), len(inner.Rows), len(se.groups), se.residual != nil)
	se.ictx = newCtx(b, inner.Sch, se.outerEnv)
	return se, nil
}

// selectNamesOuter reports whether sel names a column of outer outside its
// WHERE clause, in the where conjuncts given, or in any subquery nested in
// them. scopes are the schemas that shadow outer, innermost last; select
// item aliases also shadow it in GROUP BY, HAVING and ORDER BY. A nested
// subquery adds its base tables to scopes; its derived tables are not
// planned here and shadow nothing, which can only classify a subquery as
// correlated needlessly, never the reverse.
func (b *builder) selectNamesOuter(sel *ast.Select, where []ast.Expr, scopes []*schema.Schema, outer *schema.Schema) bool {
	var items []ast.Expr
	aliases := schema.New()
	for _, it := range sel.Items {
		items = append(items, it.Expr)
		if it.Alias != "" {
			aliases.Columns = append(aliases.Columns, schema.Col(it.Alias, value.KindNull))
		}
	}
	items = append(items, joinConds(sel)...)
	post := append([]ast.Expr{sel.Having}, sel.GroupBy...)
	for _, o := range sel.OrderBy {
		post = append(post, o.Expr)
	}
	return b.namesOuter(append(items, where...), scopes, outer) ||
		b.namesOuter(post, append(scopes[:len(scopes):len(scopes)], aliases), outer)
}

// joinConds returns sel's JOIN ON conditions.
func joinConds(sel *ast.Select) []ast.Expr {
	var on []ast.Expr
	for _, ref := range sel.From {
		if ref.Join != nil {
			on = append(on, ref.Join.On)
		}
	}
	return on
}

// namesOuter reports whether exprs, or any subquery nested in them, name a
// column that resolves in outer but in none of scopes.
func (b *builder) namesOuter(exprs []ast.Expr, scopes []*schema.Schema, outer *schema.Schema) bool {
	found := false
	for _, e := range exprs {
		ast.Walk(e, func(x ast.Expr) bool {
			if found {
				return false
			}
			if ref, ok := x.(*ast.ColumnRef); ok {
				name := ref.FullName()
				found = outer.IndexOf(name) >= 0
				for _, s := range scopes {
					found = found && s.IndexOf(name) < 0
				}
				return false
			}
			if sub := subquerySelect(x); sub != nil {
				found = b.nestedNamesOuter(sub, scopes, outer)
			}
			return !found
		})
	}
	return found
}

// nestedNamesOuter is selectNamesOuter for a nested subquery, whose base
// tables shadow outer and whose WHERE clause counts in full.
func (b *builder) nestedNamesOuter(sel *ast.Select, scopes []*schema.Schema, outer *schema.Schema) bool {
	local := schema.New()
	for _, ref := range sel.From {
		if ref.Subquery != nil {
			if b.nestedNamesOuter(ref.Subquery, scopes, outer) {
				return true
			}
			continue
		}
		if rel, err := b.cat.Relation(ref.Table); err == nil {
			local = local.Concat(rel.Schema().Qualify(ref.Name()))
		}
	}
	return b.selectNamesOuter(sel, []ast.Expr{sel.Where}, append(scopes[:len(scopes):len(scopes)], local), outer)
}

// scopeSchema computes the combined qualified schema of a SELECT's FROM
// clause without executing joins (derived tables are planned for shape only).
func (b *builder) scopeSchema(sel *ast.Select, env *Env) (*schema.Schema, error) {
	scope := schema.New()
	for _, ref := range sel.From {
		var s *schema.Schema
		if ref.Subquery != nil {
			sub, err := b.buildSelect(ref.Subquery, env)
			if err != nil {
				return nil, err
			}
			s = sub.Sch
		} else {
			rel, err := b.cat.Relation(ref.Table)
			if err != nil {
				return nil, err
			}
			s = rel.Schema()
		}
		scope = scope.Concat(s.Qualify(ref.Name()))
	}
	return scope, nil
}

// evalKey evaluates a key expression list to a hash string; null reports a
// NULL component.
func evalKey(c *evalCtx, keys []ast.Expr) (key string, null bool, err error) {
	for _, k := range keys {
		v, err := c.eval(k)
		if err != nil {
			return "", false, err
		}
		if v.IsNull() {
			return "", true, nil
		}
		key += v.HashKey() + "\x00"
	}
	return key, false, nil
}

// evalSubquery evaluates subquery node e for the row bound in c.
func (c *evalCtx) evalSubquery(e ast.Expr) (value.Value, error) {
	se, err := c.subEvalFor(e)
	if err != nil {
		return value.Null(), err
	}
	var lhs value.Value
	if x, ok := e.(*ast.InSubquery); ok {
		if lhs, err = c.eval(x.Expr); err != nil || lhs.IsNull() {
			return value.Null(), err
		}
	}
	key, null, err := evalKey(c, se.keysOuter)
	if err != nil {
		return value.Null(), err
	}
	v, _, err := se.probe(e, key, null, c.row, lhs)
	return v, err
}

// evalVecSubquery is the batch probe: it evaluates subquery node e at the
// selected positions of bt inside the enclosing operator's single dispatch
// for the batch. The correlation keys are extracted column-wise, then each
// position takes the probe the row path takes. An IN whose left-hand side is
// NULL stays NULL without a lookup, as in the row path.
func (c *evalCtx) evalVecSubquery(e ast.Expr, bt *Batch, sel []int) (*schema.ColVec, error) {
	se, err := c.subEvalFor(e)
	if err != nil {
		return nil, err
	}
	out := schema.NewColVec(bt.Len())
	var lhs *schema.ColVec
	if x, ok := e.(*ast.InSubquery); ok {
		if lhs, err = c.evalVec(x.Expr, bt, sel); err != nil {
			return nil, err
		}
		live := make([]int, 0, len(sel))
		for _, i := range sel {
			if !lhs.Value(i).IsNull() {
				live = append(live, i)
			}
		}
		sel = live
	}
	if len(sel) == 0 {
		return out, nil
	}
	keyCols := make([]*schema.ColVec, len(se.keysOuter))
	for k, ke := range se.keysOuter {
		if keyCols[k], err = c.evalVec(ke, bt, sel); err != nil {
			return nil, err
		}
	}
	matches := 0
	for _, i := range sel {
		key, null := vecKeyAt(keyCols, i)
		var l value.Value
		if lhs != nil {
			l = lhs.Value(i)
		}
		v, found, err := se.probe(e, key, null, bt.Rows[i], l)
		if err != nil {
			return nil, err
		}
		out.Set(i, v)
		if found {
			matches++
		}
	}
	se.probeRows += len(sel)
	se.probeBatches++
	se.probeMatches += matches
	return out, nil
}

// subEvalFor returns the prepared evaluator for subquery node e.
func (c *evalCtx) subEvalFor(e ast.Expr) (*subEval, error) {
	if se, ok := c.subs[e]; ok {
		return se, nil
	}
	kind := "scalar"
	switch e.(type) {
	case *ast.Exists:
		kind = "EXISTS"
	case *ast.InSubquery:
		kind = "IN"
	}
	return nil, fmt.Errorf("exec: unprepared %s subquery", kind)
}

// probe is the lookup core both evaluators share. It evaluates subquery node
// e for one outer row, given that row's correlation key (null when a key
// component is NULL) and, for IN, its non-NULL left-hand value. found reports
// whether the row found a match — a qualifying inner row for EXISTS, an
// equal value for IN, a non-NULL value for a scalar subquery.
func (se *subEval) probe(e ast.Expr, key string, null bool, row schema.Row, lhs value.Value) (v value.Value, found bool, err error) {
	switch x := e.(type) {
	case *ast.Exists:
		found, err = se.exists(key, null, row)
		return value.Bool(found != x.Not), found, err
	case *ast.InSubquery:
		return se.in(key, null, row, lhs, x.Not)
	}
	v, err = se.scalar(key, null, row)
	return v, err == nil && !v.IsNull(), err
}

// result executes the subquery in full for one outer row: once, memoized,
// when uncorrelated; afresh for every row when it re-runs.
func (se *subEval) result(row schema.Row) (*Result, error) {
	if se.cached != nil {
		return se.cached, nil
	}
	se.outerEnv.Row = row
	res, err := se.b.buildSelect(se.sel, se.outerEnv)
	if err != nil {
		return nil, err
	}
	if !se.rerun {
		se.cached = res
	}
	return res, nil
}

// lookup returns the inner rows matching one outer row: the group under its
// correlation key, narrowed by the residual evaluated against that row. A
// NULL key matches nothing.
func (se *subEval) lookup(key string, null bool, row schema.Row) ([]schema.Row, error) {
	if null {
		return nil, nil
	}
	rows := se.groups[key]
	if se.residual == nil {
		return rows, nil
	}
	se.outerEnv.Row = row
	var out []schema.Row
	for _, r := range rows {
		v, err := se.ictx.withRow(r).eval(se.residual)
		if err != nil {
			return nil, err
		}
		if truthy(v) {
			out = append(out, r)
		}
	}
	se.b.chargeWork(int64(len(rows)))
	return out, nil
}

// exists evaluates EXISTS semantics for one outer row.
func (se *subEval) exists(key string, null bool, row schema.Row) (bool, error) {
	if se.uncorrelated || se.rerun {
		res, err := se.result(row)
		if err != nil {
			return false, err
		}
		return len(res.Rows) > 0, nil
	}
	rows, err := se.lookup(key, null, row)
	return len(rows) > 0, err
}

// in evaluates lhs [NOT] IN (subquery) for one outer row with SQL
// three-valued semantics; lhs is not NULL.
func (se *subEval) in(key string, null bool, row schema.Row, lhs value.Value, not bool) (value.Value, bool, error) {
	if se.uncorrelated || se.rerun {
		res, err := se.result(row)
		if err != nil {
			return value.Null(), false, err
		}
		if se.inSet == nil || se.rerun {
			se.inSet, se.inHasNull = map[string]bool{}, false
			for _, r := range res.Rows {
				if len(r) == 0 {
					continue
				}
				if r[0].IsNull() {
					se.inHasNull = true
					continue
				}
				se.inSet[r[0].HashKey()] = true
			}
		}
		if se.inSet[lhs.HashKey()] {
			return value.Bool(!not), true, nil
		}
		if se.inHasNull {
			return value.Null(), false, nil
		}
		return value.Bool(not), false, nil
	}

	rows, err := se.lookup(key, null, row)
	if err != nil {
		return value.Null(), false, err
	}
	if len(se.sel.Items) != 1 || se.sel.Items[0].Star {
		return value.Null(), false, errors.New("exec: IN subquery must select exactly one column")
	}
	item := se.sel.Items[0].Expr
	se.outerEnv.Row = row
	sawNull := false
	for _, r := range rows {
		v, err := se.ictx.withRow(r).eval(item)
		if err != nil {
			return value.Null(), false, err
		}
		if v.IsNull() {
			sawNull = true
			continue
		}
		cmp, err := value.Compare(lhs, v)
		if err != nil {
			return value.Null(), false, err
		}
		if cmp == 0 {
			return value.Bool(!not), true, nil
		}
	}
	if sawNull {
		return value.Null(), false, nil
	}
	return value.Bool(not), false, nil
}

// scalar evaluates a scalar subquery for one outer row.
func (se *subEval) scalar(key string, null bool, row schema.Row) (value.Value, error) {
	if se.uncorrelated || se.rerun {
		res, err := se.result(row)
		if err != nil {
			return value.Null(), err
		}
		switch {
		case len(res.Rows) == 0:
			return value.Null(), nil
		case len(res.Rows) > 1:
			return value.Null(), errors.New("exec: scalar subquery returned more than one row")
		case len(res.Rows[0]) != 1:
			return value.Null(), errors.New("exec: scalar subquery must select one column")
		}
		return res.Rows[0][0], nil
	}

	if len(se.sel.Items) != 1 || se.sel.Items[0].Star {
		return value.Null(), errors.New("exec: scalar subquery must select one column")
	}
	item := se.sel.Items[0].Expr

	memo := se.memoizable && !null
	if memo {
		if v, ok := se.scalarCache[key]; ok {
			return v, nil
		}
	}

	rows, err := se.lookup(key, null, row)
	if err != nil {
		return value.Null(), err
	}
	se.outerEnv.Row = row

	var out value.Value
	if containsAggregate(item) {
		// The item may be any expression over aggregates (q17's
		// `0.2 * avg(l_quantity)`): compute each aggregate over the
		// candidate rows, then evaluate the expression with the results
		// substituted.
		specs := collectAggregates([]ast.Expr{item})
		aggVals := make(map[string]value.Value, len(specs))
		for _, sp := range specs {
			v, err := aggregateRows(se.b, sp.call, se.inner.Sch, rows, se.outerEnv)
			if err != nil {
				return value.Null(), err
			}
			aggVals[sp.key] = v
		}
		ictx := newCtxWith(se.b, se.inner.Sch, se.outerEnv, aggVals, nil)
		var rep schema.Row
		if len(rows) > 0 {
			rep = rows[0]
		}
		out, err = ictx.withRow(rep).eval(item)
		if err != nil {
			return value.Null(), err
		}
	} else {
		switch {
		case len(rows) == 0:
			out = value.Null()
		case len(rows) > 1:
			return value.Null(), errors.New("exec: scalar subquery returned more than one row")
		default:
			out, err = se.ictx.withRow(rows[0]).eval(item)
			if err != nil {
				return value.Null(), err
			}
		}
	}
	if memo {
		se.scalarCache[key] = out
	}
	return out, nil
}
