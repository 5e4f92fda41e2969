package exec

import (
	"fmt"

	"ironsafe/internal/schema"
	"ironsafe/internal/sql/ast"
	"ironsafe/internal/value"
)

// Batch is one columnar operator batch: a window of materialized rows plus
// lazily extracted per-column vectors. Filters pass row membership downstream
// via selection vectors (position lists) rather than copying data, so output
// rows are the same schema.Row values the row-at-a-time path would produce —
// byte-identical results by construction.
type Batch struct {
	Sch  *schema.Schema
	Rows []schema.Row

	cols []*schema.ColVec
}

// NewBatch wraps a row window as a batch. The window is NOT copied: batches
// delivered through ScanBatch are only valid during the callback (see
// BatchRelation).
func NewBatch(sch *schema.Schema, rows []schema.Row) *Batch {
	return &Batch{Sch: sch, Rows: rows}
}

// Len returns the number of rows in the batch.
func (bt *Batch) Len() int { return len(bt.Rows) }

// Col lazily columnarizes column i, memoizing the vector.
func (bt *Batch) Col(i int) *schema.ColVec {
	if bt.cols == nil {
		bt.cols = make([]*schema.ColVec, bt.Sch.Len())
	}
	if bt.cols[i] == nil {
		bt.cols[i] = schema.FromRows(bt.Rows, i)
	}
	return bt.cols[i]
}

// vecKeyAt concatenates the hash key for row j from extracted key columns,
// mirroring evalKey: any NULL component voids the key.
func vecKeyAt(cols []*schema.ColVec, j int) (string, bool) {
	key := ""
	for _, cv := range cols {
		v := cv.Value(j)
		if v.IsNull() {
			return "", true
		}
		key += v.HashKey() + "\x00"
	}
	return key, false
}

// fullSel returns the identity selection vector [0, n).
func fullSel(n int) []int {
	sel := make([]int, n)
	for i := range sel {
		sel[i] = i
	}
	return sel
}

// supportsVec reports whether e can be evaluated by evalVec. Function calls
// take the row-at-a-time fallback; everything else in the expression grammar
// has a vectorized kernel, subqueries a batch probe (evalVecSubquery).
func supportsVec(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Literal, *ast.ColumnRef, *ast.Exists, *ast.ScalarSubquery:
		return true
	case *ast.InSubquery:
		return supportsVec(x.Expr)
	case *ast.BinaryExpr:
		// Date ± INTERVAL keeps the interval literal on the right; the
		// interval itself is not an evaluable expression.
		if _, ok := x.Right.(*ast.IntervalExpr); ok && (x.Op == ast.OpAdd || x.Op == ast.OpSub) {
			return supportsVec(x.Left)
		}
		return supportsVec(x.Left) && supportsVec(x.Right)
	case *ast.UnaryExpr:
		return supportsVec(x.Expr)
	case *ast.IsNull:
		return supportsVec(x.Expr)
	case *ast.Between:
		return supportsVec(x.Expr) && supportsVec(x.Lo) && supportsVec(x.Hi)
	case *ast.Like:
		return supportsVec(x.Expr) && supportsVec(x.Pattern)
	case *ast.InList:
		if !supportsVec(x.Expr) {
			return false
		}
		for _, it := range x.Items {
			if !supportsVec(it) {
				return false
			}
		}
		return true
	case *ast.CaseExpr:
		for _, w := range x.Whens {
			if !supportsVec(w.Cond) || !supportsVec(w.Result) {
				return false
			}
		}
		if x.Else != nil {
			return supportsVec(x.Else)
		}
		return true
	case *ast.Extract:
		return supportsVec(x.Expr)
	case *ast.Substring:
		if !supportsVec(x.Expr) || !supportsVec(x.From) {
			return false
		}
		if x.For != nil {
			return supportsVec(x.For)
		}
		return true
	}
	return false
}

// supportsVecAll reports whether every expression vectorizes (nil entries are
// vacuously fine).
func supportsVecAll(exprs []ast.Expr) bool {
	for _, e := range exprs {
		if e != nil && !supportsVec(e) {
			return false
		}
	}
	return true
}

// resolveColumnIdx memoizes column resolution without touching row data, for
// kernels that read whole vectors.
func (c *evalCtx) resolveColumnIdx(x *ast.ColumnRef) (colRes, error) {
	if c.memo != nil {
		if r, ok := c.memo[x]; ok {
			return r, nil
		}
	}
	name := x.FullName()
	if c.sch != nil {
		if idx := c.sch.IndexOf(name); idx >= 0 {
			r := colRes{idx: idx, envDepth: -1}
			if c.memo != nil {
				c.memo[x] = r
			}
			return r, nil
		}
	}
	depth := 0
	for env := c.env; env != nil; env = env.Parent {
		if env.Sch != nil {
			if idx := env.Sch.IndexOf(name); idx >= 0 {
				r := colRes{idx: idx, envDepth: depth}
				if c.memo != nil {
					c.memo[x] = r
				}
				return r, nil
			}
		}
		depth++
	}
	return colRes{}, errColumn(name)
}

// evalVec computes e over the batch positions listed in sel, returning a
// dense vector of length bt.Len() whose unselected positions are NULL (and
// never read). Semantics mirror evalCtx.eval exactly — same three-valued
// logic, same laziness (AND/OR right sides, CASE arms, IN items, SUBSTRING
// FOR, subquery probes), same error conditions — so a query produces
// identical rows and identical TupleWork whichever path runs. Only the order
// in which an erroring query surfaces its error may differ (by element, not
// by row); either way the query aborts.
func (c *evalCtx) evalVec(e ast.Expr, bt *Batch, sel []int) (*schema.ColVec, error) {
	n := bt.Len()
	// Post-aggregation substitution takes priority, as in eval.
	if c.agg != nil {
		if v, ok := c.agg[e.String()]; ok {
			return schema.ConstVec(v, n), nil
		}
	}
	switch x := e.(type) {
	case *ast.Literal:
		return schema.ConstVec(x.Value, n), nil

	case *ast.ColumnRef:
		r, err := c.resolveColumnIdx(x)
		if err != nil {
			return nil, err
		}
		if r.envDepth < 0 {
			return bt.Col(r.idx), nil
		}
		env := c.env
		for d := 0; d < r.envDepth; d++ {
			env = env.Parent
		}
		return schema.ConstVec(env.Row[r.idx], n), nil

	case *ast.BinaryExpr:
		return c.evalVecBinary(x, bt, sel)

	case *ast.UnaryExpr:
		v, err := c.evalVec(x.Expr, bt, sel)
		if err != nil {
			return nil, err
		}
		out := schema.NewColVec(n)
		for _, i := range sel {
			vv := v.Value(i)
			if vv.IsNull() {
				continue
			}
			if x.Op == "NOT" {
				if vv.Kind() != value.KindBool {
					return nil, fmt.Errorf("exec: NOT applied to %s", vv.Kind())
				}
				out.Set(i, value.Bool(!vv.AsBool()))
				continue
			}
			switch vv.Kind() {
			case value.KindInt:
				out.Set(i, value.Int(-vv.AsInt()))
			case value.KindFloat:
				out.Set(i, value.Float(-vv.AsFloat()))
			default:
				return nil, fmt.Errorf("exec: unary minus on %s", vv.Kind())
			}
		}
		return out, nil

	case *ast.IsNull:
		v, err := c.evalVec(x.Expr, bt, sel)
		if err != nil {
			return nil, err
		}
		out := schema.NewColVec(n)
		for _, i := range sel {
			out.Set(i, value.Bool(v.Value(i).IsNull() != x.Not))
		}
		return out, nil

	case *ast.Between:
		v, err := c.evalVec(x.Expr, bt, sel)
		if err != nil {
			return nil, err
		}
		lo, err := c.evalVec(x.Lo, bt, sel)
		if err != nil {
			return nil, err
		}
		hi, err := c.evalVec(x.Hi, bt, sel)
		if err != nil {
			return nil, err
		}
		out := schema.NewColVec(n)
		for _, i := range sel {
			vv, lv, hv := v.Value(i), lo.Value(i), hi.Value(i)
			if vv.IsNull() || lv.IsNull() || hv.IsNull() {
				continue
			}
			cl, err := value.Compare(vv, lv)
			if err != nil {
				return nil, err
			}
			ch, err := value.Compare(vv, hv)
			if err != nil {
				return nil, err
			}
			in := cl >= 0 && ch <= 0
			out.Set(i, value.Bool(in != x.Not))
		}
		return out, nil

	case *ast.Like:
		v, err := c.evalVec(x.Expr, bt, sel)
		if err != nil {
			return nil, err
		}
		p, err := c.evalVec(x.Pattern, bt, sel)
		if err != nil {
			return nil, err
		}
		out := schema.NewColVec(n)
		for _, i := range sel {
			vv, pv := v.Value(i), p.Value(i)
			if vv.IsNull() || pv.IsNull() {
				continue
			}
			if vv.Kind() != value.KindString || pv.Kind() != value.KindString {
				return nil, fmt.Errorf("exec: LIKE on %s and %s", vv.Kind(), pv.Kind())
			}
			out.Set(i, value.Bool(likeMatch(vv.AsString(), pv.AsString()) != x.Not))
		}
		return out, nil

	case *ast.InList:
		lhs, err := c.evalVec(x.Expr, bt, sel)
		if err != nil {
			return nil, err
		}
		out := schema.NewColVec(n)
		pending := make([]int, 0, len(sel))
		for _, i := range sel {
			if !lhs.Value(i).IsNull() {
				pending = append(pending, i) // null lhs stays NULL in out
			}
		}
		sawNull := make([]bool, n)
		for _, item := range x.Items {
			if len(pending) == 0 {
				break
			}
			iv, err := c.evalVec(item, bt, pending)
			if err != nil {
				return nil, err
			}
			var next []int
			for _, i := range pending {
				ivv := iv.Value(i)
				if ivv.IsNull() {
					sawNull[i] = true
					next = append(next, i)
					continue
				}
				cmp, err := value.Compare(lhs.Value(i), ivv)
				if err != nil {
					return nil, err
				}
				if cmp == 0 {
					out.Set(i, value.Bool(!x.Not))
				} else {
					next = append(next, i)
				}
			}
			pending = next
		}
		for _, i := range pending {
			if !sawNull[i] {
				out.Set(i, value.Bool(x.Not))
			}
		}
		return out, nil

	case *ast.CaseExpr:
		out := schema.NewColVec(n)
		remaining := sel
		for _, w := range x.Whens {
			if len(remaining) == 0 {
				break
			}
			cond, err := c.evalVec(w.Cond, bt, remaining)
			if err != nil {
				return nil, err
			}
			var matched, rest []int
			for _, i := range remaining {
				cv := cond.Value(i)
				if !cv.IsNull() && cv.Kind() == value.KindBool && cv.AsBool() {
					matched = append(matched, i)
				} else {
					rest = append(rest, i)
				}
			}
			if len(matched) > 0 {
				rv, err := c.evalVec(w.Result, bt, matched)
				if err != nil {
					return nil, err
				}
				for _, i := range matched {
					out.Set(i, rv.Value(i))
				}
			}
			remaining = rest
		}
		if x.Else != nil && len(remaining) > 0 {
			ev, err := c.evalVec(x.Else, bt, remaining)
			if err != nil {
				return nil, err
			}
			for _, i := range remaining {
				out.Set(i, ev.Value(i))
			}
		}
		return out, nil

	case *ast.Extract:
		v, err := c.evalVec(x.Expr, bt, sel)
		if err != nil {
			return nil, err
		}
		out := schema.NewColVec(n)
		for _, i := range sel {
			var ev value.Value
			var err error
			if x.Field == "YEAR" {
				ev, err = value.ExtractYear(v.Value(i))
			} else {
				ev, err = value.ExtractMonth(v.Value(i))
			}
			if err != nil {
				return nil, err
			}
			out.Set(i, ev)
		}
		return out, nil

	case *ast.Substring:
		return c.evalVecSubstring(x, bt, sel)

	case *ast.Exists, *ast.InSubquery, *ast.ScalarSubquery:
		return c.evalVecSubquery(e, bt, sel)
	}
	return nil, fmt.Errorf("exec: cannot vectorize %T", e)
}

func (c *evalCtx) evalVecBinary(x *ast.BinaryExpr, bt *Batch, sel []int) (*schema.ColVec, error) {
	n := bt.Len()
	switch x.Op {
	case ast.OpAnd, ast.OpOr:
		l, err := c.evalVec(x.Left, bt, sel)
		if err != nil {
			return nil, err
		}
		out := schema.NewColVec(n)
		// Short-circuit where two-valued: only undecided positions see the
		// right side, mirroring the row path's laziness (and its errors).
		var undecided []int
		for _, i := range sel {
			lv := l.Value(i)
			if !lv.IsNull() && lv.Kind() == value.KindBool {
				if x.Op == ast.OpAnd && !lv.AsBool() {
					out.Set(i, value.Bool(false))
					continue
				}
				if x.Op == ast.OpOr && lv.AsBool() {
					out.Set(i, value.Bool(true))
					continue
				}
			}
			undecided = append(undecided, i)
		}
		if len(undecided) > 0 {
			r, err := c.evalVec(x.Right, bt, undecided)
			if err != nil {
				return nil, err
			}
			for _, i := range undecided {
				v, err := logic3(x.Op, l.Value(i), r.Value(i))
				if err != nil {
					return nil, err
				}
				out.Set(i, v)
			}
		}
		return out, nil
	}

	l, err := c.evalVec(x.Left, bt, sel)
	if err != nil {
		return nil, err
	}

	// Date +/- INTERVAL.
	if iv, ok := x.Right.(*ast.IntervalExpr); ok && (x.Op == ast.OpAdd || x.Op == ast.OpSub) {
		iN := iv.N
		if x.Op == ast.OpSub {
			iN = -iN
		}
		out := schema.NewColVec(n)
		for _, i := range sel {
			v, err := value.AddInterval(l.Value(i), iN, iv.Unit)
			if err != nil {
				return nil, err
			}
			out.Set(i, v)
		}
		return out, nil
	}

	r, err := c.evalVec(x.Right, bt, sel)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case ast.OpEq, ast.OpNe, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
		if out, ok := cmpVecFast(x.Op, l, r, n, sel); ok {
			return out, nil
		}
		out := schema.NewColVec(n)
		for _, i := range sel {
			lv, rv := l.Value(i), r.Value(i)
			if lv.IsNull() || rv.IsNull() {
				continue
			}
			cmp, err := value.Compare(lv, rv)
			if err != nil {
				return nil, err
			}
			out.Set(i, value.Bool(cmpHolds(x.Op, cmp)))
		}
		return out, nil
	case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpDiv, ast.OpMod:
		if out, ok := arithVecFast(x.Op, l, r, n, sel); ok {
			return out, nil
		}
		var opc byte
		switch x.Op {
		case ast.OpAdd:
			opc = '+'
		case ast.OpSub:
			opc = '-'
		case ast.OpMul:
			opc = '*'
		case ast.OpDiv:
			opc = '/'
		default:
			opc = '%'
		}
		out := schema.NewColVec(n)
		for _, i := range sel {
			v, err := value.Arith(opc, l.Value(i), r.Value(i))
			if err != nil {
				return nil, err
			}
			out.Set(i, v)
		}
		return out, nil
	case ast.OpConcat:
		out := schema.NewColVec(n)
		for _, i := range sel {
			lv, rv := l.Value(i), r.Value(i)
			if lv.IsNull() || rv.IsNull() {
				continue
			}
			out.Set(i, value.Str(lv.String()+rv.String()))
		}
		return out, nil
	}
	return nil, fmt.Errorf("exec: unknown operator %v", x.Op)
}

func (c *evalCtx) evalVecSubstring(x *ast.Substring, bt *Batch, sel []int) (*schema.ColVec, error) {
	n := bt.Len()
	v, err := c.evalVec(x.Expr, bt, sel)
	if err != nil {
		return nil, err
	}
	from, err := c.evalVec(x.From, bt, sel)
	if err != nil {
		return nil, err
	}
	out := schema.NewColVec(n)
	// FOR is evaluated only where expr and FROM are non-null, mirroring the
	// row path's laziness.
	var need []int
	for _, i := range sel {
		if !v.Value(i).IsNull() && !from.Value(i).IsNull() {
			need = append(need, i)
		}
	}
	var forVec *schema.ColVec
	if x.For != nil && len(need) > 0 {
		forVec, err = c.evalVec(x.For, bt, need)
		if err != nil {
			return nil, err
		}
	}
	for _, i := range need {
		s := v.Value(i).AsString()
		start := int(from.Value(i).AsInt()) - 1 // SQL is 1-based
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		end := len(s)
		if forVec != nil {
			nv := forVec.Value(i)
			if nv.IsNull() {
				continue // stays NULL
			}
			end = start + int(nv.AsInt())
			if end > len(s) {
				end = len(s)
			}
			if end < start {
				end = start
			}
		}
		out.Set(i, value.Str(s[start:end]))
	}
	return out, nil
}

// cmpHolds maps a three-way comparison to the operator's truth value.
func cmpHolds(op ast.BinaryOp, cmp int) bool {
	switch op {
	case ast.OpEq:
		return cmp == 0
	case ast.OpNe:
		return cmp != 0
	case ast.OpLt:
		return cmp < 0
	case ast.OpLe:
		return cmp <= 0
	case ast.OpGt:
		return cmp > 0
	default:
		return cmp >= 0
	}
}

// intVecOf extracts an int64 view for typed kernels: a slice (per-element)
// or a constant, for Int-kind data only.
func intVecOf(cv *schema.ColVec) (data []int64, konst int64, isConst, ok bool) {
	if cv.Const {
		v := cv.Value(0)
		if !v.IsNull() && v.Kind() == value.KindInt {
			return nil, v.AsInt(), true, true
		}
		return nil, 0, false, false
	}
	if cv.Ints != nil && cv.Kind == value.KindInt {
		return cv.Ints, 0, false, true
	}
	return nil, 0, false, false
}

func floatVecOf(cv *schema.ColVec) (data []float64, konst float64, isConst, ok bool) {
	if cv.Const {
		v := cv.Value(0)
		if !v.IsNull() && v.Kind() == value.KindFloat {
			return nil, v.AsFloat(), true, true
		}
		return nil, 0, false, false
	}
	if cv.Floats != nil {
		return cv.Floats, 0, false, true
	}
	return nil, 0, false, false
}

// cmpVecFast runs typed comparison kernels for Int×Int and Float×Float
// (vector or constant operands, no NULLs by construction). Mixed kinds,
// strings, dates, bools, and boxed vectors use the general path, which
// preserves value.Compare's coercion and error semantics exactly.
func cmpVecFast(op ast.BinaryOp, l, r *schema.ColVec, n int, sel []int) (*schema.ColVec, bool) {
	if li, lc, lIsC, lok := intVecOf(l); lok {
		if ri, rc, rIsC, rok := intVecOf(r); rok {
			out := make([]int64, n)
			at := func(d []int64, k int64, isC bool, i int) int64 {
				if isC {
					return k
				}
				return d[i]
			}
			for _, i := range sel {
				a, bv := at(li, lc, lIsC, i), at(ri, rc, rIsC, i)
				cmp := 0
				if a < bv {
					cmp = -1
				} else if a > bv {
					cmp = 1
				}
				if cmpHolds(op, cmp) {
					out[i] = 1
				}
			}
			return schema.IntVec(value.KindBool, out), true
		}
	}
	if lf, lc, lIsC, lok := floatVecOf(l); lok {
		if rf, rc, rIsC, rok := floatVecOf(r); rok {
			out := make([]int64, n)
			at := func(d []float64, k float64, isC bool, i int) float64 {
				if isC {
					return k
				}
				return d[i]
			}
			for _, i := range sel {
				a, bv := at(lf, lc, lIsC, i), at(rf, rc, rIsC, i)
				cmp := 0
				if a < bv {
					cmp = -1
				} else if a > bv {
					cmp = 1
				}
				if cmpHolds(op, cmp) {
					out[i] = 1
				}
			}
			return schema.IntVec(value.KindBool, out), true
		}
	}
	return nil, false
}

// arithVecFast runs typed + - * kernels for Int×Int and Float×Float.
// Division and modulo keep value.Arith's exactness and zero-divide handling;
// mixed kinds coerce through the general path.
func arithVecFast(op ast.BinaryOp, l, r *schema.ColVec, n int, sel []int) (*schema.ColVec, bool) {
	if op != ast.OpAdd && op != ast.OpSub && op != ast.OpMul {
		return nil, false
	}
	if li, lc, lIsC, lok := intVecOf(l); lok {
		if ri, rc, rIsC, rok := intVecOf(r); rok {
			out := make([]int64, n)
			for _, i := range sel {
				a, bv := lc, rc
				if !lIsC {
					a = li[i]
				}
				if !rIsC {
					bv = ri[i]
				}
				switch op {
				case ast.OpAdd:
					out[i] = a + bv
				case ast.OpSub:
					out[i] = a - bv
				default:
					out[i] = a * bv
				}
			}
			return schema.IntVec(value.KindInt, out), true
		}
	}
	if lf, lc, lIsC, lok := floatVecOf(l); lok {
		if rf, rc, rIsC, rok := floatVecOf(r); rok {
			out := make([]float64, n)
			for _, i := range sel {
				a, bv := lc, rc
				if !lIsC {
					a = lf[i]
				}
				if !rIsC {
					bv = rf[i]
				}
				switch op {
				case ast.OpAdd:
					out[i] = a + bv
				case ast.OpSub:
					out[i] = a - bv
				default:
					out[i] = a * bv
				}
			}
			return schema.FloatVec(out), true
		}
	}
	return nil, false
}
