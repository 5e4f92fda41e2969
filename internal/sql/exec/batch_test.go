package exec

import (
	"reflect"
	"testing"

	"ironsafe/internal/schema"
	"ironsafe/internal/simtime"
	"ironsafe/internal/sql/parser"
	"ironsafe/internal/value"
)

// edgeCatalog extends the standard test catalog with the shapes that stress
// batch boundaries: an empty relation, a relation whose rows all fail a
// predicate, one sized to straddle tiny batch windows, and a NULL-heavy one.
func edgeCatalog() memCatalog {
	cat := testCatalog()
	cat["empty"] = &MemRelation{
		Sch: schema.New(schema.Col("a", value.KindInt), schema.Col("b", value.KindString)),
	}
	rows := make([]schema.Row, 0, 10)
	for i := 0; i < 10; i++ {
		rows = append(rows, schema.Row{value.Int(int64(i)), value.Int(int64(i % 3))})
	}
	cat["seq"] = &MemRelation{
		Sch:  schema.New(schema.Col("n", value.KindInt), schema.Col("m", value.KindInt)),
		Rows: rows,
	}
	nullRows := []schema.Row{
		{value.Null(), value.Str("x")},
		{value.Int(1), value.Null()},
		{value.Null(), value.Null()},
		{value.Int(2), value.Str("y")},
		{value.Null(), value.Str("x")},
		{value.Int(1), value.Null()},
		{value.Int(3), value.Null()},
	}
	cat["sparse"] = &MemRelation{
		Sch:  schema.New(schema.Col("v", value.KindInt), schema.Col("tag", value.KindString)),
		Rows: nullRows,
	}
	return cat
}

// TestBatchSizeInvariance runs each query under every batch size — including
// row-at-a-time and windows that split the input mid-operator — and demands
// byte-identical rows and identical data-work accounting. Only the Batches
// counter (amortization) may differ between pipelines.
func TestBatchSizeInvariance(t *testing.T) {
	queries := []struct {
		name, sql string
		// probed marks the subquery and left-join shapes, whose probes must
		// dispatch per batch: strictly fewer Batches than row-at-a-time.
		probed bool
	}{
		{"empty scan", "SELECT a, b FROM empty", false},
		{"empty aggregate", "SELECT count(*), sum(a) FROM empty", false},
		{"all filtered", "SELECT n FROM seq WHERE n > 100", false},
		{"all filtered aggregate", "SELECT count(*) FROM seq WHERE n < 0", false},
		{"limit at batch boundary", "SELECT n FROM seq ORDER BY n LIMIT 3", false},
		{"limit past input", "SELECT n FROM seq ORDER BY n DESC LIMIT 99", false},
		{"null-heavy filter", "SELECT v, tag FROM sparse WHERE v > 1", false},
		{"null-heavy aggregate", "SELECT tag, count(*), sum(v), min(v) FROM sparse GROUP BY tag ORDER BY tag", false},
		{"null-heavy distinct", "SELECT count(DISTINCT v) FROM sparse", false},
		{"join across windows", "SELECT s.n, o.amount FROM seq s, orders o WHERE s.m = 0 AND o.amount > 20 ORDER BY s.n, o.oid", false},
		{"case and in-list", "SELECT n, CASE WHEN n IN (1, 3, 5) THEN 'odd' WHEN n IS NULL THEN 'null' ELSE 'other' END FROM seq ORDER BY n", false},
		{"expressions", "SELECT n + m, n * 2, -n FROM seq WHERE n BETWEEN 2 AND 8 ORDER BY n", false},

		// Subqueries: every shape the batch probe takes over.
		{"correlated exists with residual", `SELECT o.oid FROM orders o
			WHERE EXISTS (SELECT * FROM orders o2 WHERE o2.uid = o.uid AND o2.oid <> o.oid)
			AND NOT EXISTS (SELECT * FROM items i WHERE i.oid = o.oid AND i.qty > 2)`, true},
		{"uncorrelated in with nulls", "SELECT v, tag FROM sparse WHERE v IN (SELECT m FROM seq WHERE n > 4)", true},
		{"uncorrelated not in with nulls", "SELECT n, n NOT IN (SELECT v FROM sparse), n NOT IN (SELECT v FROM sparse WHERE v IS NOT NULL) FROM seq", true},
		{"correlated in with null keys", "SELECT s.v, s.tag, s.v IN (SELECT t.v FROM sparse t WHERE t.tag = s.tag) FROM sparse s", true},
		{"correlated not in with nulls", `SELECT q.n, q.m IN (SELECT t.v FROM sparse t WHERE t.v >= q.m OR (t.tag = 'x' AND q.n > 5)),
			q.m NOT IN (SELECT t.v FROM sparse t WHERE t.v >= q.m OR (t.tag = 'x' AND q.n > 5)) FROM seq q`, true},
		{"correlated scalar aggregate", `SELECT u.id, (SELECT sum(o.amount) FROM orders o WHERE o.uid = u.id) FROM users u
			WHERE u.id < (SELECT count(*) FROM orders o2 WHERE o2.uid = u.id) + 2`, true},
		// Only the rows n < 7 leaves undecided may reach the EXISTS probe,
		// whose residual charges work per candidate. The scalar subquery
		// returns several rows, an error if it were ever evaluated.
		{"subquery in or branch", `SELECT n FROM seq
			WHERE (n < 7 OR EXISTS (SELECT * FROM sparse WHERE sparse.v = seq.m AND sparse.v <> seq.n))
			AND (n >= 0 OR m = (SELECT v FROM sparse))`, true},
		{"outer reference in select list", "SELECT u.id FROM users u WHERE u.age IN (SELECT u.age FROM orders) ORDER BY u.id", true},
		{"left join null keys with residual", `SELECT s.v, s.tag, o.oid FROM sparse s
			LEFT OUTER JOIN orders o ON s.v = o.uid AND o.amount > 30`, true},
	}
	sizes := []int{1, 2, 3, 5, 7, DefaultBatchRows}
	for _, qc := range queries {
		sel, err := parser.ParseSelect(qc.sql)
		if err != nil {
			t.Fatalf("%s: parse: %v", qc.name, err)
		}
		var refRows [][]schema.Row
		var refSnap simtime.Snapshot
		var rowBatches int64
		for si, n := range sizes {
			var m simtime.Meter
			res, err := RunBatched(sel, edgeCatalog(), &m, n)
			if err != nil {
				t.Fatalf("%s (batch=%d): %v", qc.name, n, err)
			}
			snap := m.Snapshot()
			if n == 1 {
				rowBatches = snap.Batches
			}
			if qc.probed && n == DefaultBatchRows && snap.Batches >= rowBatches {
				t.Errorf("%s: batch=%d dispatched %d batches, want < row-at-a-time's %d",
					qc.name, n, snap.Batches, rowBatches)
			}
			snap.Batches = 0 // amortization granularity is the one sanctioned difference
			if si == 0 {
				refRows = append(refRows, res.Rows)
				refSnap = snap
				continue
			}
			if !reflect.DeepEqual(res.Rows, refRows[0]) {
				t.Errorf("%s: batch=%d rows diverge from batch=%d:\n  got:  %v\n  want: %v",
					qc.name, n, sizes[0], res.Rows, refRows[0])
			}
			if snap != refSnap {
				t.Errorf("%s: batch=%d accounting diverges from batch=%d:\n  got:  %+v\n  want: %+v",
					qc.name, n, sizes[0], snap, refSnap)
			}
		}
	}
}

// TestScanBatchWindows pins the ScanBatch contract on the in-memory bridge:
// full windows of the requested size, a short tail, and batches that expose
// the shared schema.
func TestScanBatchWindows(t *testing.T) {
	rel := edgeCatalog()["seq"] // 10 rows
	var lens []int
	err := rel.ScanBatch(4, func(bt *Batch) error {
		if bt.Sch != rel.Sch {
			t.Error("batch schema is not the relation schema")
		}
		lens = append(lens, bt.Len())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lens, []int{4, 4, 2}) {
		t.Errorf("window lengths = %v, want [4 4 2]", lens)
	}

	// The empty relation produces no callbacks at all.
	calls := 0
	if err := edgeCatalog()["empty"].ScanBatch(4, func(*Batch) error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("empty relation produced %d batches, want 0", calls)
	}
}

// TestBatchColumnVectors pins the lazy column extraction: typed vectors for
// uniform columns, boxed for NULL-mixed ones, values reboxing losslessly.
func TestBatchColumnVectors(t *testing.T) {
	rel := edgeCatalog()["sparse"]
	bt := NewBatch(rel.Sch, rel.Rows)
	vCol := bt.Col(0) // NULL-mixed int column: boxed
	for i := range rel.Rows {
		got, want := vCol.Value(i), rel.Rows[i][0]
		if got.IsNull() != want.IsNull() || (!want.IsNull() && value.MustCompare(got, want) != 0) {
			t.Errorf("col v row %d: %v, want %v", i, got, want)
		}
	}
	seq := edgeCatalog()["seq"]
	nCol := NewBatch(seq.Sch, seq.Rows).Col(0) // uniform ints: typed
	if nCol.Ints == nil {
		t.Error("uniform int column did not take the typed representation")
	}
	for i := range seq.Rows {
		if nCol.Value(i).AsInt() != seq.Rows[i][0].AsInt() {
			t.Errorf("col n row %d reboxed to %v", i, nCol.Value(i))
		}
	}
}
