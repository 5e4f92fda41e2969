package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/figures.golden from the current code")

// TestFigureGolden pins the rendered text of the figures that read the cost
// breakdown (Figures 8, 9c, 11 and 12) at testSF. The shape tests above only
// check orderings; this one catches any change to how meters are priced.
// Regenerate with `go test ./internal/bench -run FigureGolden -update` only
// when a pricing change is intended.
func TestFigureGolden(t *testing.T) {
	var buf bytes.Buffer
	fig8, err := Fig8(testSF, testQueries)
	if err != nil {
		t.Fatal(err)
	}
	PrintFig8(&buf, fig8)
	fig9c, err := Fig9c(testSF, []int{2, 9})
	if err != nil {
		t.Fatal(err)
	}
	PrintFig9c(&buf, fig9c)
	budgets := []int64{8 << 10, 64 << 10, 1 << 20}
	fig11, err := Fig11(testSF, []int{3, 9}, budgets)
	if err != nil {
		t.Fatal(err)
	}
	PrintFig11(&buf, fig11, budgets)
	fig12, err := Fig12(testSF, []int{6, 14}, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	PrintFig12(&buf, fig12)

	path := filepath.Join("testdata", "figures.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("figure text differs from %s\ngot:\n%s\nwant:\n%s", path, buf.Bytes(), want)
	}
}
