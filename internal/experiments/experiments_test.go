package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// smokeRunner builds a runner at smoke scale, shared across subtests in a
// test (not across tests, to keep failures independent).
func smokeRunner(t *testing.T) *Runner {
	t.Helper()
	r, err := NewRunner(SmokeContext())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestContextValidate(t *testing.T) {
	good := SmokeContext()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Context{
		{MaxDim: 0, Dims: []int{1}, Levels: 4},
		{MaxDim: 100, Dims: nil, Levels: 4},
		{MaxDim: 100, Dims: []int{50, 50}, Levels: 4},  // not ascending
		{MaxDim: 100, Dims: []int{50, 200}, Levels: 4}, // beyond MaxDim
		{MaxDim: 100, Dims: []int{50, 100}, Levels: 1}, // too few levels
		{MaxDim: 100, Dims: []int{0, 100}, Levels: 4},  // zero dim
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("context %d should fail validation", i)
		}
	}
	if err := DefaultContext().Validate(); err != nil {
		t.Errorf("DefaultContext invalid: %v", err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "T", Note: "n",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
	}
	s := tab.String()
	for _, want := range []string{"== x: T ==", "n", "a", "bb", "333"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q in:\n%s", want, s)
		}
	}
	md := tab.Markdown()
	if !strings.Contains(md, "| a | bb |") || !strings.Contains(md, "| --- | --- |") {
		t.Errorf("Markdown malformed:\n%s", md)
	}
}

func TestSliceDims(t *testing.T) {
	enc := [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}}
	out := sliceDims(enc, 2)
	if len(out[0]) != 2 || out[1][1] != 6 {
		t.Errorf("sliceDims = %v", out)
	}
	// Prefix views must not allow silent growth into the backing array.
	out[0] = append(out[0], 99)
	if enc[0][2] == 99 {
		t.Error("sliceDims aliased beyond the slice cap")
	}
}

func TestRunnerCaching(t *testing.T) {
	r := smokeRunner(t)
	a, err := r.Level("face-s")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Level("face-s")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Level should cache")
	}
	if _, err := r.Dataset("nope"); err == nil {
		t.Error("unknown dataset should fail")
	}
}

func TestFig2Smoke(t *testing.T) {
	r := smokeRunner(t)
	res, err := Fig2(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) == 0 {
		t.Fatal("fig2 produced no rows")
	}
	if len(res.Art) == 0 {
		t.Error("fig2 produced no art")
	}
	// Clean reconstructions must be decent even at smoke dims.
	for _, row := range res.Table.Rows {
		psnr, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("unparseable PSNR %q", row[2])
		}
		if psnr < 8 {
			t.Errorf("digit %s PSNR = %v, implausibly low for clean decode", row[0], psnr)
		}
	}
}

func TestFig3Smoke(t *testing.T) {
	r := smokeRunner(t)
	tables, err := Fig3(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("fig3 tables = %d", len(tables))
	}
	a := tables[0]
	// Retention must start at 0 and end at 1.
	first := a.Rows[0][1]
	last := a.Rows[len(a.Rows)-1][1]
	if first != "0.00" {
		t.Errorf("retention[0] = %s", first)
	}
	if last != "1.00" {
		t.Errorf("retention[full] = %s", last)
	}
	// Fig 3a shape: half the dims restored recovers < 50%.
	mid := a.Rows[len(a.Rows)/2][1]
	v, _ := strconv.ParseFloat(mid, 64)
	if v >= 0.6 {
		t.Errorf("mid retention = %v, expected the slow-start shape", v)
	}
}

func TestFig5Smoke(t *testing.T) {
	r := smokeRunner(t)
	tables, err := Fig5(r)
	if err != nil {
		t.Fatal(err)
	}
	acc, sens := tables[0], tables[1]
	if len(acc.Rows) != len(r.ctx.Dims) {
		t.Fatalf("fig5a rows = %d", len(acc.Rows))
	}
	// Sensitivity table must contain exact analytic values; check the
	// bipolar column at the largest dim: sqrt(2000) ≈ 44.72.
	lastRow := sens.Rows[len(sens.Rows)-1]
	if lastRow[2] != "44.72" {
		t.Errorf("bipolar sensitivity at 2000 = %s, want 44.72", lastRow[2])
	}
	// Ordering: biased ternary < ternary < bipolar < 2bit.
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad cell %q", s)
		}
		return v
	}
	for _, row := range sens.Rows {
		bp, tn, bt, tb := parse(row[2]), parse(row[3]), parse(row[4]), parse(row[5])
		if !(bt < tn && tn < bp && bp < tb) {
			t.Errorf("sensitivity ordering broken in row %v", row)
		}
	}
}

func TestFig8Smoke(t *testing.T) {
	r := smokeRunner(t)
	tables, err := Fig8(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 {
		t.Fatalf("fig8 tables = %d, want 4 (a-d)", len(tables))
	}
	for _, tab := range tables[:3] {
		if len(tab.Rows) != len(r.ctx.Dims) {
			t.Errorf("%s rows = %d", tab.ID, len(tab.Rows))
		}
	}
	if tables[3].ID != "fig8d" || len(tables[3].Rows) != 5 {
		t.Errorf("fig8d malformed: %+v", tables[3])
	}
}

func TestEq15Smoke(t *testing.T) {
	r := smokeRunner(t)
	tab, err := Eq15(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("eq15 empty")
	}
	// Measured saving must be positive in every row.
	for _, row := range tab.Rows {
		if !strings.HasSuffix(row[5], "%") {
			t.Errorf("saving cell %q", row[5])
		}
		v, _ := strconv.ParseFloat(strings.TrimSuffix(row[5], "%"), 64)
		if v <= 0 {
			t.Errorf("d_iv %s: non-positive saving %v", row[0], v)
		}
	}
}

func TestTableISmoke(t *testing.T) {
	r := smokeRunner(t)
	tab, err := TableI(r)
	if err != nil {
		t.Fatal(err)
	}
	// 3 workloads × 3 platforms + 2 geomean rows.
	if len(tab.Rows) != 11 {
		t.Errorf("tableI rows = %d, want 11", len(tab.Rows))
	}
}

func TestAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full smoke suite is slow")
	}
	r := smokeRunner(t)
	s, err := All(r)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []string{
		"fig2", "fig3a", "fig3b", "fig4", "fig5a", "fig5b", "fig6",
		"fig8a", "fig8b", "fig8c", "fig8d", "fig9a", "fig9b",
		"eq15", "approx-majority", "tableI", "model-inversion",
		"ablate-encoding", "ablate-prune", "ablate-quant-order", "ablate-noise-placement",
		"repro-checks",
	}
	for _, id := range wantIDs {
		if s.Find(id) == nil {
			t.Errorf("suite missing table %s", id)
		}
	}
	if len(s.Tables) != len(wantIDs) {
		t.Errorf("suite has %d tables, want %d", len(s.Tables), len(wantIDs))
	}
	if s.Find("nope") != nil {
		t.Error("Find(nope) should be nil")
	}
	if len(s.Art) == 0 {
		t.Error("suite has no art")
	}
	// Analytic assertions must pass even at smoke scale; accuracy ones
	// should be skipped, never failed.
	checks := s.Find("repro-checks")
	if !Passed(checks) {
		t.Errorf("repro checks failed:\n%s", checks.String())
	}
	skipped := 0
	for _, row := range checks.Rows {
		if row[1] == "skipped" {
			skipped++
		}
	}
	if skipped == 0 {
		t.Error("smoke-scale run should skip the accuracy assertions")
	}
}
