package attack

import (
	"strings"
	"testing"
)

func TestRenderASCII(t *testing.T) {
	img := []float64{0, 1, 0.5, 0}
	got := RenderASCII(img, 2)
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	if lines[0][0] != ' ' {
		t.Errorf("zero pixel rendered as %q, want space", lines[0][0])
	}
	if lines[0][1] != '@' {
		t.Errorf("one pixel rendered as %q, want '@'", lines[0][1])
	}
}

func TestRenderASCIIClamps(t *testing.T) {
	got := RenderASCII([]float64{-3, 7}, 2)
	if got[0] != ' ' || got[1] != '@' {
		t.Errorf("clamping failed: %q", got)
	}
}

func TestRenderASCIIBadGeometry(t *testing.T) {
	got := RenderASCII([]float64{1, 2, 3}, 2)
	if !strings.Contains(got, "unrenderable") {
		t.Errorf("bad geometry should yield a marker, got %q", got)
	}
}

func TestSideBySide(t *testing.T) {
	got := SideBySide("ab\ncd\n", "xy\nzw\n", " | ")
	want := "ab | xy\ncd | zw\n"
	if got != want {
		t.Errorf("SideBySide = %q, want %q", got, want)
	}
}

func TestSideBySideUneven(t *testing.T) {
	got := SideBySide("ab\n", "xy\nzw\n", "|")
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	if !strings.HasSuffix(lines[1], "zw") {
		t.Errorf("second line = %q", lines[1])
	}
}
