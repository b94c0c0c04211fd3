package attack

import (
	"fmt"
	"strings"
)

// RenderASCII renders a normalized [0,1] image of the given width as ASCII
// art, darkest-to-lightest — the terminal stand-in for the paper's Fig. 2
// "original and retrieved handwritten digits". Values clamp to [0,1].
func RenderASCII(pixels []float64, width int) string {
	if width <= 0 || len(pixels)%width != 0 {
		return fmt.Sprintf("<unrenderable: %d pixels, width %d>", len(pixels), width)
	}
	const ramp = " .:-=+*#%@"
	var b strings.Builder
	for i, p := range pixels {
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		idx := int(p * float64(len(ramp)-1))
		b.WriteByte(ramp[idx])
		if (i+1)%width == 0 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// SideBySide joins two equal-height ASCII renderings with a gutter, for
// original-vs-reconstruction terminal output.
func SideBySide(left, right, gutter string) string {
	ls := strings.Split(strings.TrimRight(left, "\n"), "\n")
	rs := strings.Split(strings.TrimRight(right, "\n"), "\n")
	n := len(ls)
	if len(rs) > n {
		n = len(rs)
	}
	width := 0
	for _, l := range ls {
		if len(l) > width {
			width = len(l)
		}
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		var l, r string
		if i < len(ls) {
			l = ls[i]
		}
		if i < len(rs) {
			r = rs[i]
		}
		b.WriteString(l)
		b.WriteString(strings.Repeat(" ", width-len(l)))
		b.WriteString(gutter)
		b.WriteString(r)
		b.WriteByte('\n')
	}
	return b.String()
}
