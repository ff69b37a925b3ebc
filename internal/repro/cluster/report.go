package cluster

// The reporting half of the harness: measured rates, data series, aligned
// tables, and the ASCII log-log plot that renders the paper's Fig. 2.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Rate is a measured throughput.
type Rate struct {
	Updates int64
	Seconds float64
}

// PerSecond returns updates per second (0 for a zero-duration run).
func (r Rate) PerSecond() float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return float64(r.Updates) / r.Seconds
}

// Eng formats a number with an engineering suffix (K, M, G, T).
func Eng(v float64) string {
	abs := math.Abs(v)
	switch {
	case abs >= 1e12:
		return fmt.Sprintf("%.2fT", v/1e12)
	case abs >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case abs >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case abs >= 1e3:
		return fmt.Sprintf("%.2fK", v/1e3)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// Point is one (x, y) sample.
type Point struct {
	X float64
	Y float64
}

// Series is a named sequence of points.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{X: x, Y: y}) }

// FormatTable renders the series as an aligned text table with one row per
// distinct X value (union across series) and one column per series.
func FormatTable(xLabel string, series []Series) string {
	xsSet := map[float64]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			xsSet[p.X] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	headers := []string{xLabel}
	for _, s := range series {
		headers = append(headers, s.Name)
	}
	rows := [][]string{headers}
	for _, x := range xs {
		row := []string{strconv.FormatFloat(x, 'f', -1, 64)}
		for _, s := range series {
			cell := ""
			for _, p := range s.Points {
				if p.X == x {
					cell = Eng(p.Y)
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}

	widths := make([]int, len(headers))
	for _, row := range rows {
		for c, cell := range row {
			if len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	var sb strings.Builder
	for ri, row := range rows {
		for c, cell := range row {
			if c > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%*s", widths[c], cell)
		}
		sb.WriteByte('\n')
		if ri == 0 {
			for c := range row {
				if c > 0 {
					sb.WriteString("  ")
				}
				sb.WriteString(strings.Repeat("-", widths[c]))
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// PlotLogLog renders the series as an ASCII log-log scatter plot —
// the terminal rendering of the paper's Fig. 2. Each series is drawn with
// its own marker; the legend maps markers to names.
func PlotLogLog(series []Series, width, height int) string {
	if width < 20 {
		width = 20
	}
	if height < 8 {
		height = 8
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	any := false
	for _, s := range series {
		for _, p := range s.Points {
			if p.X <= 0 || p.Y <= 0 {
				continue
			}
			any = true
			minX = math.Min(minX, p.X)
			maxX = math.Max(maxX, p.X)
			minY = math.Min(minY, p.Y)
			maxY = math.Max(maxY, p.Y)
		}
	}
	if !any {
		return "(no positive data to plot)\n"
	}
	if minX == maxX {
		maxX = minX * 10
	}
	if minY == maxY {
		maxY = minY * 10
	}
	lx0, lx1 := math.Log10(minX), math.Log10(maxX)
	ly0, ly1 := math.Log10(minY), math.Log10(maxY)

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	markers := []byte{'*', 'o', '+', 'x', '#', '@', '%', '&', '~', '^'}
	for si, s := range series {
		m := markers[si%len(markers)]
		for _, p := range s.Points {
			if p.X <= 0 || p.Y <= 0 {
				continue
			}
			c := int(math.Round((math.Log10(p.X) - lx0) / (lx1 - lx0) * float64(width-1)))
			r := height - 1 - int(math.Round((math.Log10(p.Y)-ly0)/(ly1-ly0)*float64(height-1)))
			if c >= 0 && c < width && r >= 0 && r < height {
				grid[r][c] = m
			}
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%10s +%s\n", Eng(maxY), strings.Repeat("-", width))
	for r := 0; r < height; r++ {
		label := strings.Repeat(" ", 10)
		if r == height/2 {
			label = fmt.Sprintf("%10s", "updates/s")
		}
		fmt.Fprintf(&sb, "%s |%s\n", label, string(grid[r]))
	}
	fmt.Fprintf(&sb, "%10s +%s\n", Eng(minY), strings.Repeat("-", width))
	fmt.Fprintf(&sb, "%10s  %-10s%*s\n", "", Eng(minX), width-10, Eng(maxX))
	for si, s := range series {
		fmt.Fprintf(&sb, "%12c %s\n", markers[si%len(markers)], s.Name)
	}
	return sb.String()
}
