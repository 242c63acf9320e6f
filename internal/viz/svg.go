// Package viz renders synthesized designs as standalone SVG documents: an
// architecture diagram (processors and links) next to a Gantt chart of the
// static schedule — the graphical analogue of the paper's Figure 2.
// Pure stdlib; output is deterministic for a given design.
package viz

import (
	"fmt"
	"math"
	"strings"

	"sos/internal/arch"
	"sos/internal/schedule"
)

// palette cycles over subtask fill colors (accessible, print-friendly).
var palette = []string{
	"#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2",
	"#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
}

// SVG renders the design. Width is the total document width in pixels
// (height derives from the row count); 960 is a good default (pass 0).
func SVG(d *schedule.Design, width int) string {
	if width <= 0 {
		width = 960
	}
	var b strings.Builder
	archW := width * 35 / 100
	ganttW := width - archW - 30
	rows := len(d.Procs) + len(d.Links)
	rowH := 28
	headH := 40
	axisH := 30
	height := headH + rows*rowH + axisH + 20
	if height < 240 {
		height = 240
	}

	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="sans-serif">`+"\n",
		width, height, width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(&b, `<text x="12" y="24" font-size="15" font-weight="bold">%s — cost %g, makespan %g</text>`+"\n",
		esc(d.Graph.Name), d.Cost, d.Makespan)

	drawArchitecture(&b, d, 12, headH, archW-24, height-headH-20)
	drawGantt(&b, d, archW+18, headH, ganttW, rows, rowH, axisH)

	b.WriteString("</svg>\n")
	return b.String()
}

// drawArchitecture lays the selected processors on a circle and draws the
// created links as arrows (the bus as a backbone segment).
func drawArchitecture(b *strings.Builder, d *schedule.Design, x, y, w, h int) {
	n := len(d.Procs)
	if n == 0 {
		return
	}
	cx, cy := float64(x+w/2), float64(y+h/2)
	r := math.Min(float64(w), float64(h))/2 - 40
	if r < 30 {
		r = 30
	}
	pos := map[arch.ProcID][2]float64{}
	for i, p := range d.Procs {
		ang := 2*math.Pi*float64(i)/float64(n) - math.Pi/2
		pos[p] = [2]float64{cx + r*math.Cos(ang), cy + r*math.Sin(ang)}
	}

	if _, isBus := d.Topo.(arch.Bus); isBus && len(d.Links) > 0 {
		// Bus backbone: a horizontal line below the circle center with
		// drops from each processor.
		busY := cy + r + 24
		fmt.Fprintf(b, `<line x1="%.0f" y1="%.0f" x2="%.0f" y2="%.0f" stroke="#333" stroke-width="3"/>`+"\n",
			cx-r, busY, cx+r, busY)
		fmt.Fprintf(b, `<text x="%.0f" y="%.0f" font-size="11" fill="#333">bus</text>`+"\n", cx+r+4, busY+4)
		for _, p := range d.Procs {
			fmt.Fprintf(b, `<line x1="%.0f" y1="%.0f" x2="%.0f" y2="%.0f" stroke="#777" stroke-width="1.5"/>`+"\n",
				pos[p][0], pos[p][1], pos[p][0], busY)
		}
	} else {
		// Point-to-point / ring: arrows between endpoint processors.
		drawn := map[[2]arch.ProcID]bool{}
		for _, tr := range d.Transfers {
			if !tr.Remote {
				continue
			}
			key := [2]arch.ProcID{tr.From, tr.To}
			if drawn[key] {
				continue
			}
			drawn[key] = true
			x1, y1 := pos[tr.From][0], pos[tr.From][1]
			x2, y2 := pos[tr.To][0], pos[tr.To][1]
			// Shorten to box edges.
			dx, dy := x2-x1, y2-y1
			l := math.Hypot(dx, dy)
			if l == 0 {
				continue
			}
			ux, uy := dx/l, dy/l
			x1, y1 = x1+ux*30, y1+uy*30
			x2, y2 = x2-ux*30, y2-uy*30
			fmt.Fprintf(b, `<line x1="%.0f" y1="%.0f" x2="%.0f" y2="%.0f" stroke="#555" stroke-width="1.8" marker-end="url(#arr)"/>`+"\n",
				x1, y1, x2, y2)
		}
		b.WriteString(`<defs><marker id="arr" viewBox="0 0 10 10" refX="9" refY="5" markerWidth="7" markerHeight="7" orient="auto-start-reverse"><path d="M 0 0 L 10 5 L 0 10 z" fill="#555"/></marker></defs>` + "\n")
	}

	lib := d.Pool.Library()
	for _, p := range d.Procs {
		px, py := pos[p][0], pos[p][1]
		fmt.Fprintf(b, `<rect x="%.0f" y="%.0f" width="56" height="34" rx="6" fill="#eef2f7" stroke="#4e79a7" stroke-width="1.5"/>`+"\n",
			px-28, py-17)
		fmt.Fprintf(b, `<text x="%.0f" y="%.0f" font-size="12" text-anchor="middle">%s</text>`+"\n",
			px, py-2, esc(d.Pool.Proc(p).Name))
		fmt.Fprintf(b, `<text x="%.0f" y="%.0f" font-size="9" text-anchor="middle" fill="#666">cost %g</text>`+"\n",
			px, py+11, lib.Type(d.Pool.Proc(p).Type).Cost)
	}
}

// drawGantt renders one row per processor and per link.
func drawGantt(b *strings.Builder, d *schedule.Design, x, y, w, rows, rowH, axisH int) {
	if d.Makespan <= 0 || rows == 0 {
		return
	}
	labelW := 90
	plotW := w - labelW
	scale := float64(plotW) / d.Makespan
	rowY := func(i int) int { return y + i*rowH }
	colorOf := func(task int) string { return palette[task%len(palette)] }

	ri := 0
	for _, p := range d.Procs {
		yy := rowY(ri)
		fmt.Fprintf(b, `<text x="%d" y="%d" font-size="11">%s</text>`+"\n", x, yy+rowH/2+4, esc(d.Pool.Proc(p).Name))
		for _, as := range d.Assignments {
			if as.Proc != p {
				continue
			}
			bx := float64(x+labelW) + as.Start*scale
			bw := (as.End - as.Start) * scale
			fmt.Fprintf(b, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s" stroke="#333" stroke-width="0.5"/>`+"\n",
				bx, yy+4, math.Max(bw, 1), rowH-8, colorOf(int(as.Task)))
			fmt.Fprintf(b, `<text x="%.1f" y="%d" font-size="10" fill="white">%s</text>`+"\n",
				bx+3, yy+rowH/2+4, esc(d.Graph.Subtask(as.Task).Name))
		}
		ri++
	}
	for _, l := range d.Links {
		yy := rowY(ri)
		fmt.Fprintf(b, `<text x="%d" y="%d" font-size="10" fill="#555">%s</text>`+"\n",
			x, yy+rowH/2+4, esc(d.Topo.LinkName(d.Pool, l)))
		for _, tr := range d.Transfers {
			if !tr.Remote || !hasLink(tr.Links, l) {
				continue
			}
			a := d.Graph.Arc(tr.Arc)
			bx := float64(x+labelW) + tr.Start*scale
			bw := (tr.End - tr.Start) * scale
			fmt.Fprintf(b, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s" fill-opacity="0.55" stroke="#333" stroke-width="0.5"/>`+"\n",
				bx, yy+7, math.Max(bw, 1), rowH-14, colorOf(int(a.Dst)))
			fmt.Fprintf(b, `<text x="%.1f" y="%d" font-size="9" fill="#222">i%d,%d</text>`+"\n",
				bx+2, yy+rowH/2+3, int(a.Dst)+1, a.DstPort)
		}
		ri++
	}

	// Axis with tick marks.
	axisY := rowY(rows) + 8
	fmt.Fprintf(b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>`+"\n",
		x+labelW, axisY, x+labelW+plotW, axisY)
	marks := 6
	for k := 0; k <= marks; k++ {
		t := d.Makespan * float64(k) / float64(marks)
		tx := float64(x+labelW) + t*scale
		fmt.Fprintf(b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#333"/>`+"\n", tx, axisY, tx, axisY+5)
		fmt.Fprintf(b, `<text x="%.1f" y="%d" font-size="10" text-anchor="middle">%s</text>`+"\n",
			tx, axisY+int(float64(axisH))-12, trimFloat(t))
	}
}

func hasLink(links []arch.LinkID, l arch.LinkID) bool {
	for _, ll := range links {
		if ll == l {
			return true
		}
	}
	return false
}

func trimFloat(t float64) string {
	s := fmt.Sprintf("%.2f", t)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
