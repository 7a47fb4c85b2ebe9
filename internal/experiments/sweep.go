package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"autotune/internal/export"
	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/perfmodel"
	"autotune/internal/skeleton"
)

// Sweep is the paper's brute force per thread count (§V-B.1): every
// tile set of the grid evaluated at every thread count the machine is
// studied at. Fig. 1, Tables II, III and V and Fig. 8 are views of it.
type Sweep struct {
	Machine *machine.Machine
	Threads []int
	// Tiles holds the grid's tile sets in grid order; Tiles[0] is all
	// ones, the untiled loop nest.
	Tiles [][]int64
	// Objs[i][t] is the (time, resources) of Tiles[i] at Threads[t].
	Objs [][][]float64
	// Best[t] indexes the fastest tile set at Threads[t], the first in
	// grid order among equals.
	Best []int
}

// NewSweep evaluates the brute-force grid of a kernel on a machine. A
// configuration that fails is an error: every view reads every point.
func NewSweep(k *kernels.Kernel, m *machine.Machine, mode Mode) (*Sweep, error) {
	res, err := bruteForce(k, m, mode)
	if err != nil {
		return nil, err
	}
	want := 1
	for _, vals := range bruteForceGrid(k, m, mode) {
		want *= len(vals)
	}
	if len(res.AllPoints) != want {
		return nil, fmt.Errorf("experiments: %d of %d %s configurations failed on %s", want-len(res.AllPoints), want, k.Name, m.Name)
	}
	// The grid enumerates thread counts innermost.
	s := &Sweep{Machine: m, Threads: ThreadCounts(m)}
	nT := len(s.Threads)
	for i := 0; i < want; i += nT {
		objs := make([][]float64, nT)
		for t, p := range res.AllPoints[i : i+nT] {
			objs[t] = p.Objectives
		}
		s.Tiles = append(s.Tiles, res.AllPoints[i].Payload.(skeleton.Config)[:k.TileDims])
		s.Objs = append(s.Objs, objs)
	}
	s.Best = make([]int, nT)
	for t := range s.Best {
		for i := range s.Objs {
			if s.Objs[i][t][0] < s.time(t) {
				s.Best[t] = i
			}
		}
	}
	return s, nil
}

// time is the best time at Threads[t].
func (s *Sweep) time(t int) float64 { return s.Objs[s.Best[t]][t][0] }

// scaling returns speedup and efficiency of the best tile set per
// thread count against the best sequential one.
func (s *Sweep) scaling() (speedup, eff []float64) {
	for t, th := range s.Threads {
		speedup = append(speedup, perfmodel.Speedup(s.time(0), s.time(t)))
		eff = append(eff, perfmodel.Efficiency(s.time(0), s.time(t), th))
	}
	return speedup, eff
}

// Loss is Table II's matrix: loss[i][j] is the relative loss of running
// the tile set tuned for Threads[i] at Threads[j] against the one tuned
// for Threads[j] (0 on the diagonal; grid noise below 0 reads as 0).
// untiled[j] is the loss of the untiled code at Threads[j].
func (s *Sweep) Loss() (loss [][]float64, untiled []float64) {
	for i := range s.Threads {
		row := make([]float64, len(s.Threads))
		for j := range row {
			row[j] = max(s.Objs[s.Best[i]][j][0]/s.time(j)-1, 0)
		}
		loss = append(loss, row)
		untiled = append(untiled, s.Objs[0][i][0]/s.time(i)-1)
	}
	return loss, untiled
}

// offDiagonal returns the losses of row i (all rows when i < 0) at
// every other thread count than the tuned-for one.
func offDiagonal(loss [][]float64, i int) []float64 {
	var out []float64
	for r := range loss {
		for j, l := range loss[r] {
			if r != j && (i < 0 || r == i) {
				out = append(out, l)
			}
		}
	}
	return out
}

// Fig1 renders Fig. 1: the speedup/efficiency trade-off of the best
// tile set per thread count, with a bar chart of the speedup.
func (s *Sweep) Fig1(w io.Writer) {
	fmt.Fprintf(w, "Fig. 1: efficiency and speedup trade-off (%s)\n", s.Machine.Name)
	speedup, eff := s.scaling()
	var rows [][]string
	for t, th := range s.Threads {
		rows = append(rows, []string{
			fmt.Sprint(th),
			fmt.Sprintf("%.2f", speedup[t]),
			fmt.Sprintf("%.3f", eff[t]),
			strings.Repeat("#", int(30*speedup[t]/speedup[len(speedup)-1])),
		})
	}
	renderTable(w, []string{"Threads", "Speedup", "Efficiency", ""}, rows)
}

// Table2 renders Table II: the optimal tiles per thread count and what
// each costs at the others.
func (s *Sweep) Table2(w io.Writer) {
	fmt.Fprintf(w, "Table II: optimal tiling parameters per thread count (%s)\n", s.Machine.Name)
	loss, untiled := s.Loss()
	header := []string{"Tuned for", "opt. tiles"}
	for _, th := range s.Threads {
		header = append(header, fmt.Sprintf("@%dc", th))
	}
	header = append(header, "Avg")
	var rows [][]string
	for i, th := range s.Threads {
		tiles := make([]string, len(s.Tiles[s.Best[i]]))
		for d, v := range s.Tiles[s.Best[i]] {
			tiles[d] = fmt.Sprint(v)
		}
		row := []string{fmt.Sprintf("%d cores", th), strings.Join(tiles, "/")}
		for j, l := range loss[i] {
			if i == j {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.1f%%", 100*l))
			}
		}
		rows = append(rows, append(row, fmt.Sprintf("%.1f%%", 100*meanOf(offDiagonal(loss, i)))))
	}
	row := []string{"untiled -O3", "-"}
	for _, l := range untiled {
		row = append(row, fmt.Sprintf("%.0f%%", 100*l))
	}
	renderTable(w, header, append(rows, append(row, "")))
}

// Table3 renders Table III: speedup, efficiency and the relative time
// and resources of the best tile set per thread count.
func (s *Sweep) Table3(w io.Writer) {
	fmt.Fprintf(w, "Table III: impact of thread count on speedup and efficiency (%s)\n", s.Machine.Name)
	speedup, eff := s.scaling()
	var rows [][]string
	for t, th := range s.Threads {
		rows = append(rows, []string{
			fmt.Sprint(th),
			fmt.Sprintf("%.5f", speedup[t]),
			fmt.Sprintf("%.5f", eff[t]),
			fmt.Sprintf("%.0f%%", 100*(s.time(t)/s.time(0))),
			fmt.Sprintf("%.0f%%", 100*(float64(th)*s.time(t)/s.time(0))),
		})
	}
	renderTable(w, []string{"Cores", "Speedup", "Efficiency", "Rel. Time", "Rel. Resources"}, rows)
}

// Fig8 renders Fig. 8 as a summary of each thread count's point cloud
// in the time/resources plane (the clouds are too large for text).
func (s *Sweep) Fig8(w io.Writer) {
	fmt.Fprintf(w, "Fig. 8: execution time vs resource usage per thread count (%s)\n", s.Machine.Name)
	var rows [][]string
	for t, th := range s.Threads {
		minT, minR, tAtMinR := math.Inf(1), math.Inf(1), 0.0
		for _, objs := range s.Objs {
			o := objs[t]
			minT = min(minT, o[0])
			if o[1] < minR {
				minR, tAtMinR = o[1], o[0]
			}
		}
		rows = append(rows, []string{
			fmt.Sprint(th), fmt.Sprint(len(s.Objs)),
			fmt.Sprintf("%.4fs", minT),
			fmt.Sprintf("%.4f", minR),
			fmt.Sprintf("%.4fs", tAtMinR),
		})
	}
	renderTable(w, []string{"Threads", "Points", "min time", "min resources", "time@minRes"}, rows)
}

// ExportFig8 writes Fig. 8's point clouds into dir as CSV; an empty
// dir writes nothing.
func (s *Sweep) ExportFig8(dir string) error {
	series := map[int][][2]float64{}
	for _, objs := range s.Objs {
		for t, o := range objs {
			series[s.Threads[t]] = append(series[s.Threads[t]], [2]float64{o[0], o[1]})
		}
	}
	return writeFiles(dir, map[string]func(io.Writer) error{
		"fig8_" + s.Machine.Name + ".csv": func(w io.Writer) error { return export.SeriesCSV(w, series) },
	})
}

// table5Row is one kernel's row of Table V: per tuned-for thread count
// the mean loss at the others, their overall mean, and the worst loss
// of the 1-thread tile set.
func table5Row(s *Sweep) (perTuned []float64, avg, oneTMax float64) {
	loss, _ := s.Loss()
	for i := range loss {
		perTuned = append(perTuned, meanOf(offDiagonal(loss, i)))
	}
	for _, l := range loss[0] {
		oneTMax = max(oneTMax, l)
	}
	return perTuned, meanOf(offDiagonal(loss, -1)), oneTMax
}

// Table5 renders Table V, the impact of thread-specific tuning, for
// every paper kernel on one machine.
func Table5(w io.Writer, m *machine.Machine, mode Mode) error {
	header := []string{"Kernel"}
	for _, th := range ThreadCounts(m) {
		header = append(header, fmt.Sprintf("tuned@%d", th))
	}
	var rows [][]string
	for _, k := range kernels.Paper() {
		s, err := NewSweep(k, m, mode)
		if err != nil {
			return err
		}
		perTuned, avg, oneTMax := table5Row(s)
		row := []string{k.Name}
		for _, l := range append(perTuned, avg, oneTMax) {
			row = append(row, fmt.Sprintf("%.1f%%", 100*l))
		}
		rows = append(rows, row)
	}
	fmt.Fprintf(w, "Table V: impact of thread-specific optimization (%s)\n", m.Name)
	renderTable(w, append(header, "avg", "1tmax"), rows)
	return nil
}
