// Command repro regenerates the paper's tables and figures, and the
// comparisons of the extensions built on them, on the simulated
// machines.
//
// Usage:
//
//	repro [-exp all|table1|fig1|fig2|table2|table3|table4|table5|fig8|table6|fig9|island|warmstart|race|surrogate|resume|extended|validate]
//	      [-machine Westmere|Barcelona|all] [-kernel mm|...]
//	      [-mode quick|full] [-reps N] [-export DIR]
//
// The default regenerates everything at full (paper-scale) budget;
// `repro -mode full -reps 3` is the command behind repro_output.txt.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"autotune/internal/experiments"
	"autotune/internal/export"
	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/pareto"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

// params is what the flags select; each experiment reads what it needs.
type params struct {
	w         io.Writer
	machines  []*machine.Machine
	kernel    *kernels.Kernel
	mode      experiments.Mode
	reps      int
	exportDir string
}

// exps is the one list of -exp names, in paper order followed by the
// extensions: the flag help, the unknown-name error and the tests all
// read it.
var exps = []struct {
	name string
	run  func(p *params) error
}{
	{"all", func(p *params) error { return experiments.RunAll(p.w, p.mode, p.reps) }},
	{"table1", func(p *params) error { experiments.Table1(p.w); return nil }},
	{"fig1", perKernel(experiments.Fig1)},
	{"fig2", fig2},
	{"table2", perKernel(experiments.Table2)},
	{"table3", perKernel(experiments.Table3)},
	{"table4", func(p *params) error { experiments.Table4(p.w); return nil }},
	{"table5", perMachine(func(p *params, m *machine.Machine) (*experiments.Table5Result, error) {
		return experiments.Table5(m, p.mode)
	})},
	{"fig8", perMachine(fig8)},
	{"table6", perMachine(func(p *params, m *machine.Machine) (*experiments.Table6Result, error) {
		return experiments.Table6(m, p.mode, p.reps)
	})},
	{"fig9", perMachine(fig9)},
	{"island", perKernel(experiments.IslandComparison)},
	{"warmstart", perKernel(experiments.WarmStartComparison)},
	{"race", perKernel(experiments.RaceComparison)},
	{"surrogate", perKernel(experiments.SurrogateComparison)},
	{"resume", perMachine(func(p *params, m *machine.Machine) (*experiments.ResumeResult, error) {
		// The selected kernel beside a second one.
		second := "jacobi-2d"
		if p.kernel.Name == second {
			second = "mm"
		}
		return experiments.ResumeComparison([]string{p.kernel.Name, second}, m, p.mode)
	})},
	{"extended", perMachine(func(p *params, m *machine.Machine) (*experiments.ExtendedResult, error) {
		return experiments.Extended(m, p.mode, 1)
	})},
	{"validate", func(p *params) error {
		r, err := experiments.Validation()
		if err != nil {
			return err
		}
		r.Render(p.w)
		return nil
	}},
}

func expNames() string {
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.name
	}
	return strings.Join(names, ", ")
}

// run is main without the process: it parses args, runs the selected
// experiment and writes its rendering to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to regenerate ("+expNames()+")")
	machName := fs.String("machine", "all", "target machine (Westmere, Barcelona, all)")
	kernName := fs.String("kernel", "mm", "kernel for single-kernel experiments")
	modeName := fs.String("mode", "full", "evaluation budget (quick, full)")
	reps := fs.Int("reps", 5, "repetitions for stochastic strategies (Table VI)")
	exportDir := fs.String("export", "", "also write figure data (CSV) and gnuplot scripts to this directory (fig2, fig8, fig9)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	p := &params{w: stdout, mode: experiments.Full, reps: *reps, exportDir: *exportDir}
	if *modeName == "quick" {
		p.mode = experiments.Quick
	}
	if *machName == "all" {
		p.machines = []*machine.Machine{machine.Westmere(), machine.Barcelona()}
	} else {
		m, err := machine.ByName(*machName)
		if err != nil {
			return err
		}
		p.machines = []*machine.Machine{m}
	}
	var err error
	if p.kernel, err = kernels.ByName(*kernName); err != nil {
		return err
	}
	for _, e := range exps {
		if e.name == *exp {
			return e.run(p)
		}
	}
	return fmt.Errorf("unknown experiment %q (valid: %s)", *exp, expNames())
}

type renderer interface{ Render(io.Writer) }

// perMachine runs f on every selected machine and renders each result
// followed by a blank line.
func perMachine[R renderer](f func(p *params, m *machine.Machine) (R, error)) func(*params) error {
	return func(p *params) error {
		for _, m := range p.machines {
			r, err := f(p, m)
			if err != nil {
				return err
			}
			r.Render(p.w)
			fmt.Fprintln(p.w)
		}
		return nil
	}
}

// perKernel is perMachine for the experiments of the shape
// f(kernel, machine, mode).
func perKernel[R renderer](f func(*kernels.Kernel, *machine.Machine, experiments.Mode) (R, error)) func(*params) error {
	return perMachine(func(p *params, m *machine.Machine) (R, error) { return f(p.kernel, m, p.mode) })
}

// fig2 renders the heat maps for the extreme thread counts of each
// machine.
func fig2(p *params) error {
	points := 12
	if p.mode == experiments.Quick {
		points = 7
	}
	for _, m := range p.machines {
		threads := experiments.ThreadCounts(m)
		for _, th := range []int{threads[0], threads[len(threads)-1]} {
			r, err := experiments.Fig2(p.kernel, m, th, 9, points)
			if err != nil {
				return err
			}
			r.Render(p.w)
			fmt.Fprintln(p.w)
			if p.exportDir != "" {
				if err := exportHeatmap(p.exportDir, fmt.Sprintf("fig2_%s_%dt", m.Name, th), r); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func fig8(p *params, m *machine.Machine) (*experiments.Fig8Result, error) {
	r, err := experiments.Fig8(p.kernel, m, p.mode)
	if err != nil || p.exportDir == "" {
		return r, err
	}
	return r, writeFile(filepath.Join(p.exportDir, "fig8_"+m.Name+".csv"), func(w io.Writer) error {
		return export.SeriesCSV(w, r.Series)
	})
}

// fig9 reuses the Table VI machinery for one kernel.
func fig9(p *params, m *machine.Machine) (*experiments.Fig9Result, error) {
	_, f9, err := experiments.Table6Kernel(p.kernel, m, p.mode, 1)
	if err != nil || p.exportDir == "" {
		return f9, err
	}
	return f9, exportFig9(p.exportDir, m.Name, f9)
}

// writeFile creates path, hands it to write and closes it, reporting
// the first error of the three.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// exportHeatmap writes a Fig. 2 panel as CSV plus a gnuplot script.
func exportHeatmap(dir, base string, r *experiments.Fig2Result) error {
	csvPath := filepath.Join(dir, base+".csv")
	if err := writeFile(csvPath, func(w io.Writer) error {
		return export.HeatmapCSV(w, r.T1, r.T2, r.RelTime)
	}); err != nil {
		return err
	}
	title := fmt.Sprintf("relative time, %d threads (%s)", r.Threads, r.Machine.Name)
	return writeFile(filepath.Join(dir, base+".gp"), func(w io.Writer) error {
		return export.GnuplotHeatmap(w, title, csvPath)
	})
}

// exportFig9 writes each strategy's front as CSV plus a combined
// gnuplot script.
func exportFig9(dir, machineName string, f9 *experiments.Fig9Result) error {
	fronts := map[string][]pareto.Point{
		"bruteforce": f9.BruteForce,
		"random":     f9.Random,
		"rsgde3":     f9.RSGDE3,
	}
	files := map[string]string{}
	for name, front := range fronts {
		path := filepath.Join(dir, fmt.Sprintf("fig9_%s_%s.csv", machineName, name))
		if err := writeFile(path, func(w io.Writer) error {
			return export.FrontCSV(w, front, nil, []string{"time", "resources"})
		}); err != nil {
			return err
		}
		files[name] = path
	}
	return writeFile(filepath.Join(dir, "fig9_"+machineName+".gp"), func(w io.Writer) error {
		return export.GnuplotFronts(w, "Pareto fronts ("+machineName+")", files)
	})
}
